package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.collection.mutable.ArrayBuffer

/** One timed interval of the traced run. `parent` is -1 for a root span;
  * `traceId` groups the spans of one query (-1 outside any query).
  */
final case class Span(id: Int, parent: Int, traceId: Int, name: String, startNs: Long, endNs: Long)

/** In-memory span recorder used by the traced run. Spans are recorded around
  * calls into the program's layers from the benchmark's own code; nothing
  * inside the program is instrumented. Single-threaded by design: the
  * benchmark is one closed-loop client.
  */
final class Trace(val enabled: Boolean) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var currentTrace = -1
  private var nextId = 0

  /** Run `body` inside a span named `name`, nested under the innermost open span. */
  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack = stack.tail
        spans += Span(id, parent, currentTrace, name, t0, t1)
      }
    }

  /** A root span for one query; every span opened inside carries `traceId`. */
  def query[A](traceId: Int)(body: => A): A =
    if (!enabled) body
    else {
      currentTrace = traceId
      try span("query")(body)
      finally currentTrace = -1
    }

  /** Write the spans as JSON lines (one object per span). */
  def write(path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val lines = spans.map { s =>
      Json.render(Map(
        "id" -> s.id, "parent" -> s.parent, "trace" -> s.traceId, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs,
      ))
    }
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

/** Minimal JSON rendering for the benchmark's raw output (maps, sequences,
  * strings, numbers, booleans, null).
  */
object Json {
  def render(v: Any): String = v match {
    case null              => "null"
    case None              => "null"
    case Some(x)           => render(x)
    case b: Boolean        => b.toString
    case d: Double         => if (d.isNaN || d.isInfinite) "null" else d.toString
    case f: Float          => render(f.toDouble)
    case n: Int            => n.toString
    case n: Long           => n.toString
    case s: String         => quote(s)
    case m: Map[_, _]      => m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]   => xs.map(render).mkString("[", ",", "]")
    case xs: Array[_]      => xs.map(render).mkString("[", ",", "]")
    case other             => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
