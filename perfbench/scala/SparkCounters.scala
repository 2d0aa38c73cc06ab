package perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.scheduler._

/** Counts the Spark jobs, stages and tasks each query causes, from outside
  * the program: the benchmark tags every query with its own job group and
  * this listener attributes events to the group they carry.
  */
final class SparkCounters extends SparkListener {
  final class Counts {
    val jobs = new AtomicLong
    val stages = new AtomicLong
    val tasks = new AtomicLong
  }

  private val byGroup = new ConcurrentHashMap[String, Counts]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()

  private def counts(group: String): Counts = byGroup.computeIfAbsent(group, _ => new Counts)

  private def groupOf(props: java.util.Properties): Option[String] =
    Option(props).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))

  override def onJobStart(e: SparkListenerJobStart): Unit =
    groupOf(e.properties).foreach(g => counts(g).jobs.incrementAndGet())

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    groupOf(e.properties).foreach { g =>
      stageGroup.put(e.stageInfo.stageId, g)
      counts(g).stages.incrementAndGet()
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageGroup.get(e.stageId)).foreach(g => counts(g).tasks.incrementAndGet())

  /** (jobs, stages, tasks) of a group; call after [[ListenerDrain.drain]]. */
  def of(group: String): (Long, Long, Long) = {
    val c = counts(group)
    (c.jobs.get, c.stages.get, c.tasks.get)
  }
}
