package repro

import java.util.concurrent.ConcurrentLinkedQueue

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted}
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.AccumulatorV2

/** Observes how Spark parallelised a piece of work: the task count of every
  * stage whose tasks updated a given accumulator (e.g. a store's load
  * counter, which marks the stages that load masks).
  */
object StageTasks {

  def updating[T](spark: SparkSession, acc: AccumulatorV2[_, _])(body: => T): (T, Seq[Int]) = {
    val sc = spark.sparkContext
    val tasks = new ConcurrentLinkedQueue[Int]()
    val listener = new SparkListener {
      override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
        if (e.stageInfo.accumulables.contains(acc.id)) tasks.add(e.stageInfo.numTasks)
    }
    // Events of jobs that ran before `body` must not reach the listener.
    ListenerBusDrain.drain(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusDrain.drain(sc)
      (out, tasks.asScala.toSeq)
    } finally sc.removeSparkListener(listener)
  }
}
