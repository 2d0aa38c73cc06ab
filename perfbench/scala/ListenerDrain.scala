package org.apache.spark

/** Listener events arrive asynchronously; the benchmark waits for the bus to
  * empty before it reads [[perfbench.SparkCounters]]. `listenerBus` is
  * package-private to Spark, hence this file's package.
  */
object ListenerDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
