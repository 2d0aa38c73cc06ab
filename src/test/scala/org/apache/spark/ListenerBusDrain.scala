package org.apache.spark

/** Listener events arrive asynchronously; tests that read a listener wait
  * for the bus to empty first. `listenerBus` is package-private to Spark,
  * hence this file's package.
  */
object ListenerBusDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
