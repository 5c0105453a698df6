package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so task
  * counters read after a timed phase include that phase's last tasks.
  * Lives in Spark's package because the bus is `private[spark]`.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
