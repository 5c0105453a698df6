package org.apache.spark

import org.apache.spark.storage.BroadcastBlockId

/** Test access to driver state that Spark keeps `private[spark]`; lives in
  * Spark's package for that reason.
  */
object DriverProbe {

  /** Number of broadcasts in the driver's block manager whose value is
    * `value` itself. Matching by identity skips the task binaries that
    * Spark broadcasts per stage and frees only after garbage collection.
    */
  def broadcastsOf(value: AnyRef): Int = {
    val bm = SparkEnv.get.blockManager
    bm.getMatchingBlockIds {
      case BroadcastBlockId(_, field) => field.isEmpty
      case _ => false
    }.count(id => bm.memoryStore.getValues(id).exists(_.exists(_.asInstanceOf[AnyRef] eq value)))
  }
}
