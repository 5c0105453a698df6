package repro

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** What Spark did while a block ran: the jobs it started and the shuffle
  * bytes its tasks wrote, read from a listener that is drained before it
  * is added and before it is removed, so no other block's events count.
  */
object SparkActivity {

  final case class Counts(jobs: Int, shuffleBytes: Long)

  def during[A](sc: SparkContext)(block: => A): (A, Counts) = {
    val jobs = new AtomicInteger
    val shuffleBytes = new AtomicLong
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (e.taskMetrics != null) shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    ListenerDrain(sc)
    sc.addSparkListener(listener)
    val result = try {
      val r = block
      ListenerDrain(sc)
      r
    } finally sc.removeSparkListener(listener)
    (result, Counts(jobs.get, shuffleBytes.get))
  }
}
