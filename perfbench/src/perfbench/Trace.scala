package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer of the program: `summary` groups the spans
  * of one summary (−1 outside any summary), `parent` is the enclosing span.
  * `allocBytes` is what the calling thread allocated inside the span.
  */
final case class Span(id: Int, parent: Int, summary: Int, name: String,
                      startNs: Long, endNs: Long, allocBytes: Long,
                      counts: Map[String, Double]) {
  def ms: Double = (endNs - startNs) / 1e6
  def s: Double = (endNs - startNs) / 1e9
  def mb: Double = allocBytes / 1e6
}

/** In-memory span recorder around the calls the benchmark makes into the
  * program. Spans are kept until [[write]] at the end of the run, so the
  * recorder itself does no I/O while work is being timed.
  */
final class Tracer {
  private val done = ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  var summary: Int = -1

  /** Time `f` as span `name`; `counts` derives counters from its result. */
  def span[A](name: String)(f: => A)(counts: A => Map[String, Double] = (_: A) => Map.empty[String, Double]): A = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    val a0 = Meter.threadAlloc()
    val t0 = System.nanoTime()
    val out = try f finally stack = stack.tail
    val t1 = System.nanoTime()
    val a1 = Meter.threadAlloc()
    done += Span(id, parent, summary, name, t0, t1, a1 - a0, counts(out))
    out
  }

  def spans: Seq[Span] = done.toSeq
  def named(name: String): Seq[Span] = done.iterator.filter(_.name == name).toSeq

  /** Write all spans as JSON lines tagged with `phase`. */
  def write(w: java.io.PrintWriter, phase: String): Unit =
    done.foreach { s =>
      val cs = s.counts.map { case (k, v) => s""""$k":${Json.num(v)}""" }.mkString(",")
      w.println(s"""{"phase":${Json.str(phase)},"id":${s.id},"parent":${s.parent},"summary":${s.summary},""" +
        s""""name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs},""" +
        s""""alloc_bytes":${s.allocBytes},"counts":{$cs}}""")
    }
}

/** Measurements taken from outside the program through the JVM's MXBeans. */
object Meter {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def threadAlloc(): Long = threads.getCurrentThreadAllocatedBytes

  /** Allocated bytes of every live thread, by thread id. */
  def allThreadsAlloc(): Map[Long, Long] = {
    val ids = threads.getAllThreadIds
    ids.zip(threads.getThreadAllocatedBytes(ids)).filter(_._2 >= 0).toMap
  }

  /** Bytes allocated between two [[allThreadsAlloc]] snapshots. Threads
    * that ended in between are not counted; Spark's executor threads are
    * pooled and outlive a run's timed phase.
    */
  def allocatedBetween(before: Map[Long, Long], after: Map[Long, Long]): Long =
    after.iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  /** (collections, collection time in ms) summed over all collectors. */
  def gc(): (Long, Long) = {
    var n = 0L; var ms = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach { b =>
      n += math.max(0L, b.getCollectionCount); ms += math.max(0L, b.getCollectionTime)
    }
    (n, ms)
  }
}

object Stats {
  /** Linear-interpolated quantile, q in [0, 1]; NaN for no samples. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt; val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}

object Json {
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString
  def str(s: String): String = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
}
