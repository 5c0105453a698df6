package perfbench

import repro.core.{Subgraph, Summarizer}
import repro.eval.Harness
import repro.kg.KgIndex

import scala.collection.mutable

/** Output checks. Every checked summary is one attempted operation; a
  * summary with a structural problem, a result that differs from an
  * earlier result for the same input, and a fingerprint that differs from
  * the recorded one each count as one failed operation.
  */
final class Checker {
  var attempted = 0L
  var failed = 0L
  var replayMismatches = 0L
  val problems = mutable.ArrayBuffer.empty[String]
  private val first = mutable.HashMap.empty[String, String]

  private def fail(msg: String): Unit = {
    failed += 1
    if (problems.size < 20) problems += msg
  }

  /** One ST/PCST summary: structure, plus the same edge set as the first
    * time this key was computed.
    */
  def summary(key: String, idx: KgIndex, method: Summarizer.Method, sub: Subgraph): Unit = {
    attempted += 1
    val issues = Checker.structure(idx, method, sub)
    if (issues.nonEmpty) fail(s"$key: ${issues.mkString("; ")}")
    else if (first.getOrElseUpdate(key, Checker.edgeKey(sub)) != Checker.edgeKey(sub))
      fail(s"$key: edge set differs from an earlier run of the same summary")
  }

  /** One traced summary whose replayed kernel must give the same edges. */
  def replay(key: String, same: Boolean): Unit = {
    attempted += 1
    if (!same) { replayMismatches += 1; fail(s"$key: replayed kernel edges differ from the summary") }
  }

  /** One harness metric row: value ranges and, for ST/PCST, the forest
    * bound |E_S| ≤ |V_S| − 1 (the rows carry counts, not edge sets).
    */
  def row(r: Harness.MetricRow): Unit = {
    attempted += 1
    val unit = Seq(r.actionability, r.diversity, r.privacy, r.redundancy)
    val ok = r.comprehensibility > 0 && r.comprehensibility <= 1 &&
      unit.forall(v => v >= 0 && v <= 1) && r.relevance >= 0 && !r.relevance.isInfinite &&
      (r.method == Summarizer.Paths.label || r.edges == 0 || r.edges < r.nodes)
    if (!ok) fail(s"row ${r.scenarioId}|k=${r.k}|${r.method}: out of range $r")
  }

  /** One whole-workload fingerprint against its recorded value, and
    * against the first fingerprint of this run.
    */
  def fingerprint(label: String, fp: String, expected: Option[String]): Unit = {
    attempted += 1
    if (expected.exists(_ != fp)) fail(s"$label fingerprint $fp, recorded ${expected.get}")
    else if (first.getOrElseUpdate("fingerprint:" + label, fp) != fp)
      fail(s"$label fingerprint $fp differs from this run's first")
  }

  /** Fingerprint of every summary edge set seen so far. */
  def summariesFingerprint: String =
    Checker.fingerprint(first.collect { case (k, v) if !k.startsWith("fingerprint:") => s"$k|$v" })

  def failedShare: Double = failed.toDouble / math.max(1L, attempted)
}

object Checker {

  /** Problems of an ST/PCST summary: every edge a distinct KG edge, the
    * edges a forest (|E_S| = |V_S| − components), and for ST every
    * terminal that exists in G present in V_S.
    */
  def structure(idx: KgIndex, method: Summarizer.Method, sub: Subgraph): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    val pairs = sub.edges.map(e => if (e.src <= e.dst) (e.src, e.dst) else (e.dst, e.src))
    pairs.filter { case (a, b) => idx.edgeBetween(a, b).isEmpty }.take(3)
      .foreach { case (a, b) => out += s"$a-$b is not a KG edge" }
    if (pairs.distinct.length != pairs.length) out += "duplicate edge"

    val nodes = (pairs.iterator.flatMap { case (a, b) => Iterator(a, b) } ++ sub.isolated.iterator)
      .toArray.distinct
    val pos = nodes.zipWithIndex.toMap
    val parent = nodes.indices.toArray
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    var components = nodes.length
    pairs.distinct.foreach { case (a, b) =>
      val ra = find(pos(a)); val rb = find(pos(b))
      if (ra != rb) { parent(ra) = rb; components -= 1 }
    }
    if (pairs.distinct.length != nodes.length - components)
      out += s"not a forest: |E|=${pairs.distinct.length} |V|=${nodes.length} components=$components"

    method match {
      case Summarizer.ST(_) =>
        val missing = sub.terminals.distinct.filter(t => idx.graph.contains(t) && !pos.contains(t))
        if (missing.nonEmpty) out += s"terminals not in V_S: ${missing.take(5).mkString(",")}"
      case _ =>
    }
    out.toSeq
  }

  /** Order-independent edge-set key: sorted undirected pairs. */
  def edgeKey(sub: Subgraph): String =
    sub.edges.map(e => if (e.src <= e.dst) s"${e.src}-${e.dst}" else s"${e.dst}-${e.src}")
      .sorted.mkString(",")

  /** SHA-256 over the sorted entries, so the order the entries were
    * computed in does not matter.
    */
  def fingerprint(entries: Iterable[String]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    entries.toSeq.sorted.foreach(e => md.update((e + "\n").getBytes("UTF-8")))
    md.digest().take(16).map(b => f"${b & 0xff}%02x").mkString
  }
}
