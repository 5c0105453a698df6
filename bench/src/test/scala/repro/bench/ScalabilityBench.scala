package repro.bench

import repro.core.Summarizer
import repro.eval.Scalability
import repro.kg.{KGBuilder, KgIndex, MLSynth}
import repro.rec.{PathRecommender, Pgpr}

/** Figures 9–10: runtime/memory of ST vs PCST as k grows (user-centric)
  * and as the user-group size grows on the ML1M-sim graph.
  *
  * Published shape: PCST runtime is flat in |T| (one Voronoi pass), ST
  * grows rapidly with the group size (|T| SSSPs); the gap widens with k.
  */
class ScalabilityBench extends BenchSupport {

  private lazy val idx = KgIndex.fromKGraph(
    KGBuilder.build(spark, MLSynth.ml1m(spark, benchScale)))

  private lazy val topPaths = {
    val users = repro.eval.Sampling.spreadUsers(
      (idx.graph.ids.count(repro.kg.NodeIds.isUser)), 120)
    val idxB = spark.sparkContext.broadcast(idx)
    try PathRecommender.recommendBatch(spark.sparkContext, idxB, new Pgpr, users, 10, seed = 17L)
    finally idxB.destroy()
  }

  test("Fig 9: runtime vs k — ST grows faster than PCST") {
    val user = topPaths.filter(_._2.size == 10).keys.min
    val scens = Scalability.kScenarios(topPaths, user, Seq(1, 2, 4, 6, 8, 10))
    val rows = Scalability.measure(idx, scens,
      Seq(Summarizer.ST(1.0), Summarizer.PCST()))
    rows.sortBy(r => (r.method, r.k)).foreach { r =>
      result("fig9", f"method=${r.method} k=${r.k} terminals=${r.terminals} " +
        f"time=${r.timeMs}%.1fms mem=${r.memMb}%.1fMB edges=${r.edges}")
    }
    val st = rows.filter(_.method.startsWith("st")).sortBy(_.k)
    val pcst = rows.filter(_.method == "pcst").sortBy(_.k)
    // ST's measured time and modelled memory grow with k; PCST's memory is flat.
    assert(st.last.memMb > st.head.memMb)
    assert(pcst.map(_.memMb).distinct.size == 1)
    assert(st.last.timeMs >= st.head.timeMs * 0.8)
  }

  test("Fig 10: runtime vs group size — PCST scales, ST does not") {
    val sizes = sys.env.getOrElse("REPRO_FIG10_SIZES", "5,10,20,40,80")
      .split(",").map(_.trim.toInt).toSeq
    val scens = Scalability.groupScenarios(topPaths, sizes, k = 10)
    val rows = Scalability.measure(idx, scens,
      Seq(Summarizer.ST(1.0), Summarizer.PCST()))
    rows.sortBy(r => (r.method, r.groupSize)).foreach { r =>
      result("fig10", f"method=${r.method} group=${r.groupSize} terminals=${r.terminals} " +
        f"time=${r.timeMs}%.1fms mem=${r.memMb}%.1fMB edges=${r.edges}")
    }
    val st = rows.filter(_.method.startsWith("st")).sortBy(_.groupSize)
    val pcst = rows.filter(_.method == "pcst").sortBy(_.groupSize)
    assert(st.last.timeMs > st.head.timeMs, "ST runtime grows with group size")
    // The paper's headline: at large groups ST is far slower than PCST.
    assert(st.last.timeMs > 2 * pcst.last.timeMs,
      s"ST ${st.last.timeMs}ms should dominate PCST ${pcst.last.timeMs}ms at group ${st.last.groupSize}")
    // PCST grows much more slowly than ST.
    val stGrowth = st.last.timeMs / math.max(0.1, st.head.timeMs)
    val pcstGrowth = pcst.last.timeMs / math.max(0.1, pcst.head.timeMs)
    result("fig10", f"growth st=${stGrowth}%.1fx pcst=${pcstGrowth}%.1fx")
    assert(stGrowth > pcstGrowth)
  }
}
