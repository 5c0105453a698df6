package repro.jobs

import org.apache.spark.DriverProbe
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkActivity, SparkSpec}
import repro.core.Summarizer
import repro.eval.Scalability
import repro.graph.GraphStats
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds}
import repro.rec.Pearlm

/** Smoke tests for the spark-submit entrypoints' inner logic (main()
  * methods only add argument parsing and SparkSession lifecycle).
  */
class JobsSpec extends SparkSpec {

  test("TableIIJob.render formats paper-vs-measured lines") {
    val kg = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
    val txt = TableIIJob.render(0.05, GraphStats.compute(kg, sampleSources = 4))
    assert(txt.contains("[6040]") && txt.contains("density"))
  }

  test("RecencyJob.run sweeps all five beta combinations") {
    val rows = RecencyJob.run(spark, scale = 0.05, nUsers = 6)
    assert(rows.map(r => (r._1, r._2)) == RecencyJob.Combos)
    rows.foreach { case (_, _, c, d) =>
      assert(c >= 0 && c <= 1 && d >= 0 && d <= 1)
    }
  }

  test("TableIIIJob.run gives one row per graph with its GraphStats node counts and four timings") {
    val Seq(row) = TableIIIJob.run(spark, Seq(1200), groupSize = 4)
    val stats = GraphStats.compute(KGBuilder.build(spark, MLSynth.synthetic(spark, 1200, seed = 13L)), sampleSources = 6)
    assert((row.stats.nUsers, row.stats.nItems, row.stats.nExternal, row.stats.nNodes) ==
      (stats.nUsers, stats.nItems, stats.nExternal, stats.nNodes))
    assert(row.group == 4)
    Seq(row.stUserCentricMs, row.pcstUserCentricMs, row.stGroupMs, row.pcstGroupMs).foreach(t => assert(t >= 0))
  }

  test("TableIIIJob.run rejects an empty sizes or a group below 1 before building any graph") {
    val (e, activity) = SparkActivity.during(spark.sparkContext) {
      intercept[IllegalArgumentException](TableIIIJob.run(spark, Seq(1200), groupSize = 0))
    }
    assert(e.getMessage.contains("groupSize") && e.getMessage.contains("got 0"), e.getMessage)
    assert(activity.jobs == 0)
    val empty = intercept[IllegalArgumentException](TableIIIJob.run(spark, Nil, groupSize = 4))
    assert(empty.getMessage.contains("sizes"), empty.getMessage)
  }

  test("MetricsJob.parseArgs rejects an unknown dataset or recommender and names the valid ones") {
    val d = intercept[IllegalArgumentException](MetricsJob.parseArgs(Array("ml1n")))
    assert(d.getMessage.contains("'ml1n'") && d.getMessage.contains("ml1m, lfm1m"), d.getMessage)
    val r = intercept[IllegalArgumentException](MetricsJob.parseArgs(Array("lfm1m", "0.1", "pgpr,pgrp")))
    assert(r.getMessage.contains("'pgrp'") && r.getMessage.contains("pgpr, cafe, plm, pearlm"), r.getMessage)
    val defaults = MetricsJob.parseArgs(Array.empty)
    assert((defaults.dataset, defaults.scale, defaults.recommenders.map(_.name)) == ("ml1m", 0.2, Seq("pgpr", "cafe")))
    assert(MetricsJob.parseArgs(Array("lfm1m", "0.1", "pearlm")).recommenders.map(_.name) == Seq("pearlm"))
  }

  test("Scalability: group scenarios grow with the group size") {
    val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, 1200))
    val idx = KgIndex.fromKGraph(kg)
    val users = (1 to 12).map(u => NodeIds.user(u.toLong))
    val paths = Scalability.recommendedPaths(spark, idx, new Pearlm, users, k = 5, seed = 5L)
    assume(paths.size >= 8)
    val scens = Scalability.groupScenarios(paths, Seq(2, 4, 8), k = 5)
    assert(scens.map(_._2) == Seq(2, 4, 8))
    val rows = Scalability.measure(idx, scens, Seq(Summarizer.ST(1.0), Summarizer.PCST()))
    assert(rows.size == 6)
    rows.foreach(r => assert(r.timeMs >= 0))
    // ST memory model grows with |T|; PCST's does not.
    val st = rows.filter(_.method.startsWith("st")).sortBy(_.groupSize).map(_.memMb)
    val pc = rows.filter(_.method == "pcst").map(_.memMb)
    assert(st.head < st.last)
    assert(pc.distinct.size == 1)
  }

  test("Scalability.kScenarios builds one scenario per k with paths available") {
    val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, 1200))
    val idx = KgIndex.fromKGraph(kg)
    val users = (1 to 4).map(u => NodeIds.user(u.toLong))
    val paths = Scalability.recommendedPaths(spark, idx, new Pearlm, users, k = 5, seed = 5L)
    assume(paths.nonEmpty)
    val u = paths.keys.min
    val scens = Scalability.kScenarios(paths, u, Seq(1, 3, 5))
    assert(scens.nonEmpty && scens.size <= 3)
    scens.foreach { case (sc, _, k) => assert(sc.terminals.length <= k + 1) }
  }

  test("Scalability.recommendedPaths leaves no broadcast of the index behind") {
    val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, 1200))
    val idx = KgIndex.fromKGraph(kg)
    val held = spark.sparkContext.broadcast(idx)
    assert(DriverProbe.broadcastsOf(idx) == 1)
    held.destroy()
    eventually(timeout(20.seconds))(assert(DriverProbe.broadcastsOf(idx) == 0))
    val users = (1 to 4).map(u => NodeIds.user(u.toLong))
    val paths = Scalability.recommendedPaths(spark, idx, new Pearlm, users, k = 5, seed = 5L)
    assert(paths.nonEmpty)
    eventually(timeout(20.seconds))(assert(DriverProbe.broadcastsOf(idx) == 0))
  }
}
