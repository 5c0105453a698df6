package repro.jobs

import org.apache.spark.DriverProbe
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.core.Summarizer
import repro.eval.Scalability
import repro.graph.GraphStats
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds}

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

  test("Scalability: group scenarios grow with the group size") {
    val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, 1200))
    val idx = KgIndex.fromKGraph(kg)
    val users = (1 to 12).map(u => NodeIds.user(u.toLong))
    val paths = Scalability.randomPaths(spark, idx, users, k = 5, seed = 5L)
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
    val paths = Scalability.randomPaths(spark, idx, users, k = 5, seed = 5L)
    assume(paths.nonEmpty)
    val u = paths.keys.min
    val scens = Scalability.kScenarios(paths, u, Seq(1, 3, 5))
    assert(scens.nonEmpty && scens.size <= 3)
    scens.foreach { case (sc, _, k) => assert(sc.terminals.length <= k + 1) }
  }

  test("Scalability.randomPaths leaves no broadcast of the index behind") {
    val kg = KGBuilder.build(spark, MLSynth.synthetic(spark, 1200))
    val idx = KgIndex.fromKGraph(kg)
    val held = spark.sparkContext.broadcast(idx)
    assert(DriverProbe.broadcastsOf(idx) == 1)
    held.destroy()
    eventually(timeout(20.seconds))(assert(DriverProbe.broadcastsOf(idx) == 0))
    val paths = Scalability.randomPaths(spark, idx, (1 to 4).map(u => NodeIds.user(u.toLong)), k = 5, seed = 5L)
    assert(paths.nonEmpty)
    eventually(timeout(20.seconds))(assert(DriverProbe.broadcastsOf(idx) == 0))
  }
}
