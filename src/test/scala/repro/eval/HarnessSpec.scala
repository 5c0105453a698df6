package repro.eval

import org.apache.spark.{DriverProbe, SparkException}
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.SpanSugar._
import repro.{SparkActivity, SparkSpec}
import repro.kg.{KGBuilder, KgIndex, MLSynth}
import repro.rec.{ExplanationPath, PathRecommender, Pgpr}

class HarnessSpec extends SparkSpec {

  private lazy val kg  = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
  private lazy val idx = KgIndex.fromKGraph(kg)

  private lazy val cfg = Harness.Config(
    kSet = Seq(1, 3, 5), usersPerGender = 6, itemsHalf = 5, spreadUserPool = 60,
    groupSize = 4, itemGroupSize = 4)

  // The grid runs once, with its Spark activity recorded after the graph
  // and the user count, which every run shares, are built.
  private lazy val (out, activity) = {
    idx; kg.nUsers
    SparkActivity.during(spark.sparkContext)(Harness.run(spark, kg, idx, new Pgpr, cfg))
  }

  test("rows cover every method for the user-centric family") {
    val methods = out.rows.filter(_.family == "user-centric").map(_.method).toSet
    assert(methods == Set("paths", "st(λ=0.01)", "st(λ=1.0)", "st(λ=100.0)", "pcst"))
  }

  test("rows cover all four scenario families") {
    assert(out.rows.map(_.family).toSet ==
      Set("user-centric", "item-centric", "user-group", "item-group"))
  }

  test("rows cover every k in the sweep") {
    assert(out.rows.filter(_.family == "user-centric").map(_.k).toSet == Set(1, 3, 5))
  }

  test("every sampled user with paths yields a user-centric scenario per k") {
    val perK = out.rows.filter(r => r.family == "user-centric" && r.method == "paths")
      .groupBy(_.k).view.mapValues(_.size).toMap
    assert(perK.values.toSet.size == 1, s"same user count at every k: $perK")
    assert(perK(1) > 0 && perK(1) <= 12)
  }

  test("metric values are within bounds in every row") {
    out.rows.foreach { r =>
      assert(r.comprehensibility > 0 && r.comprehensibility <= 1.0, r)
      assert(r.actionability >= 0 && r.actionability <= 1.0, r)
      assert(r.diversity >= 0 && r.diversity <= 1.0, r)
      assert(r.redundancy >= 0 && r.redundancy < 1.0, r)
      assert(r.privacy >= 0 && r.privacy <= 1.0, r)
      assert(r.relevance >= 0, r)
      assert(r.timeMs >= 0 && r.memMb > 0, r)
    }
  }

  test("figure-2 shape: ST is more comprehensible than the baseline paths") {
    def meanC(method: String): Double = {
      val rs = out.rows.filter(r => r.family == "user-centric" && r.method == method && r.k == 5)
      rs.map(_.comprehensibility).sum / rs.size
    }
    assert(meanC("st(λ=1.0)") > meanC("paths"))
  }

  test("figure-8 shape: PCST privacy beats ST privacy") {
    def meanP(method: String): Double = {
      val rs = out.rows.filter(r => r.family == "user-centric" && r.method == method)
      rs.map(_.privacy).sum / rs.size
    }
    assert(meanP("pcst") >= meanP("st(λ=1.0)"))
  }

  test("consistency rows exist for every (family, method) with all-k coverage") {
    val keys = out.consistency.map(c => (c.family, c.method)).toSet
    assert(keys.contains(("user-centric", "paths")))
    assert(keys.contains(("user-centric", "pcst")))
    out.consistency.foreach(c => assert(c.consistency >= 0 && c.consistency <= 1.0))
  }

  test("sampled sets are exposed for the popularity-bias split") {
    assert(out.maleUsers.nonEmpty && out.femaleUsers.nonEmpty)
    assert(out.popularItems.nonEmpty && out.popularItems.size <= 5)
    assert(out.unpopularItems.nonEmpty && out.unpopularItems.size <= 5)
    assert((out.popularItems.toSet & out.unpopularItems.toSet).isEmpty)
    // Every sampled item is actually recommended to someone in the pool.
    val recItems = out.rows.filter(_.family == "item-centric").map(_.scenarioId).toSet
    assert(out.popularItems.exists(i => recItems.contains(s"item:$i")))
  }

  test("rowsDF and consistencyDF expose the rows to Spark SQL") {
    val df = out.rowsDF(spark)
    assert(df.count() == out.rows.size)
    assert(df.columns.contains("comprehensibility"))
    assert(out.consistencyDF(spark).count() == out.consistency.size)
  }

  test("item-centric scenarios have the item plus its audience as terminals") {
    val itemRows = out.rows.filter(r => r.family == "item-centric" && r.method == "paths")
    assert(itemRows.nonEmpty, "popular items should be recommended to someone in the pool")
  }

  test("after kg.graph and kg.nUsers are built, a run shuffles nothing") {
    assert(out.rows.nonEmpty)
    assert(activity.shuffleBytes == 0L, activity)
  }

  test("Config rejects a bad value of each field, naming it, before any Spark job") {
    def rejects(field: String, cfg: => Harness.Config): Unit = {
      val e = intercept[IllegalArgumentException](cfg)
      assert(e.getMessage.contains(s"Harness.Config.$field"), e.getMessage)
    }
    rejects("kSet", Harness.Config(kSet = Seq()))
    rejects("kSet", Harness.Config(kSet = Seq(1, 0)))
    rejects("usersPerGender", Harness.Config(usersPerGender = 0))
    rejects("itemsHalf", Harness.Config(itemsHalf = 0))
    rejects("groupSize", Harness.Config(groupSize = 0))
    rejects("itemGroupSize", Harness.Config(itemGroupSize = 0))
    rejects("maxUsersPerItem", Harness.Config(maxUsersPerItem = 0))
    rejects("spreadUserPool", Harness.Config(spreadUserPool = -1))
    assert(Harness.Config(spreadUserPool = 0).spreadUserPool == 0)
  }

  test("a run whose recommender throws leaves no broadcast of the index behind") {
    val fresh = new KgIndex(idx.graph)
    val err = intercept[SparkException](Harness.run(spark, kg, fresh, new HarnessSpec.Failing, cfg))
    assert(err.getMessage.contains("recommender failed"), err.getMessage)
    eventually(timeout(20.seconds))(assert(DriverProbe.broadcastsOf(fresh) == 0))
  }
}

object HarnessSpec {
  /** A recommender whose every executor task fails. */
  final class Failing extends PathRecommender {
    def name: String = "failing"
    def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] =
      throw new IllegalStateException("recommender failed")
  }
}
