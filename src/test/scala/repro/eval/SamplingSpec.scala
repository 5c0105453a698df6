package repro.eval

import org.apache.spark.sql.functions._
import repro.{SparkActivity, SparkSpec}
import repro.kg.{KGBuilder, KGraph, MLSynth, NodeIds}

class SamplingSpec extends SparkSpec {

  private lazy val kg = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))

  test("sampleUsers returns the requested counts per gender") {
    val (m, f) = Sampling.sampleUsers(kg, perGender = 20)
    assert(m.size == 20 && f.size == 20)
    assert((m.toSet & f.toSet).isEmpty)
  }

  test("sampled users carry the right gender") {
    val (m, f) = Sampling.sampleUsers(kg, perGender = 10)
    val genders = kg.nodes.filter(col("ntype") === "user")
      .select("id", "gender").collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(m.forall(genders(_) == "M"))
    assert(f.forall(genders(_) == "F"))
  }

  test("stratification preserves the activity spread (not only heavy raters)") {
    val (m, _) = Sampling.sampleUsers(kg, perGender = 20)
    val counts = kg.edges.filter(col("etype") === "user-item")
      .groupBy("src").count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val sampled = m.map(counts(_))
    val all = counts.values.toSeq.sorted
    // The sample must span both halves of the activity distribution.
    val median = all(all.size / 2)
    assert(sampled.exists(_ > median) && sampled.exists(_ <= median))
  }

  test("every sampled user has at least one rating (paths exist to summarize)") {
    val (m, f) = Sampling.sampleUsers(kg, perGender = 15)
    val raters = kg.edges.filter(col("etype") === "user-item")
      .select("src").distinct().collect().map(_.getLong(0)).toSet
    (m ++ f).foreach(u => assert(raters.contains(u)))
  }

  test("sampleUsers equals the groupBy + join reference for 10 and 20 users per gender") {
    Seq(10, 20).foreach { n =>
      assert(Sampling.sampleUsers(kg, n) == SamplingSpec.reference(kg, n), s"perGender = $n")
    }
  }

  test("after kg.graph is built, sampleUsers runs one Spark job and shuffles nothing") {
    kg.graph
    val (_, activity) = SparkActivity.during(spark.sparkContext)(Sampling.sampleUsers(kg, 10))
    assert(activity == SparkActivity.Counts(jobs = 1, shuffleBytes = 0L), activity)
  }

  test("spreadUsers covers the population evenly") {
    val s = Sampling.spreadUsers(nUsers = 100, n = 10)
    assert(s.size == 10)
    assert(s.distinct.size == 10)
    assert(s.head == NodeIds.user(1))
    assert(s.forall(u => u >= 1 && u <= 100))
  }

  test("spreadUsers caps at the population size") {
    assert(Sampling.spreadUsers(nUsers = 5, n = 50).size == 5)
  }
}

object SamplingSpec {

  /** The sample as DataFrames: rating counts by a `groupBy` over the
    * user-item edges, inner-joined with the user rows, then the same
    * (−count, id) ranking and evenly spaced picks.
    */
  def reference(kg: KGraph, perGender: Int): (Seq[Long], Seq[Long]) = {
    val counts = kg.edges.filter(col("etype") === "user-item")
      .groupBy(col("src") as "id").agg(count(lit(1)) as "n")
    val ranked = kg.nodes.filter(col("ntype") === "user")
      .join(counts, Seq("id"), "inner")
      .select(col("id"), col("gender"), col("n"))
      .collect()
      .map(r => (r.getLong(0), r.getString(1), r.getLong(2)))

    def pick(gender: String): Seq[Long] = {
      val sorted = ranked.filter(_._2 == gender).sortBy(u => (-u._3, u._1)).map(_._1)
      if (sorted.length <= perGender) sorted.toSeq
      else {
        val step = sorted.length.toDouble / perGender
        (0 until perGender).map(i => sorted((i * step).toInt))
      }
    }
    (pick("M"), pick("F"))
  }
}
