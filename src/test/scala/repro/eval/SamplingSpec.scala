package repro.eval

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.kg.{KGBuilder, MLSynth, NodeIds}

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
