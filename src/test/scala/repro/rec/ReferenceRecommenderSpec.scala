package repro.rec

import repro.SparkSpec
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeType}

/** The four recommenders against `ReferenceRecommenders`: the same ordered
  * top-10 list, path for path, for every user vertex of the scale-0.05
  * ML1M-sim graph, where `GoldenRecommenderSpec` pins twelve users.
  */
class ReferenceRecommenderSpec extends SparkSpec {

  private lazy val idx = KgIndex.fromKGraph(KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05)))

  private lazy val users: Seq[Int] = (0 until idx.graph.numVertices).filter(v => idx.vtype(v) == NodeType.User)

  for (rec <- PathRecommender.baselines) {
    test(s"${rec.name}: every user's top-10 list equals the reference's, at seeds 3 and 17") {
      val reference = ReferenceRecommenders.reference(rec)
      assert(users.size > 200)
      var nonEmpty = 0
      for (seed <- Seq(3L, 17L); u <- users) {
        val expected = reference(idx, u, 10, seed)
        assert(rec.recommend(idx, u, 10, seed) == expected, s"user vertex $u, seed $seed")
        if (expected.nonEmpty) nonEmpty += 1
      }
      assert(nonEmpty > users.size, s"only $nonEmpty non-empty lists")
    }
  }
}
