package repro.rec

import repro.SparkSpec
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeType}

/** Golden fingerprint of the four simulated recommenders: any change to a
  * recommender's search, sampling, scoring or ranking that alters one of
  * the ordered top-10 lists below changes the hash.
  */
class GoldenRecommenderSpec extends SparkSpec {

  /** MD5 of every (recommender, user) top-10 list of the grid below, in
    * rank order, recorded before the recommenders' knobs became constants
    * and their ranking tail was shared.
    */
  private val Golden = "0595d6d8a078bcac9a8948ac8ed845b8"

  private lazy val idx = KgIndex.fromKGraph(KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05)))

  /** Twelve users spread evenly over the ML1M-sim user vertices. */
  private lazy val users: Seq[Int] = {
    val g = idx.graph
    val all = (0 until g.numVertices).filter(v => idx.vtype(v) == NodeType.User && g.degree(v) >= 1)
    val step = all.length / 12
    (0 until 12).map(i => all(i * step))
  }

  private val recs = Seq(new Pgpr, new Cafe, new Plm, new Pearlm)

  test("PGPR, CAFE, PLM and PEARLM top-10 paths match the recorded fingerprint") {
    val lines = for (rec <- recs; u <- users; p <- rec.recommend(idx, u, 10, seed = 3L))
      yield s"${rec.name}|${p.user}|${p.rank}|${p.item}|${p.nodes.mkString("-")}"
    assert(recs.forall(rec => lines.exists(_.startsWith(rec.name + "|"))))
    val md = java.security.MessageDigest.getInstance("MD5")
    lines.foreach(l => md.update((l + "\n").getBytes("UTF-8")))
    val hash = md.digest().map(b => f"$b%02x").mkString
    info(s"${lines.size} paths, fingerprint $hash")
    assert(hash == Golden)
  }
}
