package repro.rec

import repro.kg.{KgIndex, NodeType}

/** Shared machinery of the two language-model path-generation baselines.
  *
  * PLM-Rec (Geng et al., WWW'22) autoregressively *generates* explanation
  * paths token-by-token; generated hops follow the corpus distribution and
  * may not exist in the static KG ("novel paths beyond the KG topology").
  * PEARLM (Balloccu et al., 2023) constrains decoding so every generated
  * hop is a real KG edge ("faithful").
  *
  * The simulators reproduce exactly these two properties: a seeded
  * type-constrained sampler draws U→I→X→I paths from popularity-skewed
  * distributions; with hallucination probability η > 0 a hop is sampled
  * from the *global* popularity distribution of the target node type
  * instead of the actual neighbour list (PLM), with η = 0 every hop is a
  * KG edge (PEARLM). Deterministic in (user, seed).
  */
abstract class LmPathRecommender(val eta: Double) extends PathRecommender {

  override def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val rated = kg.ratedItemSet(userIdx)
    val ratedArr = kg.ratedItems(userIdx)
    if (ratedArr.isEmpty) return Seq.empty
    val rng = new scala.util.Random(seed * 1_000_003L + userIdx)

    val best = scala.collection.mutable.HashMap.empty[Int, (Vector[Int], Double)]

    var s = 0
    while (s < LmPathRecommender.Samples) {
      // Hop 1: a rated item, weight-proportional (the LM has seen the
      // user's high-rating interactions most often).
      val i1 = weightedRated(g, ratedArr, rng)
      // Hop 2: a mid node (user or external).
      val mid = nextNode(kg, i1, Set(NodeType.User, NodeType.External), rng, exclude = userIdx)
      mid.foreach { x =>
        // Hop 3: an item.
        val i2 = nextNode(kg, x, Set(NodeType.Item), rng, exclude = i1)
        i2.foreach { item =>
          if (!rated.contains(item) && kg.vtype(item) == NodeType.Item) {
            val score = math.log1p(g.degree(i1).toDouble) +
              math.log1p(g.degree(x).toDouble) + math.log1p(g.degree(item).toDouble)
            val cur = best.get(item)
            if (cur.isEmpty || cur.get._2 < score)
              best(item) = (Vector(userIdx, i1, x, item), score)
          }
        }
      }
      s += 1
    }

    PathRecommender.topK(g, best, k)
  }

  private def weightedRated(g: repro.graph.CompactGraph,
                            rated: Array[(Int, Int)], rng: scala.util.Random): Int = {
    val total = rated.iterator.map { case (_, e) => g.edgeWeight(e) + 0.1 }.sum
    var r = rng.nextDouble() * total
    var i = 0
    while (i < rated.length - 1) {
      r -= g.edgeWeight(rated(i)._2) + 0.1
      if (r <= 0) return rated(i)._1
      i += 1
    }
    rated.last._1
  }

  /** Sample the next node of an allowed type: a hallucinated hop (global
    * popularity, no edge required) with probability η, else a uniform draw
    * from the actual typed neighbour list.
    */
  private def nextNode(kg: KgIndex, v: Int, types: Set[Byte],
                       rng: scala.util.Random, exclude: Int): Option[Int] = {
    if (eta > 0 && rng.nextDouble() < eta) {
      // Quadratic skew toward the popular end of the chosen type's ranking
      // — LM token frequency follows corpus popularity.
      val t = types.toSeq.sorted.apply(rng.nextInt(types.size))
      val pool = kg.byPopularity(t)
      if (pool.isEmpty) None
      else {
        val idx = math.min(pool.length - 1, (rng.nextDouble() * rng.nextDouble() * pool.length).toInt)
        Some(pool(idx)).filter(_ != exclude)
      }
    } else {
      val buf = scala.collection.mutable.ArrayBuffer.empty[Int]
      kg.foreachNeighbor(v) { (u, _) => if (types.contains(kg.vtype(u)) && u != exclude) buf += u }
      if (buf.isEmpty) None else Some(buf(rng.nextInt(buf.length)))
    }
  }
}

object LmPathRecommender {
  /** U→I→X→I paths drawn per user. */
  final val Samples = 300
}

/** Simulated PLM-Rec: η = 0.3 of hops are generated beyond the KG topology. */
final class Plm extends LmPathRecommender(eta = 0.3) { override def name: String = "plm" }

/** Simulated PEARLM: the same language-model sampler, decoding constrained
  * to true KG edges (η = 0).
  */
final class Pearlm extends LmPathRecommender(eta = 0.0) { override def name: String = "pearlm" }
