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
  import LmPathRecommender._

  override def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val rated = kg.ratedItems(userIdx)
    if (rated.isEmpty) return Seq.empty
    val rng = new scala.util.Random(seed * 1_000_003L + userIdx)
    // Each rated item's draw weight, and their total, summed in rank order.
    val weights = rated.map(a => g.edgeWeight(g.arcEdge(a)) + 0.1)
    var total = 0.0
    weights.foreach(total += _)

    val best = new PathRecommender.BestPaths
    val path = Array(userIdx, 0, 0, 0)

    var s = 0
    while (s < Samples) {
      // Hop 1: a rated item, weight-proportional (the LM has seen the
      // user's high-rating interactions most often).
      val i1 = g.arcTarget(rated(weightedRated(weights, total, rng)))
      // Hop 2: a mid node (user or external).
      val x = nextNode(kg, i1, MidTypes, rng, exclude = userIdx)
      if (x >= 0) {
        // Hop 3: an item.
        val item = nextNode(kg, x, ItemTypes, rng, exclude = i1)
        if (item >= 0 && kg.edgeId(userIdx, item) < 0) {
          val score = math.log1p(g.degree(i1).toDouble) +
            math.log1p(g.degree(x).toDouble) + math.log1p(g.degree(item).toDouble)
          path(1) = i1; path(2) = x; path(3) = item
          best.offer(path, 0, 4, score)
        }
      }
      s += 1
    }

    best.topK(g, k)
  }

  /** The rank of a rated item drawn with probability proportional to its
    * weight; `total` is the sum of `weights`.
    */
  private def weightedRated(weights: Array[Double], total: Double, rng: scala.util.Random): Int = {
    var r = rng.nextDouble() * total
    var i = 0
    while (i < weights.length - 1) {
      r -= weights(i)
      if (r <= 0) return i
      i += 1
    }
    weights.length - 1
  }

  /** Sample the next node of one of the node types `types` (ascending): a
    * hallucinated hop (global popularity, no edge required) with
    * probability η, else a uniform draw from the actual typed neighbours of
    * `v` other than `exclude`, counted first and then walked to. Returns −1
    * for no node.
    */
  private def nextNode(kg: KgIndex, v: Int, types: Array[Byte],
                       rng: scala.util.Random, exclude: Int): Int = {
    if (eta > 0 && rng.nextDouble() < eta) {
      // Quadratic skew toward the popular end of the chosen type's ranking
      // — LM token frequency follows corpus popularity.
      val pool = kg.byPopularity(types(rng.nextInt(types.length)))
      if (pool.isEmpty) -1
      else {
        val node = pool(math.min(pool.length - 1, (rng.nextDouble() * rng.nextDouble() * pool.length).toInt))
        if (node == exclude) -1 else node
      }
    } else {
      val g = kg.graph
      def allowed(u: Int): Boolean = {
        var i = 0
        while (i < types.length && types(i) != kg.vtype(u)) i += 1
        i < types.length && u != exclude
      }
      var count = 0
      var a = g.offsets(v)
      while (a < g.offsets(v + 1)) { if (allowed(g.arcTarget(a))) count += 1; a += 1 }
      if (count == 0) -1
      else {
        // The allowed neighbours still to pass, the drawn one included.
        var r = rng.nextInt(count) + 1
        a = g.offsets(v) - 1
        while (r > 0) { a += 1; if (allowed(g.arcTarget(a))) r -= 1 }
        g.arcTarget(a)
      }
    }
  }
}

object LmPathRecommender {
  /** U→I→X→I paths drawn per user. */
  final val Samples = 300

  /** The node types of hop 2 and of hop 3, ascending. */
  private val MidTypes = Array(NodeType.User, NodeType.External)
  private val ItemTypes = Array(NodeType.Item)
}

/** Simulated PLM-Rec: η = 0.3 of hops are generated beyond the KG topology. */
final class Plm extends LmPathRecommender(eta = 0.3) { override def name: String = "plm" }

/** Simulated PEARLM: the same language-model sampler, decoding constrained
  * to true KG edges (η = 0).
  */
final class Pearlm extends LmPathRecommender(eta = 0.0) { override def name: String = "pearlm" }
