package repro.rec

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.graph.CompactGraph
import repro.kg.KgIndex

/** A recommender that outputs top-k item recommendations *with* path-based
  * explanations over the knowledge-based graph — the interface all four
  * simulated baselines (PGPR, CAFE, PLM, PEARLM) implement.
  *
  * The paper's summarizers are recommender-agnostic: they consume only the
  * emitted paths (§II "our approach is compatible with any recommendation
  * method that outputs explanation paths").
  */
trait PathRecommender extends Serializable {
  def name: String

  /** Top-`k` recommendations for the user at vertex index `userIdx`, each
    * with its explanation path, ranked best-first. Deterministic in
    * (graph, user, seed). Returns fewer than `k` paths when the user's
    * 3-hop neighbourhood cannot support `k` distinct unrated items.
    */
  def recommend(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath]
}

object PathRecommender {
  /** All baselines used in the paper's evaluation. */
  def baselines: Seq[PathRecommender] = Seq(new Pgpr, new Cafe, new Plm, new Pearlm)

  /** Compute top-k lists for many users in parallel: the graph index is
    * broadcast once, users fan out over executors (DESIGN.md §3).
    */
  def recommendBatch(sc: SparkContext, kgB: Broadcast[KgIndex], rec: PathRecommender,
                     userIds: Seq[Long], k: Int, seed: Long): Map[Long, Seq[ExplanationPath]] = {
    val parallelism = math.max(1, math.min(userIds.size, sc.defaultParallelism * 2))
    sc.parallelize(userIds, parallelism)
      .flatMap { uid =>
        val kg = kgB.value
        if (!kg.graph.contains(uid)) None
        else Some(uid -> rec.recommend(kg, kg.graph.indexOf(uid), k, seed))
      }
      .collect()
      .toMap
  }

  /** The simulators' shared last step: from the best-scoring path per
    * candidate item (vertex indices from the user to the item, and its
    * score), the top `k` items by (−score, item), ranked from 1.
    */
  private[rec] def topK(g: CompactGraph, best: Iterable[(Int, (Seq[Int], Double))],
                        k: Int): Seq[ExplanationPath] =
    best.toSeq
      .sortBy { case (item, (_, score)) => (-score, item) }
      .take(k)
      .zipWithIndex
      .map { case ((_, (path, _)), i) =>
        val nodes = path.map(g.ids(_)).toVector
        ExplanationPath(nodes.head, nodes.last, i + 1, nodes)
      }
}
