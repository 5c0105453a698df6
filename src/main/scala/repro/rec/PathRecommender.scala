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

  /** The best-scoring path per candidate item of one `recommend` call, and
    * the simulators' shared last step that ranks them.
    */
  private[rec] final class BestPaths {
    private val best = scala.collection.mutable.HashMap.empty[Int, (Seq[Int], Double)]

    /** Keeps `path` (vertex indices from the user to `item`) if it is the
      * first offered for `item` or scores strictly higher than the kept one.
      */
    def offer(item: Int, path: Seq[Int], score: Double): Unit = {
      val cur = best.get(item)
      if (cur.isEmpty || cur.get._2 < score) best(item) = (path, score)
    }

    /** The top `k` items by (−score, item), ranked from 1. */
    def topK(g: CompactGraph, k: Int): Seq[ExplanationPath] =
      best.toSeq
        .sortBy { case (item, (_, score)) => (-score, item) }
        .take(k)
        .zipWithIndex
        .map { case ((_, (path, _)), i) =>
          val nodes = path.map(g.ids(_)).toVector
          ExplanationPath(nodes.head, nodes.last, i + 1, nodes)
        }
  }
}
