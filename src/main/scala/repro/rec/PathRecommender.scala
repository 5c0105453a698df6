package repro.rec

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import repro.graph.{CompactGraph, IndexSort}
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
    * the simulators' shared last step that ranks them. Paths are rows of at
    * most [[BestPaths.Width]] vertex indices in primitive arrays, found by
    * item through an open-addressing table; nothing is boxed per offer.
    */
  private[rec] final class BestPaths {
    import BestPaths.Width

    // Slot s holds item `items(s)`, its score and the `lens(s)` vertices of
    // its path at `paths(s * Width)`; slots are in first-offer order.
    private var items = new Array[Int](32)
    private var scores = new Array[Double](32)
    private var lens = new Array[Int](32)
    private var paths = new Array[Int](32 * Width)
    private var size = 0
    // Item → slot by linear probing, −1 for empty; twice the slot capacity.
    private var slotOf = Array.fill(64)(-1)

    /** Keeps the path `path(from until from + len)` (vertex indices from the
      * user to the item at its end) if it is the first offered for its item
      * or scores strictly higher than the kept one.
      */
    def offer(path: Array[Int], from: Int, len: Int, score: Double): Unit = {
      val item = path(from + len - 1)
      val at = probe(item)
      var s = slotOf(at)
      if (s < 0) {
        if (size == items.length) grow()
        s = size
        size += 1
        items(s) = item
        slotOf(probe(item)) = s
      } else if (!(scores(s) < score)) return
      scores(s) = score
      lens(s) = len
      System.arraycopy(path, from, paths, s * Width, len)
    }

    /** The position of `item` in `slotOf`, or of the empty entry it would take. */
    private def probe(item: Int): Int = {
      val mask = slotOf.length - 1
      var at = scala.util.hashing.byteswap32(item) & mask
      while (slotOf(at) >= 0 && items(slotOf(at)) != item) at = (at + 1) & mask
      at
    }

    private def grow(): Unit = {
      val cap = 2 * items.length
      items = java.util.Arrays.copyOf(items, cap)
      scores = java.util.Arrays.copyOf(scores, cap)
      lens = java.util.Arrays.copyOf(lens, cap)
      paths = java.util.Arrays.copyOf(paths, cap * Width)
      slotOf = Array.fill(2 * cap)(-1)
      var s = 0
      while (s < size) { slotOf(probe(items(s))) = s; s += 1 }
    }

    /** The top `k` items by (−score, item), ranked from 1, as a `List`: a
      * summary walks its paths with one iterator, which costs least on a
      * `List`.
      */
    def topK(g: CompactGraph, k: Int): Seq[ExplanationPath] = {
      val negScore = new Array[Double](size)
      val item = new Array[Double](size)
      var s = 0
      while (s < size) { negScore(s) = -scores(s); item(s) = items(s); s += 1 }
      val order = IndexSort.byKeys(negScore, item, size)
      List.tabulate(math.min(k, size)) { r =>
        val slot = order(r)
        val nodes = Vector.tabulate(lens(slot))(i => g.ids(paths(slot * Width + i)))
        ExplanationPath(nodes.head, nodes.last, r + 1, nodes)
      }
    }
  }

  private[rec] object BestPaths {
    /** The most vertices of a path: a user and three hops. */
    final val Width = 4
  }
}
