package repro.eval

import org.apache.spark.sql.functions._
import repro.kg.{KGraph, NodeIds}

/** The paper's user sampling (§V-A): 100 male + 100 female users
  * "preserving the original rating distribution", plus the wider user pool
  * of the item-centric scenarios. The item sample (the 50 most and 50 least
  * popular items) needs the recommenders' output, so `Harness.run` draws it.
  */
object Sampling {

  /** Per-gender stratified sample: users are ranked by rating count and
    * picked at evenly spaced ranks, which preserves the activity
    * distribution instead of biasing toward heavy raters. Returns
    * (males, females) as node ids.
    */
  def sampleUsers(kg: KGraph, perGender: Int): (Seq[Long], Seq[Long]) = {
    val counts = kg.edges.filter(col("etype") === "user-item")
      .groupBy(col("src") as "id").agg(count(lit(1)) as "n")
    val ranked = kg.nodes.filter(col("ntype") === "user")
      .join(counts, Seq("id"), "inner") // users with no ratings have no paths to summarize
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

  /** Evenly spread `n` user node ids over the population — the wider pool
    * whose top-k lists define C_i for item-centric scenarios.
    */
  def spreadUsers(nUsers: Int, n: Int): Seq[Long] = {
    val take = math.min(n, nUsers)
    val step = nUsers.toDouble / take
    (0 until take).map(i => NodeIds.user(1 + (i * step).toLong))
  }
}
