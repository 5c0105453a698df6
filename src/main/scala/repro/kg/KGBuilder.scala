package repro.kg

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Weighting parameters of the knowledge-based graph (§III of the paper).
  *
  * For a rated edge (u, i) with M[u,i] = (r, t):
  *   w_M(u, i) = β1·r + β2·f(t),   f(t) = e^{−γ·(t0 − t)}
  *
  * External edges (E_A) carry w_A; the paper's experiments use w_A = 0 so
  * results are comparable with the PGPR/CAFE/PEARLM baselines.
  *
  * @param beta1 importance of the rating score
  * @param beta2 importance of recency
  * @param gamma exponential decay rate of the recency function (per second)
  * @param t0    "current time" reference for recency (epoch seconds)
  * @param wA    constant relevance weight of external edges
  *
  * Construction rejects a negative γ (older interactions would weigh more) and
  * a non-finite γ, β1, β2 or w_A with an `IllegalArgumentException` naming
  * the field, on the driver, before any edge weight is computed.
  */
final case class KGParams(
    beta1: Double = 1.0,
    beta2: Double = 0.0,
    gamma: Double = 1.0 / (365.0 * 24 * 3600), // one-year e-fold by default
    t0: Long = 1_046_000_000L,                 // end of the ML1M rating window
    wA: Double = 0.0,
) {
  Seq("beta1" -> beta1, "beta2" -> beta2, "gamma" -> gamma, "wA" -> wA).foreach { case (field, v) =>
    require(java.lang.Double.isFinite(v), s"KGParams.$field must be finite, got $v")
  }
  require(gamma >= 0, s"KGParams.gamma must be >= 0, got $gamma")
}

/** Raw dataset tables before graph construction (the rating matrix M plus
  * the external-knowledge links extracted from the KG source).
  */
final case class DatasetTables(
    users: DataFrame,    // (user_id: long, gender: string)
    ratings: DataFrame,  // (user_id: long, item_id: long, rating: double, ts: long)
    itemExt: DataFrame,  // (item_id: long, ext_id: long)
    userExt: DataFrame,  // (user_id: long, ext_id: long)
)

/** Builds the knowledge-based graph of §III from a rating matrix and
  * external-knowledge link tables, as a pure DataFrame pipeline: building
  * runs no Spark job.
  */
object KGBuilder {

  /** Edge weight w_M as a Catalyst column expression over (rating, ts). */
  def wM(params: KGParams): org.apache.spark.sql.Column =
    lit(params.beta1) * col("rating") +
      lit(params.beta2) * exp(lit(-params.gamma) * (lit(params.t0.toDouble) - col("ts").cast("double")))

  def build(spark: SparkSession, tables: DatasetTables, params: KGParams = KGParams()): KGraph = {
    val userNodes = tables.users.select(col("user_id").cast("long") as "id", lit("user") as "ntype",
      col("gender"))
    val itemNodes = tables.ratings.select(col("item_id")).distinct()
      .union(tables.itemExt.select(col("item_id"))).distinct()
      .select((col("item_id") + NodeIds.ItemBase) as "id", lit("item") as "ntype",
              lit(null).cast("string") as "gender")
    val extNodes = tables.itemExt.select(col("ext_id"))
      .union(tables.userExt.select(col("ext_id"))).distinct()
      .select((col("ext_id") + NodeIds.ExternalBase) as "id", lit("external") as "ntype",
              lit(null).cast("string") as "gender")
    val nodes = userNodes.unionByName(itemNodes).unionByName(extNodes)

    val uiEdges = tables.ratings.select(
      col("user_id").cast("long") as "src",
      (col("item_id") + NodeIds.ItemBase) as "dst",
      lit("user-item") as "etype",
      col("rating").cast("double") as "rating",
      col("ts").cast("long") as "ts",
    ).withColumn("weight", wM(params))

    val ieEdges = tables.itemExt.select(
      (col("item_id") + NodeIds.ItemBase) as "src",
      (col("ext_id") + NodeIds.ExternalBase) as "dst",
      lit("item-external") as "etype",
      lit(null).cast("double") as "rating",
      lit(null).cast("long") as "ts",
      lit(params.wA) as "weight",
    )

    val ueEdges = tables.userExt.select(
      col("user_id").cast("long") as "src",
      (col("ext_id") + NodeIds.ExternalBase) as "dst",
      lit("user-external") as "etype",
      lit(null).cast("double") as "rating",
      lit(null).cast("long") as "ts",
      lit(params.wA) as "weight",
    )

    // Knowledge-layer edges first: the unweighted PCST growth breaks
    // equal-cost ties by edge order, and resolving them toward the entity
    // layer reproduces the paper's observation that PCST summaries lean on
    // item/external nodes rather than user nodes (§V-B7, privacy).
    val edges = ieEdges.unionByName(ueEdges).unionByName(uiEdges)

    KGraph(nodes, edges)
  }
}
