package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.kg.{KGraph, KgIndex, NodeType}
import repro.rec.{ExplanationPath, PathRecommender}

/** The experiment grid of §V: for a recommender's explanation paths, build
  * the four scenario families over the paper's samples, summarize each
  * with every method, and emit one metric row per summary.
  */
object Harness {

  /** The paper's λ values for ST. */
  private val Lambdas: Seq[Double] = Seq(0.01, 1.0, 100.0)

  /** User groups per k, cut from the male sample in order. */
  private val UserGroups = 2

  /** Sweep configuration. The paper's full grid is
    * kSet = 1..10, 100 users/gender, 50 items/half; benches shrink the
    * sample (never the algorithms) to fit the CI time budget and say so in
    * EXPERIMENTS.md. Every grid has two user groups and two item groups
    * (popular and unpopular), and runs the paths baseline, ST at the paper's
    * λ ∈ {0.01, 1, 100} and PCST at its default edge cost. A bad field (an
    * empty `kSet`, a repeated k, a k or a size below 1, a negative pool)
    * throws an `IllegalArgumentException` naming it.
    */
  final case class Config(
      kSet: Seq[Int] = 1 to 10,
      usersPerGender: Int = 100,
      itemsHalf: Int = 50,
      spreadUserPool: Int = 1000,
      maxUsersPerItem: Int = 25,
      groupSize: Int = 20,
      itemGroupSize: Int = 20,
      seed: Long = 17L,
  ) {
    require(kSet.nonEmpty && kSet.forall(_ >= 1) && kSet.distinct.size == kSet.size,
      s"Harness.Config.kSet must be non-empty and distinct, all k >= 1: $kSet")
    Seq("usersPerGender" -> usersPerGender, "itemsHalf" -> itemsHalf, "groupSize" -> groupSize,
        "itemGroupSize" -> itemGroupSize, "maxUsersPerItem" -> maxUsersPerItem)
      .foreach { case (field, v) => require(v >= 1, s"Harness.Config.$field must be >= 1, got $v") }
    require(spreadUserPool >= 0, s"Harness.Config.spreadUserPool must be >= 0, got $spreadUserPool")

    def methods: Seq[Summarizer.Method] =
      Summarizer.Paths +: Lambdas.map(Summarizer.ST) :+ Summarizer.PCST()
  }

  /** One summary's metrics, flattened for DataFrame aggregation. */
  final case class MetricRow(
      recommender: String, family: String, scenarioId: String, method: String, k: Int,
      comprehensibility: Double, actionability: Double, diversity: Double,
      redundancy: Double, relevance: Double, privacy: Double,
      edges: Int, nodes: Int, timeMs: Double, memMb: Double)

  /** Consistency is a cross-k metric: one row per (scenario, method). */
  final case class ConsistencyRow(
      recommender: String, family: String, scenarioId: String, method: String,
      consistency: Double)

  final case class Output(
      rows: Seq[MetricRow],
      consistency: Seq[ConsistencyRow],
      maleUsers: Seq[Long], femaleUsers: Seq[Long],
      popularItems: Seq[Long], unpopularItems: Seq[Long]) {

    def rowsDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      rows.toDF()
    }
    def consistencyDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      consistency.toDF()
    }
  }

  /** Run the full §V grid for one recommender over one knowledge graph. */
  def run(spark: SparkSession, kg: KGraph, kgIdx: KgIndex, rec: PathRecommender,
          cfg: Config): Output = {
    val sc = spark.sparkContext
    val kgB = sc.broadcast(kgIdx)
    try {
      val (males, females) = Sampling.sampleUsers(kg, cfg.usersPerGender)
      val sampledUsers = males ++ females
      val pool = (sampledUsers ++ Sampling.spreadUsers(kg.nUsers, cfg.spreadUserPool)).distinct

      val kMax = cfg.kSet.max
      val topPaths: Map[Long, Seq[ExplanationPath]] =
        PathRecommender.recommendBatch(sc, kgB, rec, pool, kMax, cfg.seed)

      // Item sample: the paper's 50 most / 50 least popular items. An
      // item-centric summary needs a non-empty audience C_i, so the halves
      // are drawn from the items the recommender actually serves to the pool,
      // ranked by catalog popularity (rating count: degree to users).
      val recommendedByPop = topPaths.values.flatten.map(_.item).toSeq.distinct
        .sortBy(i => (-KgIndex.typedDegree(kgIdx.graph, kgIdx.graph.indexOf(i), NodeType.User), i))
      val popItems = recommendedByPop.take(cfg.itemsHalf)
      val unpopItems = recommendedByPop.reverse.take(cfg.itemsHalf)
        .filterNot(popItems.contains)

      val scenarios = buildScenarios(cfg, sampledUsers, popItems ++ unpopItems,
        males, popItems, unpopItems, topPaths)

      val tasks = for {
        (k, scenario) <- scenarios
        method <- cfg.methods
      } yield (scenario, method, k)

      val results = Summarizer.summarizeBatch(sc, kgB, tasks)

      val rows = results.map(r => toRow(rec.name, r))
      val consistency = results
        .groupBy(r => (r.scenarioId, r.family, r.method))
        .map { case ((sid, fam, m), rs) =>
          val byK = rs.sortBy(_.k).map(_.subgraph)
          ConsistencyRow(rec.name, fam, sid, m, Metrics.consistency(byK))
        }
        .toSeq
      Output(rows, consistency, males, females, popItems, unpopItems)
    } finally kgB.destroy()
  }

  /** All (k, scenario) pairs of the grid. */
  private[eval] def buildScenarios(cfg: Config,
                             sampledUsers: Seq[Long], sampledItems: Seq[Long],
                             males: Seq[Long], popItems: Seq[Long], unpopItems: Seq[Long],
                             topPaths: Map[Long, Seq[ExplanationPath]]): Seq[(Int, Scenario)] = {
    val poolPaths = topPaths.toSeq.sortBy(_._1)

    cfg.kSet.flatMap { k =>
      val userCentric = sampledUsers.flatMap { u =>
        val paths = topPaths.getOrElse(u, Seq.empty).take(k)
        if (paths.isEmpty) None else Some(k -> UserCentric(u, paths))
      }

      // C_i: users from the wider pool whose top-k contains item i.
      val byItem = poolPaths
        .flatMap { case (_, ps) => ps.filter(_.rank <= k) }
        .groupBy(_.item)
      val itemCentric = sampledItems.flatMap { i =>
        byItem.get(i).map(_.take(cfg.maxUsersPerItem)).filter(_.nonEmpty)
          .map(paths => k -> ItemCentric(i, paths))
      }

      val userGroups = males.grouped(cfg.groupSize).take(UserGroups).zipWithIndex.flatMap {
        case (members, gi) =>
          val paths = members.flatMap(u => topPaths.getOrElse(u, Seq.empty).take(k))
          if (paths.isEmpty) None else Some(k -> UserGroup(s"g$gi", members, paths))
      }

      val itemGroups = Seq("pop" -> popItems.take(cfg.itemGroupSize),
                           "unpop" -> unpopItems.take(cfg.itemGroupSize))
        .flatMap { case (tag, items) =>
          val paths = items.sorted.flatMap(i => byItem.getOrElse(i, Nil).take(cfg.maxUsersPerItem))
          if (paths.isEmpty) None else Some(k -> ItemGroup(tag, items, paths))
        }

      userCentric ++ itemCentric ++ userGroups ++ itemGroups
    }
  }

  def toRow(rec: String, r: Summarizer.Result): MetricRow = {
    val s = r.subgraph
    MetricRow(
      recommender = rec, family = r.family, scenarioId = r.scenarioId,
      method = r.method, k = r.k,
      comprehensibility = Metrics.comprehensibility(s),
      actionability = Metrics.actionability(s),
      diversity = Metrics.diversity(s),
      redundancy = Metrics.redundancy(s),
      relevance = Metrics.relevance(s),
      privacy = Metrics.privacy(s),
      edges = s.edges.length, nodes = s.nodes.length,
      timeMs = r.timeNs / 1e6, memMb = r.memModelBytes / 1e6)
  }
}
