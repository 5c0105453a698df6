package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{Scenario, Summarizer, UserCentric, UserGroup}
import repro.kg.KgIndex
import repro.rec.{ExplanationPath, PathRecommender}

/** The performance experiments: Figs 9–10 (runtime/memory vs k and group
  * size on ML1M) and Fig 11 / Table III (runtime vs graph size on the
  * synthetic graphs, k = 10, user groups, random 3-hop paths "as in the
  * baselines").
  */
object Scalability {

  final case class PerfRow(graphNodes: Int, family: String, method: String,
                           groupSize: Int, k: Int, terminals: Int,
                           timeMs: Double, memMb: Double, edges: Int)

  /** The top-`k` explanation paths of `rec` for each of `users` that gets
    * any, computed on executors over a broadcast of `kgIdx` that is
    * destroyed before returning. Figs 9–10 run it with PGPR; Table III and
    * Fig 11 with PEARLM, whose sampler with uniform hops is the paper's
    * "random 3-hop paths" u → rated item → co-node → item (DESIGN.md §2).
    */
  def recommendedPaths(spark: SparkSession, kgIdx: KgIndex, rec: PathRecommender, users: Seq[Long],
                       k: Int, seed: Long): Map[Long, Seq[ExplanationPath]] = {
    val kgB = spark.sparkContext.broadcast(kgIdx)
    try PathRecommender.recommendBatch(spark.sparkContext, kgB, rec, users, k, seed)
    finally kgB.destroy()
  }

  /** Timed runs per (scenario, method), after one untimed warm-up run. */
  private val Reps = 5

  /** Time ST vs PCST on user-group scenarios of growing size (Fig 10) and
    * on user-centric scenarios of growing k (Fig 9). Each timing is the
    * median of `Reps` runs of `Summarizer.summarize` on the driver after a
    * warm-up run, so numbers are not confounded by task scheduling or by
    * the first run's JIT compilation and scratch growth.
    */
  def measure(kgIdx: KgIndex, scenarios: Seq[(Scenario, Int, Int)], // (scenario, groupSize, k)
              methods: Seq[Summarizer.Method]): Seq[PerfRow] = {
    for {
      (scenario, gs, k) <- scenarios
      method <- methods
    } yield {
      Summarizer.summarize(kgIdx, scenario, method, k)
      val runs = Seq.fill(Reps)(Summarizer.summarize(kgIdx, scenario, method, k))
      val med = runs.sortBy(_.timeNs).apply(Reps / 2)
      PerfRow(kgIdx.graph.numVertices, scenario.family, method.label, gs, k,
        scenario.terminals.length, med.timeNs / 1e6, med.memModelBytes / 1e6,
        med.subgraph.edges.length)
    }
  }

  /** User-group scenarios of growing size from a pool of users with paths. */
  def groupScenarios(topPaths: Map[Long, Seq[ExplanationPath]], groupSizes: Seq[Int],
                     k: Int): Seq[(Scenario, Int, Int)] = {
    val users = topPaths.keys.toSeq.sorted
    groupSizes.flatMap { gs =>
      val members = users.take(gs)
      val paths = members.flatMap(u => topPaths(u).take(k))
      if (paths.isEmpty || members.size < gs) None
      else Some((UserGroup(s"size$gs", members, paths), gs, k))
    }
  }

  /** User-centric scenarios of growing k for one user (Fig 9). */
  def kScenarios(topPaths: Map[Long, Seq[ExplanationPath]], user: Long,
                 kSet: Seq[Int]): Seq[(Scenario, Int, Int)] =
    kSet.flatMap { k =>
      val paths = topPaths.getOrElse(user, Seq.empty).take(k)
      if (paths.isEmpty) None else Some((UserCentric(user, paths), 1, k))
    }
}
