package perfbench

import org.apache.spark.ListenerDrain
import repro.core.Summarizer
import repro.eval.{Harness, Sampling, Scalability}
import repro.rec.Pgpr

import scala.collection.mutable.ArrayBuffer

/** One `Harness.run` with the Spark task counters of its jobs. */
final case class Iteration(out: Harness.Output, wallS: Double, tasks: Long, taskRunMs: Long,
                           taskGcMs: Long, shuffleBytes: Long, batchStageMs: Long)

final case class HarnessPhase(iters: Seq[Iteration], wallS: Double, allocBytes: Long,
                              gcCount: Long, gcMs: Long) {
  def rows: Seq[Harness.MetricRow] = iters.flatMap(_.out.rows)
}

/** harness-grid: the §V experiment path, `Harness.run` for PGPR on a
  * reduced grid, with summaries fanned out over `local[Cores]` executors.
  */
object HarnessGrid {
  def config(seed: Long): Harness.Config = Harness.Config(
    kSet = Seq(1, 5, 10), usersPerGender = 5, itemsHalf = 3, spreadUserPool = 60,
    maxUsersPerItem = 10, groupSize = 5, itemGroupSize = 3, seed = seed)

  /** Sampled users whose user-centric summaries the traced run replays on
    * the driver (all of them would double the traced run's length).
    */
  val ReplayUsers = 4

  def run(w: World, cfg: Harness.Config, check: Checker, expected: Option[String],
          tracer: Option[Tracer]): Iteration = {
    val sc = w.spark.sparkContext
    ListenerDrain(sc)
    w.listener.reset()
    val t0 = System.nanoTime()
    val out = tracer match {
      case None     => Harness.run(w.spark, w.kg, w.idx, new Pgpr, cfg)
      case Some(tr) => tr.span("eval.harness")(Harness.run(w.spark, w.kg, w.idx, new Pgpr, cfg))()
    }
    val wall = (System.nanoTime() - t0) / 1e9
    ListenerDrain(sc)
    val l = w.listener
    out.rows.foreach(check.row)
    check.fingerprint("harness-grid", fingerprint(out), expected)
    Iteration(out, wall, l.tasks, l.runMs, l.gcMs, l.shuffleBytes, l.batchStageMs)
  }

  /** Closed loop of `Harness.run` calls; stops before a call that would
    * end more than half a call past `seconds`.
    */
  def phase(w: World, cfg: Harness.Config, seconds: Double, check: Checker,
            expected: Option[String], tracer: Option[Tracer]): (HarnessPhase, Seq[Sample]) = {
    val iters = ArrayBuffer.empty[Iteration]
    val replays = ArrayBuffer.empty[Sample]
    val alloc0 = Meter.allThreadsAlloc()
    val (gn0, gm0) = Meter.gc()
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (iters.isEmpty || elapsed + iters.last.wallS / 2 < seconds) {
      val it = run(w, cfg, check, expected, tracer)
      iters += it
      tracer.foreach(tr => replays ++= replay(w, tr, cfg, it, check))
    }
    val wall = elapsed
    val (gn1, gm1) = Meter.gc()
    (HarnessPhase(iters.toSeq, wall, Meter.allocatedBetween(alloc0, Meter.allThreadsAlloc()),
      gn1 - gn0, gm1 - gm0), replays.toSeq)
  }

  /** Replays the harness's layer calls from outside: user sampling, the
    * recommender over the harness's pool, and the user-centric scenarios
    * of the first sampled users, traced on the driver. Each replayed
    * summary must match the harness row of the same scenario.
    */
  private def replay(w: World, tr: Tracer, cfg: Harness.Config, it: Iteration,
                     check: Checker): Seq[Sample] = {
    val (males, females) = tr.span("eval.sample_users")(Sampling.sampleUsers(w.kg, cfg.usersPerGender))()
    val sampled = males ++ females
    val pool = (sampled ++ Sampling.spreadUsers(w.kg.nUsers, cfg.spreadUserPool)).distinct
    val top = Driver.recommend(w, tr, pool, cfg.seed)
    val tasks = tr.span("eval.scenarios") {
      for {
        u <- sampled.take(ReplayUsers)
        (s, _, k) <- Scalability.kScenarios(top, u, cfg.kSet)
        m <- cfg.methods if m != Summarizer.Paths
      } yield Task(s"${s.id}|k=$k|${m.label}", s, m, k)
    }(t => Map("summaries" -> t.size.toDouble))
    val edges = it.out.rows.map(r => (r.scenarioId, r.method, r.k) -> r.edges).toMap
    tasks.map { t =>
      val s = Driver.traced(w.idx, tr, t, check)
      check.summary(t.key, w.idx, t.method, s.result.subgraph)
      check.replay(t.key + " (harness row)",
        edges.get((t.scenario.id, t.method.label, t.k)).contains(s.result.subgraph.edges.length))
      s
    }
  }

  /** Every metric row and consistency row, timing excluded. */
  def fingerprint(o: Harness.Output): String = Checker.fingerprint(
    o.rows.map(r => Seq(r.family, r.scenarioId, s"k=${r.k}", r.method, r.edges, r.nodes,
      r.comprehensibility, r.actionability, r.diversity, r.redundancy, r.relevance,
      r.privacy, r.memMb).mkString("|")) ++
    o.consistency.map(c => Seq(c.family, c.scenarioId, c.method, c.consistency).mkString("|")))
}
