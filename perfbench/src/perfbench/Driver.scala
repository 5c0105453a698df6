package perfbench

import repro.core._
import repro.eval.{Harness, Sampling, Scalability}
import repro.graph.EdgeCost
import repro.kg.KgIndex
import repro.rec.{ExplanationPath, PathRecommender, Pgpr}

import scala.collection.mutable.ArrayBuffer

/** One summary the driver computes. `key` names it uniquely in a run. */
final case class Task(key: String, scenario: Scenario, method: Summarizer.Method, k: Int)

/** One `Summarizer.summarize` call: wall time and calling-thread allocation. */
final case class Sample(task: Task, ms: Double, allocBytes: Long, result: Summarizer.Result)

/** A timed phase: its cycles (samples and wall seconds of each pass over
  * the tasks) plus JVM-wide allocation and GC over it.
  */
final case class Phase(cycles: Seq[(Seq[Sample], Double)], wallS: Double, allocBytes: Long,
                       gcCount: Long, gcMs: Long) {
  def samples: Seq[Sample] = cycles.flatMap(_._1)
}

/** The two driver-thread workloads: closed loops of `Summarizer.summarize`
  * calls, one caller, no Spark work while timing.
  */
object Driver {
  val KSweep = Seq(1, 2, 4, 6, 8, 10)
  val UcMethods: Seq[Summarizer.Method] =
    Seq(Summarizer.ST(0.01), Summarizer.ST(1.0), Summarizer.ST(100.0), Summarizer.PCST())
  val UcUsers = 12
  /** Disjoint groups of each size Fig 10 plots, from a pool of their total. */
  val GroupSizes: Seq[Int] = Seq(20, 20, 40, 80)
  val GroupMethods: Seq[Summarizer.Method] = Seq(Summarizer.ST(1.0), Summarizer.PCST())
  /** Users spread evenly over the population; the seed picks from it. */
  val PoolSize = 240

  /** uc-ksweep: k-sweeps of user-centric scenarios for seed-chosen users. */
  def ucKsweep(w: World, tr: Tracer, seed: Long): IndexedSeq[Task] = {
    val rng = new scala.util.Random(seed)
    val candidates = tr.span("eval.sample_users")(
      rng.shuffle(Sampling.spreadUsers(w.kg.nUsers, PoolSize)).take(UcUsers + 16))()
    val top = recommend(w, tr, candidates, seed)
    tr.span("eval.scenarios") {
      val users = candidates.filter(u => top.get(u).exists(_.size == KSweep.max)).take(UcUsers)
      val tasks = for {
        u <- users
        (s, _, k) <- Scalability.kScenarios(top, u, KSweep)
        m <- UcMethods
      } yield Task(s"${s.id}|k=$k|${m.label}", s, m, k)
      rng.shuffle(tasks).toIndexedSeq
    }(t => Map("summaries" -> t.size.toDouble))
  }

  /** user-group: the seed picks users from the spread pool and partitions
    * them into disjoint groups.
    */
  def userGroup(w: World, tr: Tracer, seed: Long): IndexedSeq[Task] = {
    val rng = new scala.util.Random(seed)
    val pool = tr.span("eval.sample_users")(
      rng.shuffle(Sampling.spreadUsers(w.kg.nUsers, PoolSize)).take(GroupSizes.sum))()
    val top = recommend(w, tr, pool, seed)
    tr.span("eval.scenarios") {
      val starts = GroupSizes.scanLeft(0)(_ + _)
      val tasks = GroupSizes.indices.flatMap { gi =>
        val members = pool.slice(starts(gi), starts(gi) + GroupSizes(gi)).toSet
        Scalability.groupScenarios(top.filter(p => members(p._1)), Seq(GroupSizes(gi)), KSweep.max)
          .flatMap { case (s, _, k) =>
            GroupMethods.map(m => Task(s"g$gi/${s.id}|k=$k|${m.label}", s, m, k))
          }
      }
      rng.shuffle(tasks).toIndexedSeq
    }(t => Map("summaries" -> t.size.toDouble))
  }

  def recommend(w: World, tr: Tracer, users: Seq[Long], seed: Long): Map[Long, Seq[ExplanationPath]] =
    tr.span("rec.recommend")(
      PathRecommender.recommendBatch(w.spark.sparkContext, w.kgB, new Pgpr, users, KSweep.max, seed))(
      m => Map("users" -> m.size.toDouble, "paths" -> m.valuesIterator.map(_.size).sum.toDouble))

  /** Run whole cycles of the tasks, in order, stopping at the cycle end
    * nearest to `seconds`, so every run of a seed does the same work. With
    * a tracer, every call is traced and its kernels are replayed.
    */
  def phase(w: World, tasks: IndexedSeq[Task], seconds: Double, check: Checker,
            tracer: Option[Tracer]): Phase = {
    val cycles = ArrayBuffer.empty[(Seq[Sample], Double)]
    val alloc0 = Meter.allThreadsAlloc()
    val (gn0, gm0) = Meter.gc()
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (cycles.isEmpty || elapsed + cycles.last._2 / 2 < seconds) {
      val c0 = elapsed
      val cycle = tasks.map { task =>
        val s = tracer match {
          case None     => summarize(w.idx, task)
          case Some(tr) => traced(w.idx, tr, task, check)
        }
        check.summary(task.key, w.idx, task.method, s.result.subgraph)
        s
      }
      cycles += ((cycle, elapsed - c0))
    }
    val wall = elapsed
    val (gn1, gm1) = Meter.gc()
    Phase(cycles.toSeq, wall, Meter.allocatedBetween(alloc0, Meter.allThreadsAlloc()), gn1 - gn0, gm1 - gm0)
  }

  /** Untimed, for the JIT: run tasks in order until `seconds` pass and
    * every method has run at least three times.
    */
  def warmUp(w: World, tasks: IndexedSeq[Task], seconds: Double): Unit = {
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val runs = scala.collection.mutable.Map(tasks.map(_.method.label -> 0): _*)
    var i = 0
    while (System.nanoTime() < deadline || runs.values.exists(_ < 3)) {
      val t = tasks(i % tasks.length)
      summarize(w.idx, t)
      runs(t.method.label) += 1
      i += 1
    }
  }

  def summarize(idx: KgIndex, task: Task): Sample = {
    val a0 = Meter.threadAlloc()
    val t0 = System.nanoTime()
    val r = Summarizer.summarize(idx, task.scenario, task.method, task.k)
    val t1 = System.nanoTime()
    Sample(task, (t1 - t0) / 1e6, Meter.threadAlloc() - a0, r)
  }

  /** One traced summary: the `summarize` call, the outside replay of its
    * kernel phases (checked against it), and the harness's metric row.
    */
  def traced(idx: KgIndex, tr: Tracer, task: Task, check: Checker): Sample = {
    tr.summary += 1
    tr.span("summary") {
      val r = tr.span("core.summarize")(Summarizer.summarize(idx, task.scenario, task.method, task.k))(
        r => Map("edges" -> r.subgraph.edges.length.toDouble, "mem_model_bytes" -> r.memModelBytes.toDouble))
      val s = tr.spans.last
      check.replay(task.key, Replay(idx, tr, task, r))
      tr.span("core.metrics")(Harness.toRow("pgpr", r))()
      Sample(task, s.ms, s.allocBytes, r)
    }()
  }

  /** Consistency across k of each (scenario, method), as the harness computes it. */
  def consistency(tr: Tracer, samples: Seq[Sample]): Unit =
    samples.groupBy(s => s.task.key.replaceAll("\\|k=\\d+", "")).values.foreach { ss =>
      val byK = ss.groupBy(_.task.k).toSeq.sortBy(_._1).map(_._2.head.result.subgraph)
      tr.span("core.consistency")(Metrics.consistency(byK))()
    }
}

/** Replays the phases of `Summarizer.summarize` from outside, through the
  * same public calls: terminal lookup, the Eq. (1) overlay and cost oracle
  * (from `kg.maxBaseWeight` and `Summarizer.Delta`), each SSSP or the
  * Voronoi pass, and the kernel itself. Returns whether the kernel's edge
  * set equals the summary's, so the replayed oracle cannot drift.
  */
object Replay {
  def apply(idx: KgIndex, tr: Tracer, task: Task, r: Summarizer.Result): Boolean = {
    val g = idx.graph
    val s = task.scenario
    val terms = s.terminals.filter(g.contains).map(g.indexOf).distinct
    val counts = (t: TreeResult) =>
      Map("edges" -> t.edgeIds.length.toDouble, "terminals" -> terms.length.toDouble)
    val tree = task.method match {
      case Summarizer.ST(lambda) =>
        val overlay = tr.span("core.overlay")(WeightAdjust.overlay(idx, s.paths, s.anchors, lambda))(
          o => Map("edges" -> o.size.toDouble))
        var wMax = idx.maxBaseWeight
        overlay.forEach((_, w) => if (w > wMax) wMax = w)
        val wm = wMax
        val cost: EdgeCost = (e: Int) => {
          val o = overlay.get(e)
          val w = if (o == null) g.edgeWeight(e) else o.doubleValue()
          (wm - w) + Summarizer.Delta
        }
        if (terms.length > 1) terms.foreach { t =>
          tr.span("graph.dijkstra")(g.dijkstra(t, cost, terms.filter(_ != t)))(
            d => Map("reached" -> d.dist.count(!_.isInfinite).toDouble))
        }
        tr.span("core.st_kernel")(SteinerTree.summarize(g, cost, terms))(counts)
      case Summarizer.PCST(c) =>
        if (terms.length > 1) {
          val sorted = terms.sorted
          tr.span("graph.voronoi")(g.voronoi(sorted, EdgeCost.uniform(c), maxDist = sorted.length.toDouble))(
            v => Map("ball" -> v._3.count(_ >= 0).toDouble))
        }
        tr.span("core.pcst_kernel")(
          Pcst.summarize(g, EdgeCost.uniform(c), terms, Array.fill(terms.length)(1.0)))(counts)
      case Summarizer.Paths => return true
    }
    val replayed = tree.edgeIds.map(e => (g.ids(g.edgeSrc(e)), g.ids(g.edgeDst(e)))).toSet
    replayed == r.subgraph.edges.map(e => (e.src, e.dst)).toSet
  }
}
