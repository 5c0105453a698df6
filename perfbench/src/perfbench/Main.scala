package perfbench

import repro.core.Summarizer

import scala.collection.mutable

/** Named metrics with unit and sample count, in the order they were put. */
final class Out {
  val values = mutable.LinkedHashMap.empty[String, (Double, String, Long)]
  /** A statistic of no samples is recorded as 0 with n = 0. */
  def put(name: String, v: Double, unit: String, n: Long): Unit =
    values(name) = (if (v.isNaN || v.isInfinite) 0.0 else v, unit, n)
}

/** Entry point: `--workload <name> [--seed n] [--seconds s] [--trace 0|1]
  * [--dir d] [--fingerprint hex]`. Prints one `metric` line per metric,
  * then the result as a JSON object on the last line.
  */
object Main {
  val Workloads = Seq("uc-ksweep", "user-group", "harness-grid")
  /** MLSynth's default generator seed: the repo's ML1M-sim graph. */
  val GraphSeed = 7L
  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3
  /** Untimed driver-loop seconds before timing, for the JIT. */
  val WarmupS = 1.0

  /** The gated metrics of BENCHMARK.json. Wall times do not repeat between
    * runs on a shared host, so they are printed but not gated (README.md).
    */
  val EndToEnd = Seq("setup_s", "st_alloc_mb", "pcst_alloc_mb")
  /** harness-grid is not gated; its JSON carries what it can measure. */
  val HarnessEndToEnd = Seq("setup_s", "summaries_per_s", "st_ms_p50", "pcst_ms_p50", "alloc_mb_per_summary")
  val PerLayer = Seq(
    "spark.session_s", "kg.build_s", "kg.index_s", "kg.broadcast_s", "kg.vertices", "kg.edges",
    "rec.recommend_s", "rec.users", "rec.paths",
    "eval.sample_users_s", "eval.scenarios_s", "eval.harness_s",
    "core.overlay_ms", "core.overlay_edges", "core.st_kernel_ms", "core.st_kernel_alloc_mb",
    "core.pcst_kernel_ms", "core.pcst_kernel_alloc_mb", "core.resolve_ms", "core.metrics_ms",
    "core.consistency_ms", "core.terminals", "core.summary_edges", "core.st_alloc_mb",
    "core.pcst_alloc_mb", "core.mem_model_ratio", "core.batch_task_ms_p50",
    "graph.dijkstra_calls", "graph.dijkstra_ms", "graph.dijkstra_alloc_mb", "graph.dijkstra_reached",
    "graph.voronoi_ms", "graph.voronoi_ball", "graph.pcst_scan_ms", "graph.st_useful_ratio",
    "spark.tasks", "spark.task_s", "spark.task_gc_s", "spark.shuffle_mb",
    "jvm.gc_ms", "jvm.gc_count",
    "share.st_dijkstra", "share.pcst_kernel", "share.summarize_batch",
    "trace.summaries_per_s", "trace.overhead_pct", "check.failed_share", "check.replay_mismatches")

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        dir: java.io.File, expected: Option[String])

  def parse(args: Array[String]): Opts = {
    require(args.length % 2 == 0, s"arguments come in --name value pairs: ${args.mkString(" ")}")
    val m = args.grouped(2).map(a => a(0) -> a(1)).toMap
    val unknown = m.keySet -- Set("--workload", "--seed", "--seconds", "--trace", "--dir", "--fingerprint")
    require(unknown.isEmpty, s"unknown arguments: ${unknown.mkString(" ")}")
    val w = m.getOrElse("--workload", "")
    require(Workloads.contains(w), s"--workload must be one of ${Workloads.mkString(", ")}")
    val o = Opts(w, m.getOrElse("--seed", "17").toLong, m.getOrElse("--seconds", "10").toDouble,
      m.getOrElse("--trace", "0") == "1", new java.io.File(m.getOrElse("--dir", ".bench_build/perfbench")),
      m.get("--fingerprint"))
    require(o.seconds > 0, "--seconds must be positive")
    o
  }

  def main(args: Array[String]): Unit = {
    val o = try parse(args) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    val out = new Out
    val check = new Checker
    val tracers = mutable.ArrayBuffer.empty[(String, Tracer)]
    val graphSeed = if (o.workload == "harness-grid") o.seed else GraphSeed

    // Set up several times; keep the last world for the timed phases.
    var world: World = null
    var tasks = IndexedSeq.empty[Task]
    val setupS = (1 to Setups).map { i =>
      if (world != null) World.close(world)
      val tr = new Tracer
      tracers += s"setup$i" -> tr
      val t0 = System.nanoTime()
      tr.span("setup") {
        world = World.build(tr, o.dir, graphSeed)
        tasks = o.workload match {
          case "uc-ksweep"  => Driver.ucKsweep(world, tr, o.seed)
          case "user-group" => Driver.userGroup(world, tr, o.seed)
          case _            => IndexedSeq.empty
        }
      }()
      (System.nanoTime() - t0) / 1e9
    }
    out.put("setup_s", Stats.median(setupS), "s", Setups)
    out.put("setup_first_s", setupS.head, "s", 1)

    try {
      if (o.workload == "harness-grid") harnessGrid(o, world, out, check, tracers)
      else driver(o, world, tasks, out, check, tracers)
    } finally World.close(world)

    if (o.trace) {
      setupMetrics(out, tracers.toSeq)
      out.put("check.failed_share", check.failedShare, "ratio", check.attempted)
      out.put("check.replay_mismatches", check.replayMismatches.toDouble, "count", check.attempted)
      o.dir.mkdirs()
      val f = new java.io.File(o.dir, s"trace-${o.workload}-${o.seed}.jsonl")
      val w = new java.io.PrintWriter(f, "UTF-8")
      try tracers.foreach { case (phase, tr) => tr.write(w, phase) } finally w.close()
      println(s"spans written to ${f.getPath}")
    }
    out.put("failed_share", check.failedShare, "ratio", check.attempted)

    check.problems.foreach(p => println(s"check failed: $p"))
    out.values.foreach { case (k, (v, u, n)) => println(s"metric $k ${Json.num(v)} $u n=$n") }
    val names = if (o.trace) PerLayer else if (o.workload == "harness-grid") HarnessEndToEnd else EndToEnd
    val missing = names.filterNot(out.values.contains)
    require(missing.isEmpty, s"metrics not produced: ${missing.mkString(", ")}")
    val metrics = names.map { k =>
      val (v, u, _) = out.values(k)
      s"${Json.str(k)}: {${Json.str("value")}: ${Json.num(v)}, ${Json.str("unit")}: ${Json.str(u)}}"
    }.mkString(", ")
    println(s"""{"correct": ${check.failed == 0}, "attempted": ${check.attempted}, """ +
      s""""failed": ${check.failed}, "metrics": {$metrics}}""")
    sys.exit(0)
  }

  private def isSt(m: Summarizer.Method) = m.isInstanceOf[Summarizer.ST]
  private def isPcst(m: Summarizer.Method) = m.isInstanceOf[Summarizer.PCST]

  private def driver(o: Opts, w: World, tasks: IndexedSeq[Task], out: Out, check: Checker,
                     tracers: mutable.ArrayBuffer[(String, Tracer)]): Unit = {
    Driver.warmUp(w, tasks, WarmupS)
    val plain = Driver.phase(w, tasks, o.seconds, check, None)
    check.fingerprint(o.workload, check.summariesFingerprint, o.expected)
    println(s"fingerprint ${o.workload} seed=${o.seed} ${check.summariesFingerprint}")

    // Medians over the phase's cycles, so one disturbed cycle does not set
    // the run's figure.
    val n = plain.samples.size
    val st = plain.samples.filter(s => isSt(s.task.method))
    val pc = plain.samples.filter(s => isPcst(s.task.method))
    def perCycle(f: (Seq[Sample], Double) => Double) = Stats.median(plain.cycles.map(f.tupled))
    def p50(c: Seq[Sample], method: Summarizer.Method => Boolean) =
      Stats.median(c.filter(s => method(s.task.method)).map(_.ms))
    out.put("summaries_per_s", perCycle((c, s) => c.size / s), "1/s", n)
    out.put("st_ms_p50", perCycle((c, _) => p50(c, isSt)), "ms", st.size)
    out.put("pcst_ms_p50", perCycle((c, _) => p50(c, isPcst)), "ms", pc.size)
    out.put("cycles", plain.cycles.size, "count", plain.cycles.size)
    // A p90 needs ten samples beyond it.
    if (st.size >= 100) out.put("st_ms_p90", Stats.quantile(st.map(_.ms), 0.9), "ms", st.size)
    if (pc.size >= 100) out.put("pcst_ms_p90", Stats.quantile(pc.map(_.ms), 0.9), "ms", pc.size)
    out.put("alloc_mb_per_summary", plain.allocBytes / 1e6 / n, "MB", n)
    out.put("st_alloc_mb", Stats.mean(st.map(_.allocBytes / 1e6)), "MB", st.size)
    out.put("pcst_alloc_mb", Stats.mean(pc.map(_.allocBytes / 1e6)), "MB", pc.size)
    out.put("gc_ms", plain.gcMs.toDouble, "ms", plain.gcCount)

    if (o.trace) {
      val tr = new Tracer
      tracers += "traced" -> tr
      val traced = Driver.phase(w, tasks, o.seconds, check, Some(tr))
      tr.summary = -1
      Driver.consistency(tr, traced.samples)
      kernelMetrics(out, tr)
      out.put("core.batch_task_ms_p50", 0, "ms", 0)
      Seq("spark.tasks" -> "count", "spark.task_s" -> "s", "spark.task_gc_s" -> "s",
        "spark.shuffle_mb" -> "MB", "share.summarize_batch" -> "ratio", "eval.harness_s" -> "s")
        .foreach { case (k, u) => out.put(k, 0, u, 0) }
      out.put("jvm.gc_ms", traced.gcMs.toDouble, "ms", traced.gcCount)
      out.put("jvm.gc_count", traced.gcCount.toDouble, "count", traced.gcCount)
      out.put("trace.summaries_per_s", traced.samples.size / traced.wallS, "1/s", traced.samples.size)
      // Interference on the measured call: the same tasks, traced vs untraced.
      val base = plain.samples.groupBy(_.task.key).view.mapValues(ss => Stats.mean(ss.map(_.ms))).toMap
      val both = traced.samples.filter(s => base.contains(s.task.key))
      out.put("trace.overhead_pct",
        100 * (both.map(_.ms).sum / both.map(s => base(s.task.key)).sum - 1), "%", both.size)
    }
  }

  private def harnessGrid(o: Opts, w: World, out: Out, check: Checker,
                          tracers: mutable.ArrayBuffer[(String, Tracer)]): Unit = {
    val cfg = HarnessGrid.config(o.seed)
    HarnessGrid.run(w, cfg, check, o.expected, None) // warm-up: JIT and Spark codegen
    val (plain, _) = HarnessGrid.phase(w, cfg, o.seconds, check, o.expected, None)
    println(s"fingerprint ${o.workload} seed=${o.seed} ${HarnessGrid.fingerprint(plain.iters.head.out)}")

    // Medians over the run's `Harness.run` calls, as the driver workloads
    // take medians over cycles. Summary times are executor-thread times of tasks
    // that ran four at a time: contended.
    val rows = plain.rows
    val st = rows.filter(_.method.startsWith("st("))
    val pc = rows.filter(_.method == Summarizer.PCST().label)
    def perCall(f: Iteration => Double) = Stats.median(plain.iters.map(f))
    def p50(it: Iteration, method: String => Boolean) =
      Stats.median(it.out.rows.filter(r => method(r.method)).map(_.timeMs))
    out.put("summaries_per_s", perCall(it => it.out.rows.size / it.wallS), "1/s", rows.size)
    out.put("st_ms_p50", perCall(p50(_, _.startsWith("st("))), "ms", st.size)
    out.put("pcst_ms_p50", perCall(p50(_, _ == Summarizer.PCST().label)), "ms", pc.size)
    if (st.size >= 100) out.put("st_ms_p90", Stats.quantile(st.map(_.timeMs), 0.9), "ms", st.size)
    if (pc.size >= 100) out.put("pcst_ms_p90", Stats.quantile(pc.map(_.timeMs), 0.9), "ms", pc.size)
    out.put("alloc_mb_per_summary", plain.allocBytes / 1e6 / rows.size, "MB", rows.size)
    out.put("cycles", plain.iters.size, "count", plain.iters.size)
    out.put("gc_ms", plain.gcMs.toDouble, "ms", plain.gcCount)

    if (o.trace) {
      val tr = new Tracer
      tracers += "traced" -> tr
      val (traced, replays) = HarnessGrid.phase(w, cfg, o.seconds, check, o.expected, Some(tr))
      tr.summary = -1
      Driver.consistency(tr, replays)
      kernelMetrics(out, tr)
      val it = traced.iters
      val harnessMs = it.map(_.wallS * 1000).sum
      out.put("eval.harness_s", Stats.mean(it.map(_.wallS)), "s", it.size)
      out.put("core.batch_task_ms_p50", Stats.median(traced.rows.map(_.timeMs)), "ms", traced.rows.size)
      out.put("spark.tasks", it.map(_.tasks).sum.toDouble / it.size, "count", it.size)
      out.put("spark.task_s", it.map(_.taskRunMs).sum / 1e3 / it.size, "s", it.size)
      out.put("spark.task_gc_s", it.map(_.taskGcMs).sum / 1e3 / it.size, "s", it.size)
      out.put("spark.shuffle_mb", it.map(_.shuffleBytes).sum / 1e6 / it.size, "MB", it.size)
      out.put("share.summarize_batch", it.map(_.batchStageMs).sum / harnessMs, "ratio", it.size)
      out.put("jvm.gc_ms", traced.gcMs.toDouble, "ms", traced.gcCount)
      out.put("jvm.gc_count", traced.gcCount.toDouble, "count", traced.gcCount)
      out.put("trace.summaries_per_s", traced.rows.size / traced.wallS, "1/s", traced.rows.size)
      out.put("trace.overhead_pct",
        100 * (Stats.mean(it.map(_.wallS)) / Stats.mean(plain.iters.map(_.wallS)) - 1), "%", it.size)
    }
  }

  /** Per-layer set-up metrics: the median over set-ups of each span, or
    * over the traced phase's spans for calls made only there.
    */
  private def setupMetrics(out: Out, tracers: Seq[(String, Tracer)]): Unit = {
    def spans(name: String) = {
      val setups = tracers.filter(_._1.startsWith("setup")).flatMap(_._2.named(name))
      if (setups.nonEmpty) setups else tracers.flatMap(_._2.named(name))
    }
    def seconds(name: String, metric: String) = {
      val ss = spans(name)
      out.put(metric, Stats.median(ss.map(_.s)), "s", ss.size)
    }
    def count(name: String, key: String, metric: String) = {
      val ss = spans(name)
      out.put(metric, Stats.median(ss.map(_.counts.getOrElse(key, 0.0))), "count", ss.size)
    }
    seconds("spark.session", "spark.session_s")
    seconds("kg.build", "kg.build_s")
    seconds("kg.index", "kg.index_s")
    seconds("kg.broadcast", "kg.broadcast_s")
    count("kg.index", "vertices", "kg.vertices")
    count("kg.index", "edges", "kg.edges")
    seconds("rec.recommend", "rec.recommend_s")
    count("rec.recommend", "users", "rec.users")
    count("rec.recommend", "paths", "rec.paths")
    seconds("eval.sample_users", "eval.sample_users_s")
    seconds("eval.scenarios", "eval.scenarios_s")
  }

  /** Per-summary means of the `core` and `graph` layers from the traced
    * summaries, and each kernel's share of the summarize time.
    */
  private def kernelMetrics(out: Out, tr: Tracer): Unit = {
    val groups = tr.spans.filter(_.summary >= 0).groupBy(_.summary).values.toSeq
    def in(g: Seq[Span], name: String) = g.filter(_.name == name)
    def ms(g: Seq[Span], name: String) = in(g, name).map(_.ms).sum
    def mb(g: Seq[Span], name: String) = in(g, name).map(_.mb).sum
    def cnt(g: Seq[Span], name: String, key: String) = in(g, name).map(_.counts.getOrElse(key, 0.0)).sum
    val st = groups.filter(in(_, "core.st_kernel").nonEmpty)
    val pc = groups.filter(in(_, "core.pcst_kernel").nonEmpty)
    val kern = st ++ pc
    def mean(gs: Seq[Seq[Span]], f: Seq[Span] => Double) = Stats.mean(gs.map(f))

    out.put("core.overlay_ms", mean(st, ms(_, "core.overlay")), "ms", st.size)
    out.put("core.overlay_edges", mean(st, cnt(_, "core.overlay", "edges")), "count", st.size)
    out.put("core.st_kernel_ms", mean(st, ms(_, "core.st_kernel")), "ms", st.size)
    out.put("core.st_kernel_alloc_mb", mean(st, mb(_, "core.st_kernel")), "MB", st.size)
    out.put("core.pcst_kernel_ms", mean(pc, ms(_, "core.pcst_kernel")), "ms", pc.size)
    out.put("core.pcst_kernel_alloc_mb", mean(pc, mb(_, "core.pcst_kernel")), "MB", pc.size)
    out.put("core.resolve_ms", mean(kern, g => ms(g, "core.summarize") - ms(g, "core.overlay") -
      ms(g, "core.st_kernel") - ms(g, "core.pcst_kernel")), "ms", kern.size)
    val metrics = tr.named("core.metrics")
    out.put("core.metrics_ms", Stats.mean(metrics.map(_.ms)), "ms", metrics.size)
    val consistency = tr.named("core.consistency")
    out.put("core.consistency_ms", Stats.mean(consistency.map(_.ms)), "ms", consistency.size)
    out.put("core.terminals", mean(kern, g => cnt(g, "core.st_kernel", "terminals") +
      cnt(g, "core.pcst_kernel", "terminals")), "count", kern.size)
    out.put("core.summary_edges", mean(kern, cnt(_, "core.summarize", "edges")), "count", kern.size)
    out.put("core.st_alloc_mb", mean(st, mb(_, "core.summarize")), "MB", st.size)
    out.put("core.pcst_alloc_mb", mean(pc, mb(_, "core.summarize")), "MB", pc.size)
    out.put("core.mem_model_ratio", kern.map(cnt(_, "core.summarize", "mem_model_bytes")).sum /
      kern.map(mb(_, "core.summarize") * 1e6).sum, "ratio", kern.size)

    out.put("graph.dijkstra_calls", mean(st, in(_, "graph.dijkstra").size.toDouble), "count", st.size)
    out.put("graph.dijkstra_ms", mean(st, ms(_, "graph.dijkstra")), "ms", st.size)
    out.put("graph.dijkstra_alloc_mb", mean(st, mb(_, "graph.dijkstra")), "MB", st.size)
    out.put("graph.dijkstra_reached", mean(st, cnt(_, "graph.dijkstra", "reached")), "count", st.size)
    out.put("graph.voronoi_ms", mean(pc, ms(_, "graph.voronoi")), "ms", pc.size)
    out.put("graph.voronoi_ball", mean(pc, cnt(_, "graph.voronoi", "ball")), "count", pc.size)
    out.put("graph.pcst_scan_ms", mean(pc, g => ms(g, "core.pcst_kernel") - ms(g, "graph.voronoi")),
      "ms", pc.size)
    out.put("graph.st_useful_ratio", st.map(cnt(_, "core.st_kernel", "edges")).sum /
      st.map(cnt(_, "graph.dijkstra", "reached")).sum, "ratio", st.size)

    val summarizeMs = groups.map(ms(_, "core.summarize")).sum
    out.put("share.st_dijkstra", groups.map(ms(_, "graph.dijkstra")).sum / summarizeMs, "ratio", st.size)
    out.put("share.pcst_kernel", groups.map(ms(_, "core.pcst_kernel")).sum / summarizeMs, "ratio", pc.size)
  }
}
