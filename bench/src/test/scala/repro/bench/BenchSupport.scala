package repro.bench

import repro.SparkSpec
import repro.eval.Harness
import repro.kg.{KGraph, KgIndex}
import repro.rec.PathRecommender

/** Shared knobs for the benchmark suites. Defaults are sized so the whole
  * bench run finishes in minutes on the CI container; the paper's full
  * sample sizes are reachable via environment variables (see
  * EXPERIMENTS.md for which configuration produced the recorded numbers).
  */
trait BenchSupport extends SparkSpec {

  /** ML1M/LFM1M generator scale for metric sweeps (1.0 = published size). */
  def benchScale: Double = sys.env.getOrElse("REPRO_BENCH_SCALE", "0.3").toDouble

  /** Emit one machine-greppable result line. */
  def result(table: String, line: String): Unit =
    println(s"RESULT|$table|$line")

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  private def rowsAtK10(out: Harness.Output, family: String, method: String): Seq[Harness.MetricRow] =
    out.rows.filter(r => r.family == family && r.method == method && r.k == 10)

  /** Mean of metric `f` over one (family, method)'s k = 10 summaries. */
  def meanAtK10(out: Harness.Output, family: String, method: String, f: Harness.MetricRow => Double): Double =
    mean(rowsAtK10(out, family, method).map(f))

  /** Figs 12–15: per recommender, print the k = 10 comprehensibility and
    * diversity of its paths, ST (λ = 1) and PCST in the user-centric and
    * user-group families, and check the published user-centric shape: ST
    * more comprehensible than the paths, PCST at most 0.05 less diverse.
    */
  def comprehensibilityAndDiversity(table: String, kg: KGraph, recs: Seq[PathRecommender],
                                    cfg: Harness.Config): Unit = {
    val idx = KgIndex.fromKGraph(kg)
    recs.foreach { rec =>
      val out = Harness.run(spark, kg, idx, rec, cfg)
      for (fam <- Seq("user-centric", "user-group"); method <- Seq("paths", "st(λ=1.0)", "pcst")) {
        val rows = rowsAtK10(out, fam, method)
        if (rows.nonEmpty)
          result(table, f"rec=${rec.name} family=$fam method=$method k=10 " +
            f"compr=${mean(rows.map(_.comprehensibility))}%.4f " +
            f"div=${mean(rows.map(_.diversity))}%.3f n=${rows.size}")
      }
      assert(meanAtK10(out, "user-centric", "st(λ=1.0)", _.comprehensibility) >
        meanAtK10(out, "user-centric", "paths", _.comprehensibility), s"$table ${rec.name}: ST comprehensibility")
      assert(meanAtK10(out, "user-centric", "pcst", _.diversity) >=
        meanAtK10(out, "user-centric", "paths", _.diversity) - 0.05, s"$table ${rec.name}: PCST diversity")
    }
  }
}
