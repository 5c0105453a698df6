package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.eval.Harness
import repro.kg.{DatasetTables, KGBuilder, KgIndex, MLSynth}
import repro.rec.PathRecommender

/** Runs the §V metric sweep (Figs 2–8 / 12–15): every recommender ×
  * scenario family × method × k, averaged, and Fig 6's cross-k
  * consistency per family × method. Args: [dataset=ml1m|lfm1m]
  * [scale] [recommenders=pgpr,cafe,...].
  *
  * Run: spark-submit --class repro.jobs.MetricsJob <jar> ml1m 0.2 pgpr,cafe
  */
object MetricsJob {
  val Datasets: Map[String, (SparkSession, Double) => DatasetTables] =
    Map("ml1m" -> (MLSynth.ml1m(_, _)), "lfm1m" -> (MLSynth.lfm1m(_, _)))

  final case class Args(dataset: String, scale: Double, recommenders: Seq[PathRecommender])

  /** The command line, checked on the driver: an unknown dataset or
    * recommender throws an `IllegalArgumentException` that names it and
    * lists the valid ones.
    */
  def parseArgs(args: Array[String]): Args = {
    val dataset = args.headOption.getOrElse("ml1m")
    require(Datasets.contains(dataset),
      s"MetricsJob: unknown dataset '$dataset'; valid: ${Datasets.keys.mkString(", ")}")
    val recs = PathRecommender.baselines
    val names = args.lift(2).fold(Seq("pgpr", "cafe"))(_.split(",").map(_.trim).toSeq)
    names.foreach(n => require(recs.exists(_.name == n),
      s"MetricsJob: unknown recommender '$n'; valid: ${recs.map(_.name).mkString(", ")}"))
    Args(dataset, args.lift(1).fold(0.2)(_.toDouble), recs.filter(r => names.contains(r.name)))
  }

  def main(args: Array[String]): Unit = {
    val a = parseArgs(args)
    val spark = SparkSession.builder.appName("metrics").getOrCreate()
    try {
      val kg = KGBuilder.build(spark, Datasets(a.dataset)(spark, a.scale))
      val kgIdx = KgIndex.fromKGraph(kg)
      val cfg = Harness.Config(usersPerGender = 40, itemsHalf = 25, spreadUserPool = 400)
      a.recommenders.foreach { rec =>
        val out = Harness.run(spark, kg, kgIdx, rec, cfg)
        aggregate(out.rowsDF(spark)).show(1000, truncate = false)
        meanConsistency(out.consistencyDF(spark)).show(1000, truncate = false)
      }
    } finally spark.stop()
  }

  /** Mean of every metric, time and edge count over `Harness.MetricRow`s per
    * (recommender, family, method, k), with the row count `n`, in key order.
    */
  def aggregate(rows: DataFrame): DataFrame =
    rows.groupBy("recommender", "family", "method", "k")
      .agg(avg("comprehensibility") as "compr", avg("actionability") as "action",
           avg("diversity") as "div", avg("redundancy") as "redund",
           avg("relevance") as "relev", avg("privacy") as "priv",
           avg("timeMs") as "ms", avg("edges") as "edges", count(lit(1)) as "n")
      .orderBy("recommender", "family", "method", "k")

  /** Fig 6: the mean consistency over `Harness.ConsistencyRow`s per
    * (recommender, family, method), with the row count `n`, in key order.
    */
  def meanConsistency(rows: DataFrame): DataFrame =
    rows.groupBy("recommender", "family", "method")
      .agg(avg("consistency") as "cons", count(lit(1)) as "n")
      .orderBy("recommender", "family", "method")
}
