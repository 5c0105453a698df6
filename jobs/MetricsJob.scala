package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.eval.Harness
import repro.kg.{KGBuilder, KgIndex, MLSynth}
import repro.rec.PathRecommender

/** Runs the §V metric sweep (Figs 2–8 / 12–15): every recommender ×
  * scenario family × method × k, averaged. Args: [dataset=ml1m|lfm1m]
  * [scale] [recommenders=pgpr,cafe,...].
  *
  * Run: spark-submit --class repro.jobs.MetricsJob <jar> ml1m 0.2 pgpr,cafe
  */
object MetricsJob {
  def main(args: Array[String]): Unit = {
    val dataset = args.headOption.getOrElse("ml1m")
    val scale = args.lift(1).map(_.toDouble).getOrElse(0.2)
    val recNames = args.lift(2).map(_.split(",").toSeq).getOrElse(Seq("pgpr", "cafe"))
    val spark = SparkSession.builder.appName("metrics").getOrCreate()
    try {
      val tables = if (dataset == "lfm1m") MLSynth.lfm1m(spark, scale) else MLSynth.ml1m(spark, scale)
      val kg = KGBuilder.build(spark, tables)
      val kgIdx = KgIndex.fromKGraph(kg)
      val recs = PathRecommender.baselines.filter(r => recNames.contains(r.name))
      val cfg = Harness.Config(usersPerGender = 40, itemsHalf = 25, spreadUserPool = 400)
      recs.foreach { rec =>
        val out = Harness.run(spark, kg, kgIdx, rec, cfg)
        out.rowsDF(spark)
          .groupBy("recommender", "family", "method", "k")
          .agg(avg("comprehensibility") as "compr", avg("actionability") as "action",
               avg("diversity") as "div", avg("redundancy") as "redund",
               avg("relevance") as "relev", avg("privacy") as "priv",
               avg("timeMs") as "ms", avg("edges") as "edges")
          .orderBy("recommender", "family", "method", "k")
          .show(1000, truncate = false)
      }
    } finally spark.stop()
  }
}
