package perfbench

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.kg.{KGBuilder, KGraph, KgIndex, MLSynth}

/** The graph every workload runs on, with the Spark session that built it. */
final case class World(spark: SparkSession, kg: KGraph, idx: KgIndex,
                       kgB: Broadcast[KgIndex], listener: TaskListener)

object World {
  /** ML1M-sim at this scale: 6,214 vertices and 177,826 edges with the
    * generator's default seed.
    */
  val Scale = 0.3

  /** Executor threads: the harness fans summaries out over this many. */
  val Cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  /** Session → synth → KG build → KgIndex → broadcast, each a span. */
  def build(tr: Tracer, scratch: java.io.File, graphSeed: Long): World = {
    val spark = tr.span("spark.session") {
      SparkSession.builder
        .master(s"local[$Cores]")
        .appName("perfbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.shuffle.partitions", (2 * Cores).toString)
        .config("spark.local.dir", new java.io.File(scratch, "spark-local").getAbsolutePath)
        .config("spark.sql.warehouse.dir", new java.io.File(scratch, "warehouse").getAbsolutePath)
        .getOrCreate()
    }()
    spark.sparkContext.setLogLevel("ERROR")
    val listener = new TaskListener
    spark.sparkContext.addSparkListener(listener)
    val kg = tr.span("kg.build")(KGBuilder.build(spark, MLSynth.ml1m(spark, Scale, graphSeed)))()
    val idx = tr.span("kg.index")(KgIndex.fromKGraph(kg))(i =>
      Map("vertices" -> i.graph.numVertices.toDouble, "edges" -> i.graph.numEdges.toDouble))
    val kgB = tr.span("kg.broadcast")(spark.sparkContext.broadcast(idx))()
    World(spark, kg, idx, kgB, listener)
  }

  def close(w: World): Unit = {
    w.kgB.destroy()
    w.spark.stop()
  }
}

/** Task-level counters from Spark's listener bus: tasks, executor run and
  * GC time, shuffle bytes, and stage wall time by call site (the
  * `collect at Summarizer.scala` stages are `summarizeBatch`).
  */
final class TaskListener extends SparkListener {
  @volatile var tasks = 0L
  @volatile var runMs = 0L
  @volatile var gcMs = 0L
  @volatile var shuffleBytes = 0L
  @volatile var batchStageMs = 0L

  def reset(): Unit = synchronized { tasks = 0; runMs = 0; gcMs = 0; shuffleBytes = 0; batchStageMs = 0 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      runMs += m.executorRunTime
      gcMs += m.jvmGCTime
      shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val si = e.stageInfo
    if (si.name.contains("Summarizer.scala"))
      for (a <- si.submissionTime; b <- si.completionTime) batchStageMs += b - a
  }
}
