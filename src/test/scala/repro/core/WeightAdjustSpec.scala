package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropSupport, SparkSpec}
import repro.eval.TableIExample
import repro.graph.{CompactGraph, SearchSpace, TestGraphs}
import repro.kg.KgIndex
import repro.rec.ExplanationPath

class WeightAdjustSpec extends SparkSpec with PropSupport {

  private lazy val kg  = TableIExample.knowledgeGraph(spark)
  private lazy val idx = KgIndex.fromKGraph(kg)
  private lazy val paths = TableIExample.paths

  test("overlay boosts exactly the edges on the paths") {
    val overlay = WeightAdjust.overlay(idx, paths, anchors = 3, lambda = 1.0)
    val pathEdges = paths.flatMap(_.hops).flatMap { case (a, b) => idx.edgeBetween(a, b) }.toSet
    assert(overlay.keySet().size() == pathEdges.size)
    pathEdges.foreach(e => assert(overlay.containsKey(e)))
  }

  test("overlay math: w_M * (1 + lambda * freq / |S|)") {
    val overlay = WeightAdjust.overlay(idx, paths, anchors = 3, lambda = 3.0)
    // User 1 -> Ulysses' Gaze appears in exactly one of the three paths,
    // and its rating is 5.0 -> w = 5 * (1 + 3 * 1/3) = 10.
    val e = idx.edgeBetween(TableIExample.User1, TableIExample.UlyssesGaze).get
    assert(math.abs(overlay.get(e) - 10.0) < 1e-12)
  }

  test("lambda = 0 leaves weights unchanged") {
    val overlay = WeightAdjust.overlay(idx, paths, anchors = 3, lambda = 0.0)
    overlay.forEach { (e, w) =>
      assert(math.abs(w - idx.graph.edgeWeight(e)) < 1e-12)
    }
  }

  test("an edge shared by two paths gets double the boost of a single-path edge") {
    // Theo Angelopoulos is reached by both P_{1,B} and P_{1,C} via
    // different edges; Drama -> Eternity appears once. Craft a synthetic
    // check: duplicate path P_{1,B} so its edges are in 2 paths.
    val doubled = paths :+ paths(1).copy(rank = 4)
    val overlay = WeightAdjust.overlay(idx, doubled, anchors = 4, lambda = 1.0)
    val shared = idx.edgeBetween(TableIExample.User1, TableIExample.UlyssesGaze).get
    val single = idx.edgeBetween(TableIExample.User1, TableIExample.LandscapeInTheMist).get
    val wShared = overlay.get(shared) / idx.graph.edgeWeight(shared) - 1.0 // = lambda*2/4
    val wSingle = overlay.get(single) / idx.graph.edgeWeight(single) - 1.0 // = lambda*1/4
    assert(math.abs(wShared - 2 * wSingle) < 1e-12)
  }

  test("hops that are not KG edges boost nothing (PLM hallucinations)") {
    // User1 -> Drama is a hallucinated hop; Ulysses' Gaze -> Drama too;
    // only Drama -> Eternity is a real KG edge.
    val fake = repro.rec.ExplanationPath(TableIExample.User1, TableIExample.EternityAndADay, 1,
      Vector(TableIExample.User1, TableIExample.Drama, TableIExample.EternityAndADay))
    assert(idx.edgeBetween(TableIExample.User1, TableIExample.Drama).isEmpty)
    assert(idx.edgeBetween(TableIExample.Drama, TableIExample.EternityAndADay).isDefined)
    val overlay = WeightAdjust.overlay(idx, Seq(fake), anchors = 1, lambda = 5.0)
    assert(overlay.keySet().size() == 1)
    assert(overlay.containsKey(
      idx.edgeBetween(TableIExample.Drama, TableIExample.EternityAndADay).get))
  }

  test("an edge repeated inside one path counts once for that path") {
    // Path that walks the same edge back and forth.
    val p = repro.rec.ExplanationPath(TableIExample.User1, TableIExample.UlyssesGaze, 1,
      Vector(TableIExample.User1, TableIExample.UlyssesGaze, TableIExample.User1,
        TableIExample.UlyssesGaze))
    val overlay = WeightAdjust.overlay(idx, Seq(p), anchors = 1, lambda = 1.0)
    val e = idx.edgeBetween(TableIExample.User1, TableIExample.UlyssesGaze).get
    // freq = 1 (one path), not 3 (three traversals): w = 5 * (1 + 1) = 10.
    assert(math.abs(overlay.get(e) - 10.0) < 1e-12)
  }

  /** The boxed overlay the kernels used before [[WeightAdjust.overlayTable]]:
    * the reference both of its forms must equal.
    */
  private def boxedOverlay(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int,
                           lambda: Double): java.util.HashMap[Integer, java.lang.Double] = {
    val counts = new java.util.HashMap[Integer, Integer]()
    paths.foreach { p =>
      val seen = new java.util.HashSet[Integer]()
      p.hops.foreach { case (a, b) =>
        kg.edgeBetween(a, b).foreach { e =>
          if (seen.add(e)) counts.merge(e, 1, (x: Integer, y: Integer) => x + y)
        }
      }
    }
    val out = new java.util.HashMap[Integer, java.lang.Double](counts.size())
    val n = math.max(1, anchors).toDouble
    counts.forEach { (e, c) =>
      out.put(e, kg.graph.edgeWeight(e) * (1.0 + lambda * c.doubleValue() / n))
    }
    out
  }

  /** `count` random walks over `g` that revisit hops, step to non-adjacent
    * nodes and to a node outside the graph.
    */
  private def randomWalks(g: CompactGraph, rnd: scala.util.Random, count: Int): Seq[ExplanationPath] = {
    val nodes = g.ids :+ 999L
    def step(id: Long): Long = {
      val v = g.find(id)
      if (v >= 0 && g.degree(v) > 0 && rnd.nextInt(4) > 0)
        g.ids(g.arcTarget(g.offsets(v) + rnd.nextInt(g.degree(v))))
      else nodes(rnd.nextInt(nodes.length))
    }
    Seq.fill(count) {
      val walk = Vector.iterate(nodes(rnd.nextInt(nodes.length)), 1 + rnd.nextInt(6))(step)
      val back = if (rnd.nextBoolean()) walk ++ walk.reverse.tail else walk
      ExplanationPath(back.head, back.last, 1, back)
    }
  }

  /** The overlay [[WeightAdjust.overlayTable]] leaves in `ws`: edge id → weight, in its order. */
  private def overlayIn(kg: KgIndex, paths: Seq[ExplanationPath], anchors: Int, lambda: Double,
                        ws: SearchSpace): Seq[(Int, Double)] = {
    val m = WeightAdjust.overlayTable(kg, paths, anchors, lambda, ws)
    val edges = ws.ints(WeightAdjust.Edges, m)
    val weights = ws.doubles(WeightAdjust.Weights, m)
    (0 until m).map(i => edges(i) -> weights(i))
  }

  test("property: overlayTable and overlay equal the boxed overlay") {
    val gen = for {
      triples <- TestGraphs.randomGraphGen(10)
      seed <- Gen.choose(0L, Long.MaxValue)
      anchors <- Gen.choose(0, 5)
      lambda <- Gen.oneOf(0.0, 1.0, 3.0, 100.0)
    } yield (triples, seed, anchors, lambda)
    checkProp(Prop.forAll(gen) { case (triples, seed, anchors, lambda) =>
      val g = CompactGraph.fromTriples(triples)
      val kg = new KgIndex(g)
      val rnd = new scala.util.Random(seed)
      val paths = randomWalks(g, rnd, rnd.nextInt(6))
      val expected = boxedOverlay(kg, paths, anchors, lambda)
      val overlay = overlayIn(kg, paths, anchors, lambda, TestGraphs.freshWorkspace(g))
      val ascending = overlay.map(_._1).sliding(2).forall(p => p.size < 2 || p(0) < p(1))
      val matches = overlay.size == expected.size() && overlay.forall { case (e, w) =>
        expected.containsKey(e) && expected.get(e).doubleValue() == w
      }
      val boxed = WeightAdjust.overlay(kg, paths, anchors, lambda)
      // Eq. (1) costs from one call equal, bit for bit, a per-edge fill of
      // (W_max − w(e)) + δ over the boxed overlay's weights.
      def w(e: Int): Double = if (boxed.containsKey(e)) boxed.get(e).doubleValue() else g.edgeWeight(e)
      val wMax = (0 until g.numEdges).filter(e => boxed.containsKey(e)).map(w).foldLeft(kg.maxBaseWeight)(math.max)
      val costs = WeightAdjust.costs(kg, paths, anchors, lambda, TestGraphs.freshWorkspace(g))
      val reference = TestGraphs.freshWorkspace(g).fillCosts(g, (e: Int) => (wMax - w(e)) + Summarizer.Delta)
      val bitwise = (0 until 2 * g.numEdges).forall { a =>
        java.lang.Double.doubleToRawLongBits(costs(a)) == java.lang.Double.doubleToRawLongBits(reference(a))
      }
      ascending && matches && boxed == expected && bitwise
    }, minTests = 100)
  }

  test("property: one workspace reused over growing, shrinking, growing path sets equals fresh workspaces") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(10), Gen.choose(0L, Long.MaxValue)) { (triples, seed) =>
      val g = CompactGraph.fromTriples(triples)
      val kg = new KgIndex(g)
      val rnd = new scala.util.Random(seed)
      val reused = TestGraphs.freshWorkspace(g)
      Seq(1, 6, 40, 3, 0, 2, 80).forall { count =>
        val paths = randomWalks(g, rnd, count)
        val hops = paths.map(_.length).sum
        // Between summaries the kernels grow the same numbered buffers, each
        // to its own size, and leave their contents behind.
        (0 until SearchSpace.IntBuffers).foreach(b => java.util.Arrays.fill(reused.ints(b, rnd.nextInt(120)), -1))
        (0 until SearchSpace.DoubleBuffers).foreach(b =>
          java.util.Arrays.fill(reused.doubles(b, rnd.nextInt(120)), Double.NaN))
        val inReused = overlayIn(kg, paths, anchors = 3, lambda = 2.0, reused)
        val inFresh = overlayIn(kg, paths, anchors = 3, lambda = 2.0, TestGraphs.freshWorkspace(g))
        // Raw bits: a reused buffer must not leave a stale weight or count behind.
        inReused.size <= hops && inReused.map { case (e, w) => (e, java.lang.Double.doubleToRawLongBits(w)) } ==
          inFresh.map { case (e, w) => (e, java.lang.Double.doubleToRawLongBits(w)) }
      }
    }, minTests = 50)
  }

  test("DataFrame form matches the overlay kernel on every path edge") {
    import spark.implicits._
    val hops = paths.zipWithIndex.flatMap { case (p, i) =>
      p.hops.map { case (a, b) => (i.toLong, a, b) }
    }.toDF("path_id", "src", "dst")
    val adj = WeightAdjustSpec.adjustedEdges(kg.edges, hops, anchors = 3, lambda = 2.0)
      .select("src", "dst", "adj_weight").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap

    val overlay = WeightAdjust.overlay(idx, paths, anchors = 3, lambda = 2.0)
    val g = idx.graph
    overlay.forEach { (e, w) =>
      val keyed = adj((g.ids(g.edgeSrc(e)), g.ids(g.edgeDst(e))))
      assert(math.abs(keyed - w) < 1e-9, s"edge $e: df=$keyed kernel=$w")
    }
    // Non-path edges keep base weight.
    val nonPath = adj.view.filterKeys { case (s, d) =>
      idx.edgeBetween(s, d).forall(e => !overlay.containsKey(e))
    }
    nonPath.foreach { case ((s, d), w) =>
      val e = idx.edgeBetween(s, d).get
      assert(math.abs(w - g.edgeWeight(e)) < 1e-9)
    }
  }

  test("oracle: Eq.(1) frequency join matches DuckDB SQL") {
    import spark.implicits._
    val hops = paths.zipWithIndex.flatMap { case (p, i) =>
      p.hops.map { case (a, b) => (i.toLong, a, b) }
    }.toDF("path_id", "src", "dst")
    val sparkDf = WeightAdjustSpec.adjustedEdges(kg.edges, hops, anchors = 3, lambda = 2.0)
      .select(col("src"), col("dst"), round(col("adj_weight"), 6) as "w")
    Oracle.assertEquivalent(sparkDf,
      """SELECT e.src, e.dst,
        |  ROUND(CAST(e.weight AS DOUBLE) * (1 + 2.0 * COALESCE(f.n, 0) / 3.0), 6) AS w
        |FROM edges e LEFT JOIN (
        |  SELECT a, b, COUNT(*) AS n FROM (
        |    SELECT DISTINCT path_id,
        |      LEAST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS a,
        |      GREATEST(CAST(src AS BIGINT), CAST(dst AS BIGINT)) AS b
        |    FROM hops) GROUP BY a, b
        |) f ON LEAST(CAST(e.src AS BIGINT), CAST(e.dst AS BIGINT)) = f.a
        |   AND GREATEST(CAST(e.src AS BIGINT), CAST(e.dst AS BIGINT)) = f.b""".stripMargin,
      "edges" -> kg.edges.select("src", "dst", "weight"), "hops" -> hops)
  }
}

object WeightAdjustSpec {

  /** Eq. (1) as a DataFrame pipeline, the twin of `WeightAdjust.overlay`
    * that the DuckDB oracle checks. `edges` must have (src, dst, weight);
    * `pathHops` must have (path_id, src, dst), one row per hop of each
    * explanation path (hop orientation may be the reverse of the stored
    * edge — both are matched, as summaries are weakly-connected subgraphs).
    * Returns `edges` with an extra column `adj_weight`.
    */
  def adjustedEdges(edges: DataFrame, pathHops: DataFrame, anchors: Long, lambda: Double): DataFrame = {
    val freq = pathHops
      .select(col("path_id"),
        least(col("src"), col("dst")) as "a", greatest(col("src"), col("dst")) as "b")
      .distinct() // an edge counts once per path
      .groupBy(col("a"), col("b"))
      .agg(count(lit(1)) as "n_paths")
    edges
      .withColumn("a", least(col("src"), col("dst")))
      .withColumn("b", greatest(col("src"), col("dst")))
      .join(freq, Seq("a", "b"), "left")
      .withColumn("adj_weight",
        col("weight") * (lit(1.0) + lit(lambda) * coalesce(col("n_paths"), lit(0L)) / lit(anchors.toDouble)))
      .drop("a", "b", "n_paths")
  }
}
