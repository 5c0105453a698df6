package repro.core

import java.lang.management.ManagementFactory
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.core.SubgraphChecks._
import repro.eval.TableIExample
import repro.graph.{CompactGraph, EdgeCost, TestGraphs}
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeType}
import repro.rec.{ExplanationPath, Pgpr}

class SummarizerSpec extends SparkSpec with PropSupport {

  private lazy val exampleIdx = KgIndex.fromKGraph(TableIExample.knowledgeGraph(spark))
  private lazy val scenario = UserCentric(TableIExample.User1, TableIExample.paths)

  private lazy val mlKg  = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
  private lazy val mlIdx = KgIndex.fromKGraph(mlKg)

  test("ST summary connects the user to every recommended item") {
    val r = Summarizer.summarize(exampleIdx, scenario, Summarizer.ST(1.0))
    val s = r.subgraph
    assert(s.isolated.isEmpty, "all terminals reachable in the example KG")
    assert(s.coveredTerminals.toSet == scenario.terminals.toSet)
    assert(s.componentCount == 1)
    assert(s.allEdges eq s.edges) // the distinct edges are the multiset
  }

  test("ST summary is far smaller than the union of paths (Table I shape)") {
    val st = Summarizer.summarize(exampleIdx, scenario, Summarizer.ST(1.0)).subgraph
    val base = Summarizer.summarize(exampleIdx, scenario, Summarizer.Paths).subgraph
    assert(base.edgeOccurrences == 13, "paper: total explanation length 13")
    assert(st.edges.length <= 7, s"paper achieves 6 edges; got ${st.edges.length}")
    assert(st.edges.length < base.edgeOccurrences / 2)
  }

  test("Paths method: union keeps duplicates in allEdges, dedupes edges") {
    val p = TableIExample.paths
    val doubled = UserCentric(TableIExample.User1, p ++ p.map(x => x.copy(rank = x.rank + 3)))
    val s = Summarizer.summarize(exampleIdx, doubled, Summarizer.Paths).subgraph
    assert(s.allEdges.length == 26)
    assert(s.edges.length == 13)
  }

  test("lambda = 100 pins the summary to the input path edges") {
    val st = Summarizer.summarize(exampleIdx, scenario, Summarizer.ST(100.0)).subgraph
    val pathEdges = scenario.paths.flatMap(_.hops)
      .map { case (a, b) => if (a <= b) (a, b) else (b, a) }.toSet
    val weighted = st.edges.filter(_.wM > 0) // user-item edges carry weight; w_A = 0
    assert(weighted.forall(e =>
      pathEdges.contains(if (e.src <= e.dst) (e.src, e.dst) else (e.dst, e.src))),
      "with high lambda every weighted summary edge lies on an input path")
  }

  test("PCST connects most terminals with prize 1 / cost 0.25 at 3-hop scale") {
    val r = Summarizer.summarize(exampleIdx, scenario, Summarizer.PCST()).subgraph
    assert(r.edges.nonEmpty)
    assert(r.coveredTerminals.length >= 2)
    assert(r.allEdges eq r.edges)
  }

  test("results carry timing and the memory model (ST grows with |T|, PCST does not)") {
    val st = Summarizer.summarize(exampleIdx, scenario, Summarizer.ST(1.0))
    val pcst = Summarizer.summarize(exampleIdx, scenario, Summarizer.PCST())
    assert(st.timeNs > 0 && pcst.timeNs > 0)
    assert(st.memModelBytes == 4L * exampleIdx.graph.numVertices * 12)  // |T| = 4
    assert(pcst.memModelBytes == exampleIdx.graph.numVertices * 16L)
  }

  test("terminals missing from the graph are skipped, not fatal") {
    // A path to an item that exists in no KG edge (e.g. a hallucinated
    // PLM recommendation): its terminal cannot be resolved and is skipped.
    val ghostItem = repro.kg.NodeIds.item(999)
    val ghostPath = repro.rec.ExplanationPath(TableIExample.User1, ghostItem, 4,
      Vector(TableIExample.User1, TableIExample.UlyssesGaze, ghostItem))
    val withGhost = UserCentric(TableIExample.User1, TableIExample.paths :+ ghostPath)
    val r = Summarizer.summarize(exampleIdx, withGhost, Summarizer.ST(1.0)).subgraph
    assert(r.edges.nonEmpty)
    assert(!r.nodes.contains(ghostItem))
  }

  test("a scenario whose terminals are all outside G gives an empty summary") {
    val ghostUser = repro.kg.NodeIds.user(999)
    val ghostItems = Seq(997L, 998L, 999L).map(repro.kg.NodeIds.item)
    val noPaths = Seq(UserCentric(ghostUser, Seq.empty), ItemGroup("ghosts", ghostItems, Seq.empty))
    // Hops between ghosts are no edges of G, so the tree kernels have
    // nothing to connect (Paths shows such hops as they are).
    val ghostPaths = UserCentric(ghostUser, Seq(repro.rec.ExplanationPath(
      ghostUser, ghostItems.head, 1, Vector(ghostUser, ghostItems.head))))
    val runs = (for (sc <- noPaths; m <- Seq(Summarizer.Paths, Summarizer.ST(1.0), Summarizer.PCST()))
      yield (sc, m)) ++ Seq(Summarizer.ST(1.0), Summarizer.PCST()).map(m => (ghostPaths, m))
    runs.foreach { case (sc, m) =>
      assert(sc.terminals.forall(t => !exampleIdx.graph.contains(t)))
      val s = Summarizer.summarize(exampleIdx, sc, m).subgraph
      assert(s.edges.isEmpty && s.allEdges.isEmpty && s.nodes.isEmpty, s"${sc.id} ${m.label}")
    }
  }

  test("property: Summarizer's ST and PCST give the public entries' edges, in kernel order") {
    // Node ids 0 until n + 3 on a graph of n vertices: some terminals are
    // not in G. A user-centric scenario repeats its user when one of its
    // paths ends at the user's id; an empty group has no terminal at all.
    val input = for {
      triples <- TestGraphs.randomGraphGen(12)
      size <- Gen.oneOf(0, 1, 2, 3, 8, 16)
      lambda <- Gen.oneOf(0.01, 1.0, 100.0)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (triples, size, lambda, seed)
    checkProp(Prop.forAll(input) { case (triples, size, lambda, seed) =>
      val g = CompactGraph.fromTriples(triples)
      val kg = new KgIndex(g)
      val rnd = new scala.util.Random(seed)
      def anyId(): Long = rnd.nextInt(g.numVertices + 3).toLong
      val user = anyId()
      val sc: Scenario =
        if (size == 0) UserGroup("empty", Seq.empty, Seq.empty)
        else UserCentric(user, Seq.tabulate(size - 1) { r =>
          val item = if (rnd.nextInt(4) == 0) user else anyId()
          ExplanationPath(user, item, r, Vector(user, anyId(), item))
        })
      val terms = sc.terminals.map(g.find).filter(_ >= 0)
      // ST's Eq. (1) costs as an oracle, from the overlay adapter.
      val overlay = WeightAdjust.overlay(kg, sc.paths, sc.anchors, lambda)
      var wMax = kg.maxBaseWeight
      overlay.forEach((_, w) => if (w > wMax) wMax = w)
      val wm = wMax
      val stCost: EdgeCost = (e: Int) => {
        val o = overlay.get(e)
        (wm - (if (o == null) g.edgeWeight(e) else o.doubleValue())) + Summarizer.Delta
      }
      val expected = Seq(
        Summarizer.ST(lambda) -> SteinerTree.summarize(g, stCost, terms),
        Summarizer.PCST() -> Pcst.summarize(g, EdgeCost.uniform(0.25), terms, Array.fill(terms.length)(1.0)))
      val covered = terms.distinct
      expected.forall { case (method, tree) =>
        val s = Summarizer.summarize(kg, sc, method).subgraph
        val edges = tree.edgeIds.map(e => (g.ids(g.edgeSrc(e)), g.ids(g.edgeDst(e))))
        val touched = tree.edgeIds.flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e))).toSet
        val isolated = method match {
          case _: Summarizer.ST => covered.filterNot(touched).map(g.ids(_))
          case _ => Array.emptyLongArray
        }
        s.edges.map(e => (e.src, e.dst)).sameElements(edges) &&
          s.pathNodeOccurrences == tree.pathNodeOccurrences && s.isolated.sameElements(isolated)
      }
    }, minTests = 200)
  }

  test("ST rejects a NaN lambda, naming the field") {
    val err = intercept[IllegalArgumentException](Summarizer.ST(Double.NaN))
    assert(err.getMessage.contains("ST.lambda"), err.getMessage)
  }

  test("ST rejects an infinite lambda, naming the field") {
    Seq(Double.PositiveInfinity, Double.NegativeInfinity).foreach { l =>
      val err = intercept[IllegalArgumentException](Summarizer.ST(l))
      assert(err.getMessage.contains("ST.lambda"), err.getMessage)
    }
  }

  test("PCST rejects a NaN or infinite edge cost, naming the field") {
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { c =>
      val err = intercept[IllegalArgumentException](Summarizer.PCST(c))
      assert(err.getMessage.contains("PCST.edgeCost"), err.getMessage)
    }
  }

  test("PCST rejects a zero or negative edge cost, naming the field") {
    Seq(0.0, -0.0, -0.25).foreach { c =>
      val err = intercept[IllegalArgumentException](Summarizer.PCST(c))
      assert(err.getMessage.contains("PCST.edgeCost"), err.getMessage)
    }
  }

  test("batch API matches serial summarize on ML1M-sim scenarios") {
    val rec = new Pgpr
    val g = mlIdx.graph
    val users = (0 until g.numVertices)
      .filter(v => mlIdx.vtype(v) == NodeType.User && g.degree(v) >= 5).take(4)
    val tasks = users.flatMap { u =>
      val paths = rec.recommend(mlIdx, u, 5, seed = 3L)
      if (paths.isEmpty) None
      else Some((UserCentric(g.ids(u), paths): Scenario, Summarizer.ST(1.0): Summarizer.Method, 5))
    }
    val kgB = spark.sparkContext.broadcast(mlIdx)
    val batch = Summarizer.summarizeBatch(spark.sparkContext, kgB, tasks)
    assert(batch.size == tasks.size)
    tasks.zip(batch.sortBy(_.scenarioId)).foreach { case ((sc, m, k), _) => () }
    val serialById = tasks.map { case (sc, m, k) =>
      sc.id -> Summarizer.summarize(mlIdx, sc, m, k)
    }.toMap
    batch.foreach { r =>
      val s = serialById(r.scenarioId)
      assert(r.subgraph.edges.map(e => (e.src, e.dst)).toSet ==
        s.subgraph.edges.map(e => (e.src, e.dst)).toSet, s"scenario ${r.scenarioId}")
    }
  }

  test("ST on ML1M-sim: summaries are weakly connected per component") {
    val rec = new Pgpr
    val g = mlIdx.graph
    val u = (0 until g.numVertices)
      .find(v => mlIdx.vtype(v) == NodeType.User && g.degree(v) >= 10).get
    val paths = rec.recommend(mlIdx, u, 8, seed = 3L)
    assume(paths.nonEmpty)
    val s = Summarizer.summarize(mlIdx, UserCentric(g.ids(u), paths), Summarizer.ST(1.0)).subgraph
    assert(s.componentCount <= 1 + s.isolated.length)
    assert(s.coveredTerminals.nonEmpty)
  }

  test("the Eq. (1) overlay into the workspace buffers allocates under 1 KB once warm") {
    val rec = new Pgpr
    val g = mlIdx.graph
    val users = (0 until g.numVertices)
      .filter(v => mlIdx.vtype(v) == NodeType.User && g.degree(v) >= 5).take(40)
    val group = UserGroup("g40", users.map(g.ids(_)), users.flatMap(u => rec.recommend(mlIdx, u, 10, seed = 3L)))
    assert(users.size == 40 && group.paths.size > 100, s"${group.paths.size} paths")
    val ws = g.workspace
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    WeightAdjust.overlayTable(mlIdx, group.paths, group.anchors, 1.0, ws)
    val before = bean.getCurrentThreadAllocatedBytes
    val m = WeightAdjust.overlayTable(mlIdx, group.paths, group.anchors, 1.0, ws)
    val allocated = bean.getCurrentThreadAllocatedBytes - before
    info(s"${group.paths.size} paths, $m overlay edges: $allocated B")
    assert(allocated < 1024, s"a warm overlay allocated $allocated bytes")
  }

  test("method labels are stable identifiers for the harness") {
    assert(Summarizer.ST(100.0).label == "st(λ=100.0)")
    assert(Summarizer.PCST().label == "pcst")
    assert(Summarizer.Paths.label == "paths")
  }
}
