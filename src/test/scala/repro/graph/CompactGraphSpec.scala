package repro.graph

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class CompactGraphSpec extends AnyFunSuite with PropSupport {

  // A small diamond: 0-1 (1.0), 0-2 (2.0), 1-3 (2.0), 2-3 (0.5), 1-2 (0.1)
  private def diamond: CompactGraph = CompactGraph.fromTriples(Seq(
    (0L, 1L, 1.0), (0L, 2L, 2.0), (1L, 3L, 2.0), (2L, 3L, 0.5), (1L, 2L, 0.1)))

  private def byWeight(g: CompactGraph): EdgeCost = (e: Int) => g.edgeWeight(e)

  /** Edge ids of the shortest path from `source` to `v` in source→v order,
    * read back with `pathLength` and `writePath` as the kernels read them.
    */
  private def shortestPath(g: CompactGraph, source: Int, v: Int): Array[Int] = {
    val ws = g.workspace
    g.search(ws, Array(source), 0, 1, byWeight(g), Double.PositiveInfinity)
    val path = new Array[Int](g.pathLength(ws, v))
    g.writePath(ws, v, path, path.length)
    path
  }

  test("CSR construction: vertex count, edge count, degrees") {
    val g = diamond
    assert(g.numVertices == 4)
    assert(g.numEdges == 5)
    assert(g.degree(g.indexOf(0)) == 2)
    assert(g.degree(g.indexOf(1)) == 3)
    assert(g.degree(g.indexOf(2)) == 3)
    assert(g.degree(g.indexOf(3)) == 2)
  }

  test("indexOf and ids round-trip; contains") {
    val g = diamond
    (0L to 3L).foreach(id => assert(g.ids(g.indexOf(id)) == id))
    assert(g.contains(2L) && !g.contains(99L))
    intercept[IllegalArgumentException](g.indexOf(99L))
  }

  test("dijkstra finds the cheap multi-hop route over the direct edge") {
    val g = diamond
    val res = g.dijkstra(g.indexOf(0), byWeight(g))
    // 0 -> 1 -> 2 -> 3 = 1.0 + 0.1 + 0.5 = 1.6 beats 0->2->3 = 2.5 and 0->1->3 = 3.0
    assert(math.abs(res.dist(g.indexOf(3)) - 1.6) < 1e-12)
    assert(shortestPath(g, g.indexOf(0), g.indexOf(3)).length == 3)
  }

  test("writePath reconstructs a contiguous path from source to target") {
    val g = diamond
    val path = shortestPath(g, g.indexOf(0), g.indexOf(3))
    // Packed behind other entries, the path fills exactly the slots before `end`.
    val packed = Array.fill(path.length + 3)(-7)
    g.writePath(g.workspace, g.indexOf(3), packed, path.length + 2)
    assert(packed.sameElements(Array(-7, -7) ++ path :+ -7))
    // Walk the edges and confirm they chain 0 -> ... -> 3.
    var cur = g.indexOf(0)
    path.foreach { e =>
      val (s, d) = (g.edgeSrc(e), g.edgeDst(e))
      assert(s == cur || d == cur, s"edge $e does not touch $cur")
      cur = if (s == cur) d else s
    }
    assert(cur == g.indexOf(3))
  }

  test("dijkstra with unreachable vertices reports +inf") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0), (2L, 3L, 1.0)))
    val res = g.dijkstra(g.indexOf(0), byWeight(g))
    assert(res.dist(g.indexOf(1)) == 1.0)
    assert(res.dist(g.indexOf(2)).isInfinity)
    assert(res.dist(g.indexOf(3)).isInfinity)
  }

  test("early-stopped dijkstra agrees with the full run on target dists") {
    val g = diamond
    val full = g.dijkstra(g.indexOf(0), byWeight(g))
    val stopped = g.dijkstra(g.indexOf(0), byWeight(g), targets = Array(g.indexOf(3)))
    assert(stopped.dist(g.indexOf(3)) == full.dist(g.indexOf(3)))
  }

  test("property: dijkstra distances match Floyd-Warshall") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(10)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val cost = byWeight(g)
      val fw = TestGraphs.floydWarshall(g, cost)
      (0 until g.numVertices).forall { s =>
        val res = g.dijkstra(s, cost)
        (0 until g.numVertices).forall { v =>
          val (a, b) = (res.dist(v), fw(s)(v))
          (a.isInfinity && b.isInfinity) || math.abs(a - b) < 1e-9
        }
      }
    }, minTests = 25)
  }

  test("property: path edge costs sum to the reported distance") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(10)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val cost = byWeight(g)
      val dist = g.dijkstra(0, cost).dist
      (0 until g.numVertices).filter(dist(_).isFinite).forall { v =>
        val sum = shortestPath(g, 0, v).map(cost(_)).sum
        math.abs(sum - dist(v)) < 1e-9
      }
    }, minTests = 25)
  }

  test("voronoi: owners are the nearest sources, dists match per-source dijkstra") {
    val g = diamond
    val sources = Array(g.indexOf(0), g.indexOf(3))
    val (dist, _, owner) = g.voronoi(sources, byWeight(g))
    val d0 = g.dijkstra(sources(0), byWeight(g))
    val d3 = g.dijkstra(sources(1), byWeight(g))
    (0 until g.numVertices).foreach { v =>
      val expected = math.min(d0.dist(v), d3.dist(v))
      assert(math.abs(dist(v) - expected) < 1e-12)
      if (d0.dist(v) < d3.dist(v)) assert(owner(v) == 0)
      if (d3.dist(v) < d0.dist(v)) assert(owner(v) == 1)
    }
  }

  test("voronoi maxDist prunes the search") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0)))
    val (dist, _, owner) = g.voronoi(Array(g.indexOf(0)), byWeight(g), maxDist = 1.5)
    assert(dist(g.indexOf(1)) == 1.0)
    assert(dist(g.indexOf(2)).isInfinity)
    assert(owner(g.indexOf(3)) == -1)
  }

  test("property: the search heap pops tied keys in java.util.PriorityQueue order") {
    // Few distinct keys, so most pushes tie; pops interleave with pushes.
    val op = Gen.frequency(2 -> Gen.choose(0, 3).map(k => Some(k * 0.25)), 1 -> Gen.const(None))
    checkProp(Prop.forAll(Gen.listOfN(300, op)) { ops =>
      val ws = new SearchSpace(1)
      val pq = new java.util.PriorityQueue[Array[Double]](64,
        (a: Array[Double], b: Array[Double]) => java.lang.Double.compare(a(0), b(0)))
      var v = 0
      ops.forall {
        case Some(key) =>
          ws.push(key, v); pq.add(Array(key, v.toDouble)); v += 1
          true
        case None =>
          if (pq.isEmpty) ws.heapEmpty
          else {
            val top = pq.poll()
            !ws.heapEmpty && ws.topKey == top(0) && ws.pop() == top(1).toInt
          }
      } && Iterator.continually(pq.poll()).takeWhile(_ != null).forall(top => ws.pop() == top(1).toInt) &&
        ws.heapEmpty
    }, minTests = 50)
  }

  /** Runs `searches` back to back in `ws` and checks each against the same
    * search in a fresh space: every vertex's dist, predArc, owner and
    * settled flag must agree.
    */
  private def matchesFresh(g: CompactGraph, ws: SearchSpace, rnd: scala.util.Random,
                           searches: Int): Boolean = {
    val cost = byWeight(g)
    (1 to searches).forall { _ =>
      val sources = rnd.shuffle((0 until g.numVertices).toList).take(1 + rnd.nextInt(3)).toArray
      val targets = rnd.nextInt(3) match {
        case 0 | 1 => Array.empty[Int]
        case _ => Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.numVertices))
      }
      val maxDist = if (rnd.nextBoolean()) Double.PositiveInfinity else 0.5 + 2 * rnd.nextDouble()
      val fresh = new SearchSpace(g.numVertices)
      val terms = sources ++ targets
      g.search(ws, terms, 0, sources.length, cost, maxDist)
      g.search(fresh, terms, 0, sources.length, cost, maxDist)
      (0 until g.numVertices).forall { v =>
        ws.dist(v) == fresh.dist(v) && ws.predArc(v) == fresh.predArc(v) &&
          ws.owner(v) == fresh.owner(v) && ws.settled(v) == fresh.settled(v)
      }
    }
  }

  test("property: back-to-back searches in one space match fresh searches") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(12), Gen.choose(0L, Long.MaxValue)) { (triples, seed) =>
      val g = CompactGraph.fromTriples(triples)
      matchesFresh(g, new SearchSpace(g.numVertices), new scala.util.Random(seed), searches = 20)
    }, minTests = 25)
  }

  test("searches across the epoch wraparound match fresh searches") {
    val g = CompactGraph.fromTriples(
      TestGraphs.randomGraphGen(12).pureApply(Gen.Parameters.default, org.scalacheck.rng.Seed(3L)))
    val ws = new SearchSpace(g.numVertices, startEpoch = Int.MaxValue - 3)
    assert(matchesFresh(g, ws, new scala.util.Random(5L), searches = 8))
  }

  test("a graph serialised after a search searches again on the copy") {
    val g = diamond
    val before = g.dijkstra(g.indexOf(0), byWeight(g))
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(g); out.close()
    val copy = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[CompactGraph]
    val after = copy.dijkstra(copy.indexOf(0), byWeight(copy))
    assert(after.dist.sameElements(before.dist) && after.predArc.sameElements(before.predArc))
  }

  test("property: each vertex's arcs are in non-decreasing edge-id order") {
    checkProp(Prop.forAll(TestGraphs.multigraphGen(9)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      (0 until g.numVertices).forall { v =>
        (g.offsets(v) until g.offsets(v + 1) - 1).forall(a => g.arcEdge(a) <= g.arcEdge(a + 1))
      }
    }, minTests = 50)
  }

  test("a source listed twice is rejected") {
    val g = diamond
    intercept[IllegalArgumentException](g.voronoi(Array(0, 2, 0), byWeight(g)))
  }

  /** Distances of a unit-cost search from `source`, as the graph statistics run it. */
  private def hops(g: CompactGraph, source: Int): Array[Double] = {
    val ws = g.workspace
    g.search(ws, Array(source), 0, 1, EdgeCost.uniform(1.0), Double.PositiveInfinity)
    Array.tabulate(g.numVertices)(ws.dist)
  }

  test("unit-cost search: hop counts over the undirected view") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 9.0), (1L, 2L, 9.0), (3L, 2L, 9.0)))
    val h = hops(g, g.indexOf(0))
    assert(h(g.indexOf(0)) == 0)
    assert(h(g.indexOf(1)) == 1)
    assert(h(g.indexOf(2)) == 2)
    assert(h(g.indexOf(3)) == 3) // reached against edge direction
  }

  test("property: unit-cost search distances equal breadth-first hop counts") {
    checkProp(Prop.forAll(TestGraphs.multigraphGen(12)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      (0 until g.numVertices).forall { s =>
        val bfs = Array.fill(g.numVertices)(-1)
        val queue = scala.collection.mutable.Queue(s)
        bfs(s) = 0
        while (queue.nonEmpty) {
          val u = queue.dequeue()
          (g.offsets(u) until g.offsets(u + 1)).map(g.arcTarget).filter(bfs(_) < 0)
            .foreach { v => bfs(v) = bfs(u) + 1; queue.enqueue(v) }
        }
        hops(g, s).sameElements(bfs.map(h => if (h < 0) Double.PositiveInfinity else h.toDouble))
      }
    }, minTests = 50)
  }

  test("fromTriples rejects a NaN or infinite edge weight, naming the edge") {
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { w =>
      val err = intercept[IllegalArgumentException](
        CompactGraph.fromTriples(Seq((10L, 20L, 1.0), (20L, 30L, w))))
      assert(err.getMessage.contains("edge 20 -> 30"), err.getMessage)
    }
  }

  test("fromEdges rejects a NaN or infinite edge weight, naming the edge") {
    val spark = repro.SparkSpec.shared
    import spark.implicits._
    Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity).foreach { w =>
      val edges = Seq((10L, 20L, 1.0), (30L, 20L, w)).toDF("src", "dst", "weight")
      val err = intercept[IllegalArgumentException](CompactGraph.fromEdges(edges))
      assert(err.getMessage.contains("edge 30 -> 20"), err.getMessage)
    }
  }

  test("fromTriples and fromEdges build identical graphs") {
    val spark = repro.SparkSpec.shared
    import spark.implicits._
    val triples = Seq((10L, 20L, 1.5), (20L, 30L, 2.5), (10L, 30L, 3.5))
    val a = CompactGraph.fromTriples(triples)
    val b = CompactGraph.fromEdges(triples.toDF("src", "dst", "weight"))
    assert(a.ids.sameElements(b.ids))
    assert(a.numEdges == b.numEdges)
    (0 until a.numVertices).foreach(v => assert(a.degree(v) == b.degree(v)))
    val da = a.dijkstra(0, byWeight(a))
    val db = b.dijkstra(0, byWeight(b))
    assert(da.dist.sameElements(db.dist))
  }
}
