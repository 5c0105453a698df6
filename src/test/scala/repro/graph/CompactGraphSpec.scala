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
    ws.search(g, Array(source), 0, 1, 1, ws.fillCosts(g, byWeight(g)), Double.PositiveInfinity)
    val path = new Array[Int](ws.pathLength(g, v))
    ws.writePath(g, v, path, path.length)
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
    g.workspace.writePath(g, g.indexOf(3), packed, path.length + 2)
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

  test("addPath adds the path's new edges to the edge set, nearest the target first") {
    val g = diamond
    val path = shortestPath(g, g.indexOf(0), g.indexOf(3)) // source→target order
    val ws = g.workspace
    ws.clearEdges(g.numEdges)
    assert(ws.addEdge(path(0)))
    assert(ws.addPath(g, g.indexOf(3)) == path.length)
    assert(ws.addPath(g, g.indexOf(0)) == 0)
    assert(ws.edgeIds.sameElements(path(0) +: path.reverse.init))
  }

  test("a space before its first search reads every vertex unreached, unsettled and unmarked") {
    def unreached(ws: SearchSpace, n: Int): Boolean = (0 until n).forall { v =>
      ws.dist(v) == Double.PositiveInfinity && ws.predArc(v) == -1 && ws.owner(v) == -1 &&
        !ws.settled(v) && !ws.marked(v)
    }
    assert(unreached(new SearchSpace(5), 5))
    // A new thread's space, grown by two graphs' fitVertices before it searches.
    val larger = CompactGraph.fromTriples((0L until 40L).map(v => (v, v + 1, 1.0)))
    val seen = new java.util.concurrent.atomic.AtomicReference[(Boolean, Boolean)]
    val thread = new Thread(() => seen.set((unreached(diamond.workspace, 4), unreached(larger.workspace, 41))))
    thread.start(); thread.join()
    assert(seen.get == ((true, true)))
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

  test("property: searches on a filled cost buffer match Floyd-Warshall") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(10)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val cost = byWeight(g)
      val fw = TestGraphs.floydWarshall(g, cost)
      val ws = new SearchSpace(g.numVertices)
      val costs = ws.fillCosts(g, cost) // filled once, read by every search below
      (0 until 2 * g.numEdges).forall(a => costs(a) == cost(g.arcEdge(a))) &&
        (0 until g.numVertices).forall { s =>
          ws.search(g, Array(s), 0, 1, 1, costs, Double.PositiveInfinity)
          (0 until g.numVertices).forall { v =>
            val (a, b) = (ws.dist(v), fw(s)(v))
            (a.isInfinity && b.isInfinity) || math.abs(a - b) < 1e-9
          }
        }
    }, minTests = 25)
  }

  test("property: a uniform cost's one-entry array searches like a per-arc buffer of it") {
    checkProp(Prop.forAll(TestGraphs.multigraphGen(12), Gen.choose(0, 11)) { (triples, source) =>
      val g = CompactGraph.fromTriples(triples)
      val (one, perArc) = (new SearchSpace(g.numVertices), new SearchSpace(g.numVertices))
      val lone = one.fillCosts(g, EdgeCost.uniform(0.25))
      val full = perArc.fillCosts(g, (_: Int) => 0.25)
      val s = source % g.numVertices
      one.search(g, Array(s), 0, 1, 1, lone, 1.0)
      perArc.search(g, Array(s), 0, 1, 1, full, 1.0)
      lone.length == 1 && full.length == 2 * g.numEdges && (0 until g.numVertices).forall { v =>
        one.dist(v) == perArc.dist(v) && one.predArc(v) == perArc.predArc(v) && one.settled(v) == perArc.settled(v)
      }
    }, minTests = 50)
  }

  test("fillCosts rejects a NaN or negative edge cost, naming the edge") {
    val g = diamond
    val ws = new SearchSpace(g.numVertices)
    Seq(Double.NaN, -0.5).foreach { bad =>
      val oracle: EdgeCost = (e: Int) => if (e == 3) bad else 1.0
      val err = intercept[IllegalArgumentException](ws.fillCosts(g, oracle))
      assert(err.getMessage.contains(s"edge 3 has cost $bad"), err.getMessage)
      val uniform = intercept[IllegalArgumentException](ws.fillCosts(g, EdgeCost.uniform(bad)))
      assert(uniform.getMessage.contains(s"edge 0 has cost $bad"), uniform.getMessage)
    }
    // Zero and +∞ are legal: a free edge, and one no search crosses.
    val costs = ws.fillCosts(g, (e: Int) => if (e == 4) Double.PositiveInfinity else 0.0)
    ws.search(g, Array(g.indexOf(0)), 0, 1, 1, costs, Double.PositiveInfinity)
    assert((0 until g.numVertices).forall(v => ws.dist(v) == 0.0))
  }

  /** An Eq. (1) overlay as `fillOverlaidCosts` takes it: ascending edge
    * ids, their weights, and the count of them.
    */
  private final class Overlay(val edges: Array[Int], val weights: Array[Double], val m: Int)

  /** The overlay of `boosted` (edge id → weight, in any order), written
    * into buffers with `extra` stale entries past its count.
    */
  private def overlayOf(boosted: Seq[(Int, Double)], extra: Int = 0): Overlay = {
    val sorted = boosted.sortBy(_._1)
    new Overlay((sorted.map(_._1) ++ Seq.fill(extra)(-7)).toArray,
      (sorted.map(_._2) ++ Seq.fill(extra)(Double.NaN)).toArray, sorted.size)
  }

  /** The Eq. (1) cost oracle as the summarizer ran it per edge before the
    * gather: an overlay lookup, then `(wm − w) + delta`.
    */
  private def eq1Oracle(g: CompactGraph, wm: Double, overlay: Overlay, delta: Double): EdgeCost = {
    val boosted = (0 until overlay.m).map(i => overlay.edges(i) -> overlay.weights(i)).toMap
    (e: Int) => (wm - boosted.getOrElse(e, g.edgeWeight(e))) + delta
  }

  /** An Eq. (1) overlay on `g` for λ: each edge is boosted with chance 1/2
    * at the highest-degree vertex and 1/5 elsewhere, by c of `anchors` paths.
    */
  private def randomOverlay(g: CompactGraph, lambda: Double, rnd: scala.util.Random): Overlay = {
    val hub = (0 until g.numVertices).maxBy(g.degree)
    val anchors = 1 + rnd.nextInt(5)
    val boosted = (0 until g.numEdges).flatMap { e =>
      val atHub = g.edgeSrc(e) == hub || g.edgeDst(e) == hub
      if (rnd.nextInt(10) < (if (atHub) 5 else 2)) {
        val c = 1 + rnd.nextInt(anchors)
        Some(e -> g.edgeWeight(e) * (1.0 + lambda * c.toDouble / anchors))
      } else None
    }
    overlayOf(boosted, extra = rnd.nextInt(3))
  }

  private def maxWeight(g: CompactGraph, overlay: Overlay): Double =
    (overlay.weights.take(overlay.m) ++ g.edgeWeight).max

  private def fill(g: CompactGraph, ws: SearchSpace, wm: Double, o: Overlay, delta: Double): Array[Double] =
    ws.fillOverlaidCosts(g, wm, o.edges, o.weights, o.m, delta)

  test("property: Eq. (1) gather and overlay patch equal the oracle fill bit for bit") {
    val gen = for {
      triples <- TestGraphs.multigraphGen(12)
      seed <- Gen.choose(0L, Long.MaxValue)
      lambda <- Gen.oneOf(0.01, 1.0, 100.0)
    } yield (triples, seed, lambda)
    checkProp(Prop.forAll(gen) { case (triples, seed, lambda) =>
      val rnd = new scala.util.Random(seed)
      // Parallel edges and self-loops with distinct weights, joined at a hub.
      val g = CompactGraph.fromTriples(triples.map { case (a, b, _) => (a, b, 0.1 + 3 * rnd.nextDouble()) })
      val ws = new SearchSpace(g.numVertices)
      // A fill for another overlay first: the second must leave no stale patch.
      val stale = randomOverlay(g, lambda, rnd)
      fill(g, ws, maxWeight(g, stale), stale, 1e-6)
      val overlay = randomOverlay(g, lambda, rnd)
      val wm = maxWeight(g, overlay)
      val gathered = fill(g, ws, wm, overlay, 1e-6)
      val oracle = new SearchSpace(g.numVertices).fillCosts(g, eq1Oracle(g, wm, overlay, 1e-6))
      (0 until 2 * g.numEdges).forall { a =>
        java.lang.Double.doubleToRawLongBits(gathered(a)) == java.lang.Double.doubleToRawLongBits(oracle(a))
      }
    }, minTests = 100)
  }

  test("fillOverlaidCosts rejects a NaN or negative cost, naming the edge") {
    val g = diamond
    val ws = new SearchSpace(g.numVertices)
    def message(wm: Double, boosted: (Int, Double)*): String =
      intercept[IllegalArgumentException](fill(g, ws, wm, overlayOf(boosted, extra = 2), 0.0)).getMessage
    // An overlay weight above wm, or a NaN one, makes that edge's patched cost bad.
    assert(message(2.0, 3 -> 2.5).contains("edge 3 has cost -0.5"))
    assert(message(2.0, 4 -> Double.NaN).contains("edge 4 has cost NaN"))
    // Two bad overlay edges: the overlay ascends, so the lower id is named.
    assert(message(2.0, 3 -> 2.5, 1 -> 3.0).contains("edge 1 has cost -1.0"))
    // A NaN wm: every cost is NaN, and arc 0 belongs to edge 0.
    assert(message(Double.NaN).contains("edge 0 has cost NaN"))
    // wm below base weights 2.0: edge 1's arc comes first, unless the overlay
    // replaces its weight, when edge 2 is the first bad one.
    assert(message(1.5).contains("edge 1 has cost -0.5"))
    assert(message(1.5, 1 -> 1.0).contains("edge 2 has cost -0.5"))
    // A legal fill: the diamond's weights under wm 2.0, edge 4 boosted to 1.0.
    val costs = fill(g, ws, 2.0, overlayOf(Seq(4 -> 1.0), extra = 2), 0.0)
    assert((0 until 2 * g.numEdges).forall { a =>
      val e = g.arcEdge(a)
      costs(a) == (if (e == 4) 1.0 else 2.0 - g.edgeWeight(e))
    })
  }

  /** Inputs for the vertex dedupe on 14 vertices: repeats are common, and a
    * third of the inputs have none; `extra` unread entries may follow the `n` read ones.
    */
  private val dedupeInput: Gen[(Array[Int], Int)] = for {
    xs <- Gen.oneOf(Gen.listOf(Gen.choose(0, 12)), Gen.listOf(Gen.choose(0, 12)),
      Gen.containerOf[Set, Int](Gen.choose(0, 12)).map(_.toList))
    extra <- Gen.frequency(2 -> Gen.const(0), 1 -> Gen.choose(1, 3))
  } yield (xs.toArray ++ Array.fill(extra)(13), xs.length)

  private def dedupes(ws: SearchSpace, input: Array[Int], n: Int): Boolean = {
    val a = input.clone()
    val count = ws.distinctVertices(a, n)
    val expected = input.take(n).distinct
    count == expected.length && a.take(count).toSeq == expected.toSeq &&
      a.drop(count).sameElements(input.drop(count)) &&
      expected.forall(ws.marked) && (0 until 14).count(ws.marked) == expected.length
  }

  test("property: distinctVertices keeps first occurrences") {
    val ws = new SearchSpace(14) // reused, so no mark may outlive its call
    checkProp(Prop.forAll(dedupeInput) { case (a, n) => dedupes(ws, a, n) }, minTests = 200)
  }

  test("distinctVertices across the mark-epoch wraparound") {
    val ws = new SearchSpace(14, startEpoch = Int.MaxValue - 3)
    val inputs = (1L to 8L).map(seed =>
      dedupeInput.pureApply(Gen.Parameters.default, org.scalacheck.rng.Seed(seed)))
    assert(inputs.forall { case (a, n) => dedupes(ws, a, n) })
    // A search with targets between the dedupes: it keeps its settle-set in
    // the mark set, so it must ignore the dedupe's marks, and the next dedupe
    // the search's. Each start puts the wrap at another call; from
    // Int.MaxValue it comes in the first search.
    val g = CompactGraph.fromTriples((0L until 14L).flatMap(v => Seq((v, (v + 1) % 14, 1.0 + v % 3),
      (v, (v * 5 + 3) % 14, 2.5))))
    val cost = byWeight(g)
    (0 to 3).foreach { back =>
      val space = new SearchSpace(14, startEpoch = Int.MaxValue - back)
      inputs.zipWithIndex.foreach { case ((a, n), i) =>
        val terms = Array(i % 14, (i + 5) % 14) ++ a.take(n).filter(v => v != i % 14 && v != (i + 5) % 14)
        val fresh = new SearchSpace(14)
        space.search(g, terms, 0, 1, terms.length, space.fillCosts(g, cost), Double.PositiveInfinity)
        fresh.search(g, terms, 0, 1, terms.length, fresh.fillCosts(g, cost), Double.PositiveInfinity)
        assert((0 until 14).forall(v => space.settled(v) == fresh.settled(v) && space.dist(v) == fresh.dist(v)),
          s"search $i from epoch Int.MaxValue - $back")
        assert(dedupes(space, a, n), s"dedupe $i from epoch Int.MaxValue - $back")
      }
    }
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

  test("property: a multi-source search records the proposals of a scan over all edges") {
    // Integer costs tie often, so the edge-id rule decides; random ones
    // round differently under another order of the three-term sum.
    checkProp(Prop.forAll(TestGraphs.chainMultigraphGen(16), Gen.oneOf(true, false), Gen.choose(0L, Long.MaxValue)) {
      (triples, integral, seed) =>
        val g = CompactGraph.fromTriples(triples)
        val rnd = new scala.util.Random(seed)
        val perEdge = Array.fill(g.numEdges)(if (integral) rnd.nextInt(4).toDouble else 0.5 + rnd.nextDouble())
        val cost: EdgeCost =
          if (rnd.nextInt(4) == 0) EdgeCost.uniform(if (integral) 1.0 else 0.1) else (e: Int) => perEdge(e)
        // From 2 sources up to all vertices: n(n−1)/2 pairs both within |E| and beyond it.
        val sources = rnd.shuffle((0 until g.numVertices).toList).take(2 + rnd.nextInt(g.numVertices - 1)).toArray
        val n = sources.length
        val maxDist = if (rnd.nextBoolean()) Double.PositiveInfinity else 6 * rnd.nextDouble()
        val ws = new SearchSpace(g.numVertices)
        val arcCosts = ws.fillCosts(g, cost)
        ws.search(g, sources, 0, n, n, arcCosts, maxDist)
        val recorded = TestGraphs.proposalsOf(g, ws, n, arcCosts)
        val reference = TestGraphs.scanProposals(g, ws, cost)
        // A single-source search leaves them alone.
        val triangle = ws.proposals.take(n * (n - 1) / 2)
        ws.search(g, sources, 0, 1, n, arcCosts, maxDist)
        // The first multi-source search sizes the triangle for every n with
        // n(n−1)/2 ≤ |E|: the largest such n reuses it.
        val fresh = new SearchSpace(g.numVertices)
        fresh.search(g, sources, 0, 2, n, arcCosts, maxDist)
        val first = fresh.proposals
        val largest = (2 to g.numVertices).takeWhile(k => k * (k - 1) / 2 <= g.numEdges).last
        fresh.search(g, (0 until g.numVertices).toArray, 0, largest, g.numVertices, arcCosts, maxDist)
        recorded == reference && ws.proposals.take(n * (n - 1) / 2).sameElements(triangle) &&
          (fresh.proposals eq first)
    }, minTests = 200)
  }

  test("a boundary edge's cost is summed in its own direction, not in settle order") {
    // Regions of sources 0 and 1. Edge 0 runs from x = 2 (settled at 0.1) to
    // y = 3 (settled at 0.3): (0.1 + 0.2) + 0.3 exceeds 0.6 by an ulp, while
    // the settle-order sum (0.3 + 0.2) + 0.1 would tie edge 3's 0.6 and win
    // on its lower id.
    val g = CompactGraph.fromTriples(Seq((2L, 3L, 0.2), (0L, 2L, 0.1), (1L, 3L, 0.3), (0L, 1L, 0.6)))
    val ws = new SearchSpace(g.numVertices)
    val costs = ws.fillCosts(g, byWeight(g))
    ws.search(g, Array(0, 1), 0, 2, 2, costs, Double.PositiveInfinity)
    assert(TestGraphs.proposalsOf(g, ws, 2, costs) == Map(1L -> ((0.6, 3))))
    assert(TestGraphs.scanProposals(g, ws, byWeight(g)) == Map(1L -> ((0.6, 3))))
  }

  /** Runs `searches` back to back in `ws` and checks each against the same
    * search in a fresh space: every vertex's dist, predArc, owner and
    * settled flag must agree, and so must the proposals of a search with
    * two or more sources. Before each search, a dedupe leaves 0 to 3
    * random vertices marked in `ws` (the fresh space has none): the search
    * keeps its settle-set in the mark set, so no stale mark may count as a
    * target.
    */
  private def matchesFresh(g: CompactGraph, ws: SearchSpace, rnd: scala.util.Random,
                           searches: Int): Boolean = {
    val cost = byWeight(g)
    def proposals(space: SearchSpace, n: Int) = TestGraphs.proposalsOf(g, space, n, space.fillCosts(g, cost))
    (1 to searches).forall { _ =>
      val sources = rnd.shuffle((0 until g.numVertices).toList).take(1 + rnd.nextInt(3)).toArray
      val targets = rnd.nextInt(3) match {
        case 0 | 1 => Array.empty[Int]
        case _ => Array.fill(1 + rnd.nextInt(3))(rnd.nextInt(g.numVertices))
      }
      val maxDist = if (rnd.nextBoolean()) Double.PositiveInfinity else 0.5 + 2 * rnd.nextDouble()
      val fresh = new SearchSpace(g.numVertices)
      val terms = sources ++ targets
      // `ws` reads its settle-set from a longer buffer: the entries past its end are no targets.
      val buffer = terms ++ Array.fill(rnd.nextInt(3))(rnd.nextInt(g.numVertices))
      val stale = Array.fill(rnd.nextInt(4))(rnd.nextInt(g.numVertices))
      ws.distinctVertices(stale, stale.length)
      ws.search(g, buffer, 0, sources.length, terms.length, ws.fillCosts(g, cost), maxDist)
      fresh.search(g, terms, 0, sources.length, terms.length, fresh.fillCosts(g, cost), maxDist)
      (0 until g.numVertices).forall { v =>
        ws.dist(v) == fresh.dist(v) && ws.predArc(v) == fresh.predArc(v) &&
          ws.owner(v) == fresh.owner(v) && ws.settled(v) == fresh.settled(v)
      } && (sources.length < 2 || proposals(ws, sources.length) == proposals(fresh, sources.length))
    }
  }

  /** A graph of 13 to 24 vertices: more than any of `randomGraphGen(12)`. */
  private val largerGraph = TestGraphs.randomGraphGen(24, minNodes = 13)

  test("property: back-to-back searches in one space match fresh searches") {
    // One space serves a graph, a larger one and the first again, as a
    // thread's space serves every graph the thread summarises on.
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(12), largerGraph, Gen.choose(0L, Long.MaxValue)) {
      (triples, largerTriples, seed) =>
        val (g, larger) = (CompactGraph.fromTriples(triples), CompactGraph.fromTriples(largerTriples))
        val ws = new SearchSpace(g.numVertices)
        val rnd = new scala.util.Random(seed)
        matchesFresh(g, ws, rnd, searches = 20) &&
          matchesFresh(larger, ws.fitVertices(larger.numVertices), rnd, searches = 20) &&
          matchesFresh(g, ws.fitVertices(g.numVertices), rnd, searches = 20)
    }, minTests = 25)
  }

  test("searches across the epoch wraparound match fresh searches") {
    def graph(gen: Gen[Seq[(Long, Long, Double)]], seed: Long) =
      CompactGraph.fromTriples(gen.pureApply(Gen.Parameters.default, org.scalacheck.rng.Seed(seed)))
    val (g, larger) = (graph(TestGraphs.randomGraphGen(12), 3L), graph(largerGraph, 4L))
    val ws = new SearchSpace(g.numVertices, startEpoch = Int.MaxValue - 3)
    assert(matchesFresh(g, ws, new scala.util.Random(5L), searches = 8))
    // Across a graph switch: three searches bring the epoch to Int.MaxValue − 1,
    // and the larger graph's second search wraps it, with stamps of both graphs in the arrays.
    val switching = new SearchSpace(g.numVertices, startEpoch = Int.MaxValue - 4)
    val rnd = new scala.util.Random(5L)
    assert(matchesFresh(g, switching, rnd, searches = 3))
    assert(matchesFresh(larger, switching.fitVertices(larger.numVertices), rnd, searches = 4))
    assert(matchesFresh(g, switching.fitVertices(g.numVertices), rnd, searches = 4))
  }

  test("one thread has one workspace for every graph; another thread has its own") {
    val (a, b) = (diamond, CompactGraph.fromTriples((0L until 40L).map(v => (v, v + 1, 1.0))))
    val ws = a.workspace
    assert(b.workspace eq ws)
    assert(a.workspace eq ws) // serving the smaller graph again neither shrinks nor replaces it
    // After a's triangle of |E_a| slots, b's first multi-source search grows
    // it to b's |E|, so no n with n(n−1)/2 ≤ |E_b| grows it on b, nor on a.
    val fresh = new SearchSpace(0)
    def search(g: CompactGraph, sources: Int): Unit =
      fresh.fitVertices(g.numVertices)
        .search(g, (0 until sources).toArray, 0, sources, sources, fresh.fillCosts(g, EdgeCost.uniform(1.0)),
          Double.PositiveInfinity)
    search(a, 2)
    assert(fresh.proposals.length == a.numEdges)
    search(b, 2)
    val triangle = fresh.proposals
    assert(triangle.length == b.numEdges)
    search(b, 9) // 36 pairs of 40
    search(a, 4)
    assert(fresh.proposals eq triangle)
    val other = new java.util.concurrent.atomic.AtomicReference[(SearchSpace, SearchSpace)]
    val thread = new Thread(() => other.set((a.workspace, b.workspace)))
    thread.start(); thread.join()
    val (otherA, otherB) = other.get
    assert((otherA eq otherB) && (otherA ne ws))
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
    ws.search(g, Array(source), 0, 1, 1, ws.fillCosts(g, EdgeCost.uniform(1.0)), Double.PositiveInfinity)
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

  test("fromEdges over 8 partitions, some empty, equals fromTriples over a collect(), edge by edge") {
    val spark = repro.SparkSpec.shared
    val edges = spark.range(0, 3000, 1, numPartitions = 8)
      .filter("id < 700 or id >= 2250") // partitions 2 to 5 empty
      .selectExpr("id % 97 as src", "1000 + (id * 31) % 113 as dst", "cast(id % 5 as double) * 0.5 as weight")
    assert(edges.rdd.getNumPartitions == 8)
    val rows = edges.collect()
    val expected = CompactGraph.fromTriples(rows.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq)
    val got = CompactGraph.fromEdges(edges)
    assert(got.numEdges == rows.length)
    assert(got.edgeSrc.sameElements(expected.edgeSrc))
    assert(got.edgeDst.sameElements(expected.edgeDst))
    assert(got.edgeWeight.sameElements(expected.edgeWeight))
    assert(got.ids.sameElements(expected.ids))
    assert(got.offsets.sameElements(expected.offsets))
    assert(got.arcTarget.sameElements(expected.arcTarget) && got.arcEdge.sameElements(expected.arcEdge))
  }

  test("fromEdges rejects a null src, dst or weight on the driver, naming the row") {
    val spark = repro.SparkSpec.shared
    import spark.implicits._
    Seq(
      (Option.empty[Long], Option(20L), Option(1.5), "(null, 20, 1.5)"),
      (Option(30L), Option.empty[Long], Option(2.5), "(30, null, 2.5)"),
      (Option(30L), Option(40L), Option.empty[Double], "(30, 40, null)"),
    ).foreach { case (src, dst, weight, named) =>
      val edges = Seq((Option(10L), Option(20L), Option(1.0)), (src, dst, weight)).toDF("src", "dst", "weight")
      val err = intercept[IllegalArgumentException](CompactGraph.fromEdges(edges))
      assert(err.getMessage.contains(named) && err.getMessage.contains("null"), err.getMessage)
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
