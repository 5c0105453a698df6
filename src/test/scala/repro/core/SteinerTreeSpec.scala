package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.graph.{CompactGraph, DisjointSet, EdgeCost, TestGraphs}
import repro.graph.DisjointSetChecks._

class SteinerTreeSpec extends AnyFunSuite with PropSupport {

  private def byWeight(g: CompactGraph): EdgeCost = (e: Int) => g.edgeWeight(e)

  private def treeCost(g: CompactGraph, cost: EdgeCost, r: TreeResult): Double =
    r.edgeIds.map(cost(_)).sum

  /** Summary must connect all terminals that share a component in G. */
  private def connectsTerminals(g: CompactGraph, r: TreeResult, terminals: Array[Int]): Boolean = {
    val ds = new DisjointSet(g.numVertices)
    r.edgeIds.foreach(e => ds.union(g.edgeSrc(e), g.edgeDst(e)))
    val gds = new DisjointSet(g.numVertices)
    (0 until g.numEdges).foreach(e => gds.union(g.edgeSrc(e), g.edgeDst(e)))
    terminals.combinations(2).forall { case Array(a, b) =>
      !gds.connected(a, b) || ds.connected(a, b)
    }
  }

  test("two terminals: summary is their shortest path") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 1L, 1.0), (1L, 2L, 1.0), (0L, 2L, 5.0)))
    val r = SteinerTree.summarize(g, byWeight(g), Array(g.indexOf(0), g.indexOf(2)))
    assert(r.edgeIds.length == 2) // 0-1-2 beats the direct 5.0 edge
    assert(math.abs(treeCost(g, byWeight(g), r) - 2.0) < 1e-12)
  }

  test("star: terminals on leaves connect through the hub (a Steiner node)") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 9L, 1.0), (1L, 9L, 1.0), (2L, 9L, 1.0)))
    val terms = Array(g.indexOf(0), g.indexOf(1), g.indexOf(2))
    val r = SteinerTree.summarize(g, byWeight(g), terms)
    assert(r.edgeIds.length == 3)
    assert(connectsTerminals(g, r, terms))
    // The hub is included although it is not a terminal.
    val nodes = r.edgeIds.flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e))).toSet
    assert(nodes.contains(g.indexOf(9)))
  }

  test("single terminal or empty set yields an empty summary") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0)))
    assert(SteinerTree.summarize(g, byWeight(g), Array(0)).edgeIds.isEmpty)
    assert(SteinerTree.summarize(g, byWeight(g), Array.empty).edgeIds.isEmpty)
  }

  test("duplicate terminals are deduplicated") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0)))
    val r = SteinerTree.summarize(g, byWeight(g), Array(0, 0, 1, 1))
    assert(r.edgeIds.length == 1)
  }

  test("terminals in different components yield a forest, no invented edges") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 1L, 1.0), (2L, 3L, 1.0))) // two components
    val terms = Array(g.indexOf(0), g.indexOf(1), g.indexOf(2), g.indexOf(3))
    val r = SteinerTree.summarize(g, byWeight(g), terms)
    assert(r.edgeIds.length == 2) // both intra-component edges, nothing across
    assert(connectsTerminals(g, r, terms))
  }

  test("weight-seeking: the cost transform routes through heavy edges") {
    // Two routes 0->3: via 1 (weights 5,5) or via 2 (weights 1,1).
    val g = CompactGraph.fromTriples(Seq(
      (0L, 1L, 5.0), (1L, 3L, 5.0), (0L, 2L, 1.0), (2L, 3L, 1.0)))
    val wMax = 5.0
    val cost: EdgeCost = (e: Int) => wMax - g.edgeWeight(e) + Summarizer.Delta
    val r = SteinerTree.summarize(g, cost, Array(g.indexOf(0), g.indexOf(3)))
    val nodes = r.edgeIds.flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e))).toSet
    assert(nodes.contains(g.indexOf(1)) && !nodes.contains(g.indexOf(2)))
  }

  test("a NaN edge cost is rejected, naming the edge") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (0L, 2L, 5.0)))
    val nan: EdgeCost = (e: Int) => if (e == 1) Double.NaN else g.edgeWeight(e)
    val err = intercept[IllegalArgumentException](
      SteinerTree.summarize(g, nan, Array(g.indexOf(0), g.indexOf(2))))
    assert(err.getMessage.contains("edge 1 has cost NaN"), err.getMessage)
  }

  test("deterministic across repeated runs") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 1L, 1.0), (1L, 2L, 2.0), (2L, 3L, 1.0), (0L, 3L, 2.5), (1L, 3L, 2.0)))
    val terms = Array(g.indexOf(0), g.indexOf(2), g.indexOf(3))
    val a = SteinerTree.summarize(g, byWeight(g), terms)
    val b = SteinerTree.summarize(g, byWeight(g), terms)
    assert(a.edgeIds.sameElements(b.edgeIds))
  }

  test("pathNodeOccurrences >= nodes in the summary") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 9L, 1.0), (1L, 9L, 1.0), (2L, 9L, 1.0)))
    val r = SteinerTree.summarize(g, byWeight(g), Array(0, 1, 2))
    val nodes = r.edgeIds.flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e))).toSet
    assert(r.pathNodeOccurrences >= nodes.size)
  }

  test("property: summary connects all co-component terminals") {
    val gen = for {
      triples <- TestGraphs.randomGraphGen(12)
      nTerms <- Gen.choose(2, 5)
    } yield (triples, nTerms)
    checkProp(Prop.forAll(gen) { case (triples, nTerms) =>
      val g = CompactGraph.fromTriples(triples)
      val terms = (0 until math.min(nTerms, g.numVertices)).toArray
      val r = SteinerTree.summarize(g, byWeight(g), terms)
      connectsTerminals(g, r, terms)
    }, minTests = 40)
  }

  test("property: KMB cost is within 2x of the exact Steiner optimum") {
    val gen = for {
      triples <- TestGraphs.randomGraphGen(9)
      nTerms <- Gen.choose(2, 4)
    } yield (triples, nTerms)
    checkProp(Prop.forAll(gen) { case (triples, nTerms) =>
      val g = CompactGraph.fromTriples(triples)
      val cost = byWeight(g)
      val terms = (0 until math.min(nTerms, g.numVertices)).toArray
      val approx = treeCost(g, cost, SteinerTree.summarize(g, cost, terms))
      val exact = TestGraphs.exactSteinerCost(g, cost, terms)
      exact.isInfinity || approx <= 2.0 * exact + 1e-9
    }, minTests = 40)
  }

  test("property: summary edge set is a forest") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(12)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val terms = (0 until math.min(4, g.numVertices)).toArray
      val r = SteinerTree.summarize(g, byWeight(g), terms)
      val nodes = r.edgeIds.flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e))).toSet
      val ds = new DisjointSet(g.numVertices)
      r.edgeIds.foreach(e => ds.union(g.edgeSrc(e), g.edgeDst(e)))
      val components = nodes.map(ds.find).size
      // KMB unions shortest paths; the union must be a forest on V_S.
      r.edgeIds.length == nodes.size - components
    }, minTests = 40)
  }

  test("a held result is unchanged by a larger PCST summary on the same thread") {
    val g = CompactGraph.fromTriples((0L until 30L).map(i => (i, i + 1, 1.0)))
    val held = SteinerTree.summarize(g, byWeight(g), Array(0, 3).map(g.indexOf(_)))
    val before = held.edgeIds.clone()
    val other = Pcst.summarize(g, EdgeCost.uniform(0.25), (10 until 31 by 2).map(g.indexOf(_)).toArray,
      Array.fill(11)(1.0))
    assert(other.edgeIds.length > held.edgeIds.length)
    assert(held.edgeIds.sameElements(before))
  }
}
