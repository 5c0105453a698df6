package repro.core

import org.scalacheck.Prop
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.graph.{CompactGraph, DisjointSet, EdgeCost, TestGraphs}

class PcstSpec extends AnyFunSuite with PropSupport {

  private val unit: EdgeCost = EdgeCost.uniform(0.25)

  test("two adjacent terminals with ample prizes merge via their edge") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0)))
    val r = Pcst.summarize(g, unit, Array(0, 1), Array(1.0, 1.0))
    assert(r.edgeIds.length == 1)
  }

  test("connection costlier than the combined prizes is forfeited") {
    // 0 -...- 5: path of 5 edges, cost 5 * 0.25 = 1.25 > 1.0 = p(0) + p(5).
    val g = CompactGraph.fromTriples(
      (0L until 5L).map(i => (i, i + 1, 1.0)))
    val r = Pcst.summarize(g, unit, Array(g.indexOf(0), g.indexOf(5)), Array(0.5, 0.5))
    assert(r.edgeIds.isEmpty)
  }

  test("connection affordable under the combined prizes is accepted") {
    val g = CompactGraph.fromTriples(
      (0L until 5L).map(i => (i, i + 1, 1.0)))
    val r = Pcst.summarize(g, unit, Array(g.indexOf(0), g.indexOf(5)), Array(1.0, 1.0))
    assert(r.edgeIds.length == 5) // the whole path: intermediate Steiner nodes included
  }

  test("budget chaining: a merged component can fund further connections") {
    // Terminals 0,1 adjacent (cheap merge keeps most budget), terminal 4
    // three hops away: 0.75 <= remaining(0+1) + p(4).
    val g = CompactGraph.fromTriples(Seq(
      (0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0), (3L, 4L, 1.0)))
    val r = Pcst.summarize(g, unit, Array(0, 1, 4).map(g.indexOf(_)),
      Array(1.0, 1.0, 1.0))
    val ds = new DisjointSet(g.numVertices)
    r.edgeIds.foreach(e => ds.union(g.edgeSrc(e), g.edgeDst(e)))
    assert(ds.connected(g.indexOf(0), g.indexOf(4)))
  }

  test("single terminal yields an empty result") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0)))
    assert(Pcst.summarize(g, unit, Array(0), Array(1.0)).edgeIds.isEmpty)
  }

  test("duplicate terminals keep the max prize") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0)))
    val r = Pcst.summarize(g, unit, Array(0, 0, 1), Array(0.01, 1.0, 1.0))
    assert(r.edgeIds.length == 1) // 1.0 + 1.0 funds the 0.25 edge
  }

  test("a NaN or negative prize is rejected, naming its position") {
    val g = CompactGraph.fromTriples(Seq((0L, 1L, 1.0), (1L, 2L, 1.0)))
    Seq(Double.NaN, -1.0, Double.NegativeInfinity).foreach { p =>
      val err = intercept[IllegalArgumentException](
        Pcst.summarize(g, unit, Array(0, 1, 2), Array(1.0, p, 1.0)))
      assert(err.getMessage.contains("prize at position 1"), err.getMessage)
    }
  }

  test("infinite prizes are legal: every terminal connects, as a forest") {
    val g = CompactGraph.fromTriples((0L until 8L).map(i => (i, i + 1, 1.0)) :+ ((0L, 8L, 1.0)))
    val terms = Array(0, 3, 6).map(g.indexOf(_))
    val r = Pcst.summarize(g, unit, terms, Array.fill(3)(Double.PositiveInfinity))
    val ds = new DisjointSet(g.numVertices)
    assert(r.edgeIds.forall(e => ds.union(g.edgeSrc(e), g.edgeDst(e))), "no edge closes a cycle")
    assert(terms.forall(t => ds.connected(terms(0), t)))
  }

  test("deterministic across runs") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 3L, 1.0), (0L, 3L, 1.0), (1L, 3L, 1.0)))
    val terms = Array(0, 2, 3).map(g.indexOf(_))
    val a = Pcst.summarize(g, unit, terms, Array(1.0, 1.0, 1.0))
    val b = Pcst.summarize(g, unit, terms, Array(1.0, 1.0, 1.0))
    assert(a.edgeIds.sameElements(b.edgeIds))
  }

  test("terminal-count independence: runtime driver is one Voronoi pass") {
    // Behavioural proxy for the complexity claim: doubling |T| on the same
    // graph must not blow up the edge set beyond the graph size.
    val n = 200
    val g = CompactGraph.fromTriples((0L until (n - 1).toLong).map(i => (i, i + 1, 1.0)))
    val few  = Pcst.summarize(g, unit, Array(0, 40), Array(1.0, 1.0))
    val many = Pcst.summarize(g, unit, (0 until 100 by 2).map(g.indexOf(_)).toArray,
      Array.fill(50)(1.0))
    assert(few.edgeIds.length <= many.edgeIds.length)
    assert(many.edgeIds.length < n)
  }

  test("voronoi paths include non-terminal Steiner nodes when needed") {
    val g = CompactGraph.fromTriples(Seq(
      (0L, 9L, 1.0), (1L, 9L, 1.0), (2L, 9L, 1.0)))
    val r = Pcst.summarize(g, unit, Array(0, 1, 2).map(g.indexOf(_)), Array.fill(3)(1.0))
    val nodes = r.edgeIds.flatMap(e => Seq(g.edgeSrc(e), g.edgeDst(e))).toSet
    assert(nodes.contains(g.indexOf(9)))
    assert(r.edgeIds.length == 3)
  }

  test("a held result is unchanged by a larger ST summary on the same thread") {
    val g = CompactGraph.fromTriples((0L until 30L).map(i => (i, i + 1, 1.0)))
    val held = Pcst.summarize(g, unit, Array(0, 3).map(g.indexOf(_)), Array(1.0, 1.0))
    val before = held.edgeIds.clone()
    val other = SteinerTree.summarize(g, (e: Int) => g.edgeWeight(e),
      (10 until 31 by 2).map(g.indexOf(_)).toArray)
    assert(other.edgeIds.length > held.edgeIds.length)
    assert(held.edgeIds.sameElements(before))
  }

  test("property: accepted structure only connects terminals whose budget paid") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(15)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val terms = (0 until math.min(4, g.numVertices)).toArray
      val r = Pcst.summarize(g, unit, terms, Array.fill(terms.length)(1.0))
      // Edge multiset is a subset of the graph and contains no duplicates.
      r.edgeIds.toSet.size == r.edgeIds.length &&
        r.edgeIds.forall(e => e >= 0 && e < g.numEdges)
    }, minTests = 40)
  }

  test("property: total connection cost never exceeds the prize pool") {
    checkProp(Prop.forAll(TestGraphs.randomGraphGen(15)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val terms = (0 until math.min(5, g.numVertices)).toArray
      val r = Pcst.summarize(g, unit, terms, Array.fill(terms.length)(1.0))
      val spent = r.edgeIds.map(unit(_)).sum
      spent <= terms.length * 1.0 + 1e-9
    }, minTests = 40)
  }
}
