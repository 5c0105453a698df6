package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SubgraphChecks._
import repro.kg.NodeIds

class SubgraphSpec extends AnyFunSuite {

  private val u1 = NodeIds.user(1)
  private val i1 = NodeIds.item(1); private val i2 = NodeIds.item(2)
  private val x  = NodeIds.external(1)

  private def sg(edges: Seq[(Long, Long)], isolated: Seq[Long] = Nil): Subgraph = {
    val es = edges.map { case (a, b) => SummaryEdge(a, b, 1.0) }.toArray
    Subgraph(Array.empty, es, es, isolated.toArray, edges.flatMap { case (a, b) => Seq(a, b) }.distinct.size)
  }

  test("nodes are the distinct endpoints plus isolated terminals") {
    val s = sg(Seq((u1, i1), (i1, x)), isolated = Seq(i2))
    assert(s.nodes.toSet == Set(u1, i1, x, i2))
    assert(s.nodes.length == 4) // no duplicates
  }

  test("componentCount: a tree is one component, isolated terminals add one each") {
    assert(sg(Seq((u1, i1), (i1, x))).componentCount == 1)
    assert(sg(Seq((u1, i1)), isolated = Seq(i2)).componentCount == 2)
    assert(sg(Seq((u1, i1), (i2, x))).componentCount == 2)
  }

  test("coveredTerminals reports which terminals made it into V_S") {
    val e = SummaryEdge(u1, i1, 1.0)
    val s = Subgraph(Array(u1, i1, i2), Array(e), Array(e), Array.empty, 2)
    assert(s.coveredTerminals.toSet == Set(u1, i1))
  }

  test("edgeOccurrences counts the constituent multiset") {
    val e = SummaryEdge(u1, i1, 1.0)
    val s = Subgraph(Array.empty, Array(e), Array(e, e, e), Array.empty, 6)
    assert(s.edgeOccurrences == 3)
    assert(s.edges.length == 1)
  }

  test("the empty subgraph is well-behaved") {
    assert(SubgraphChecks.empty.nodes.isEmpty)
    assert(SubgraphChecks.empty.componentCount == 0)
    assert(SubgraphChecks.empty.coveredTerminals.isEmpty)
  }
}
