package repro.eval

import repro.SparkSpec
import repro.core.{Metrics, Summarizer, UserCentric}
import repro.core.SubgraphChecks._
import repro.kg.KgIndex

/** Reproduces the shape of paper Table I / Fig 1: three explanation paths
  * of total length 13 summarized into a ~6-edge subgraph whose key nodes
  * are the shared "Theo Angelopoulos" / "Drama" entities.
  */
class TableIExampleSpec extends SparkSpec {

  test("the three input paths have total length 13, as in the paper") {
    assert(TableIExample.paths.map(_.length).sum == 13)
  }

  test("paths target the three recommended movies") {
    assert(TableIExample.paths.map(_.item) == Seq(
      TableIExample.EternityAndADay, TableIExample.TheBeekeeper,
      TableIExample.SuspendedStepOfTheStork))
  }

  test("the example KG contains every path hop as an edge") {
    val idx = KgIndex.fromKGraph(TableIExample.knowledgeGraph(spark))
    TableIExample.paths.flatMap(_.hops).foreach { case (a, b) =>
      assert(idx.edgeBetween(a, b).isDefined,
        s"missing edge ${TableIExample.names(a)} -- ${TableIExample.names(b)}")
    }
  }

  test("ST summary: all terminals connected in one component") {
    val s = TableIExample.summary(spark)
    assert(s.isolated.isEmpty)
    assert(s.componentCount == 1)
    val nodes = s.nodes.toSet
    Seq(TableIExample.User1, TableIExample.EternityAndADay, TableIExample.TheBeekeeper,
      TableIExample.SuspendedStepOfTheStork).foreach(t => assert(nodes.contains(t)))
  }

  test("ST summary has ~6 edges (paper: 13 -> 6)") {
    val s = TableIExample.summary(spark)
    assert(s.edges.length >= 4 && s.edges.length <= 7,
      s"expected a Table-I-sized summary, got ${s.edges.length} edges")
  }

  test("the hub entity Theo Angelopoulos is a central summary node") {
    val s = TableIExample.summary(spark)
    assert(s.nodes.contains(TableIExample.TheoAngelopoulos))
  }

  test("summary comprehensibility more than doubles vs the path union") {
    val s = TableIExample.summary(spark)
    val before = 1.0 / 13
    assert(Metrics.comprehensibility(s) > 2 * before)
  }

  test("summary drops the clutter nodes the paper calls out") {
    // "The Weeping Meadow" and "The Dust of Time" add clutter in P_{1,C};
    // the summary should not need both of them.
    val s = TableIExample.summary(spark)
    val clutter = Seq(TableIExample.WeepingMeadow, TableIExample.DustOfTime)
      .count(s.nodes.contains)
    assert(clutter <= 1)
  }

  test("render names every summary node") {
    val s = TableIExample.summary(spark)
    val txt = TableIExample.render(s)
    assert(txt.contains("Summary V_S"))
    s.edges.foreach { e =>
      assert(TableIExample.names.contains(e.src) && TableIExample.names.contains(e.dst))
    }
  }

  test("PCST on the example also produces a compact connected summary") {
    val idx = KgIndex.fromKGraph(TableIExample.knowledgeGraph(spark))
    val s = Summarizer.summarize(idx,
      UserCentric(TableIExample.User1, TableIExample.paths), Summarizer.PCST()).subgraph
    assert(s.edges.nonEmpty && s.edges.length <= 13)
  }
}
