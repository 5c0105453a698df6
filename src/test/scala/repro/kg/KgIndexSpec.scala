package repro.kg

import java.lang.management.ManagementFactory
import org.scalacheck.Prop
import repro.{PropSupport, SparkSpec}
import repro.graph.{CompactGraph, TestGraphs}

class KgIndexSpec extends SparkSpec with PropSupport {

  private lazy val kg = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
  private lazy val idx = KgIndex.fromKGraph(kg)

  test("vertex types partition the graph") {
    val counts = idx.vtype.groupBy(identity).view.mapValues(_.length).toMap
    assert(counts(NodeType.User) > 0 && counts(NodeType.Item) > 0 && counts(NodeType.External) > 0)
    assert(counts.values.sum == idx.graph.numVertices)
  }

  test("vertex type agrees with the id range for every vertex") {
    (0 until idx.graph.numVertices).foreach { v =>
      assert(idx.vtype(v) == NodeIds.typeOf(idx.graph.ids(v)))
    }
  }

  test("edgeBetween finds edges in both orientations") {
    val g = idx.graph
    val e = 0
    val (s, d) = (g.ids(g.edgeSrc(e)), g.ids(g.edgeDst(e)))
    assert(idx.edgeBetween(s, d).isDefined)
    assert(idx.edgeBetween(d, s).isDefined)
    assert(idx.edgeBetween(s, d) == idx.edgeBetween(d, s))
  }

  test("edgeBetween returns None for non-edges and unknown nodes") {
    assert(idx.edgeBetween(NodeIds.user(1), NodeIds.user(2)).isEmpty) // no user-user edges
    assert(idx.edgeBetween(123_456_789L, NodeIds.user(1)).isEmpty)
  }

  test("edgeId agrees with edgeBetween on every edge, both ways, and on absent pairs") {
    val g = idx.graph
    (0 until g.numEdges).foreach { e =>
      val (a, b) = (g.edgeSrc(e), g.edgeDst(e))
      val id = idx.edgeId(a, b)
      assert(id >= 0 && idx.edgeId(b, a) == id)
      assert(g.edgeSrc(id) == a && g.edgeDst(id) == b || g.edgeSrc(id) == b && g.edgeDst(id) == a)
      assert(idx.edgeBetween(g.ids(a), g.ids(b)).contains(id))
      assert(idx.edgeBetween(g.ids(b), g.ids(a)).contains(id))
    }
    val rnd = new scala.util.Random(7L)
    val absent = Iterator.continually((rnd.nextInt(g.numVertices), rnd.nextInt(g.numVertices)))
      .filter { case (a, b) => idx.edgeBetween(g.ids(a), g.ids(b)).isEmpty }.take(200).toSeq
    assert(absent.size == 200)
    absent.foreach { case (a, b) => assert(idx.edgeId(a, b) == -1 && idx.edgeId(b, a) == -1) }
  }

  test("edgeId: of parallel edges between one pair, the first wins") {
    val g = repro.graph.CompactGraph.fromTriples(
      Seq((1L, 2L, 1.0), (2L, 3L, 1.0), (2L, 1L, 2.0), (1L, 2L, 3.0)))
    val k = new KgIndex(g)
    val (a, b) = (g.indexOf(1L), g.indexOf(2L))
    assert(k.edgeId(a, b) == 0 && k.edgeId(b, a) == 0)
    assert(k.edgeBetween(2L, 1L).contains(0))
    assert(k.edgeId(a, g.indexOf(3L)) == -1)
  }

  test("ratedItems: only item neighbours, sorted by descending weight") {
    val g = idx.graph
    val u = (0 until g.numVertices).find(v => idx.vtype(v) == NodeType.User && g.degree(v) > 2).get
    val rated = idx.ratedItems(u)
    assert(rated.nonEmpty)
    rated.foreach { case (v, e) =>
      assert(idx.vtype(v) == NodeType.Item)
      assert(g.edgeSrc(e) == u || g.edgeDst(e) == u)
    }
    val ws = rated.map { case (_, e) => g.edgeWeight(e) }
    assert(ws.zip(ws.tail).forall { case (a, b) => a >= b })
  }

  test("rankedNeighbors by degree: the type's neighbours, ordered by (−degree, vertex)") {
    val g = idx.graph
    val hub = (0 until g.numVertices).filter(v => idx.vtype(v) == NodeType.External).maxBy(g.degree)
    val byDegree = idx.rankedNeighbors(hub, NodeType.Item, byWeight = false).map(_._1).toSeq
    assert(byDegree.size == KgIndex.typedDegree(g, hub, NodeType.Item) && byDegree.size > 2)
    assert(byDegree == byDegree.sortBy(v => (-g.degree(v), v)))
  }

  // The rated-item set is the items u has an edge to: edgeId(u, v) >= 0 holds on exactly the
  // item vertices of ratedItems(u), for every user u.
  test("ratedItemSet matches ratedItems") {
    val g = idx.graph
    val items = (0 until g.numVertices).filter(v => idx.vtype(v) == NodeType.Item)
    val users = (0 until g.numVertices).filter(v => idx.vtype(v) == NodeType.User)
    assert(users.nonEmpty && items.nonEmpty)
    users.foreach { u =>
      val rated = idx.ratedItems(u).map(_._1).toSet
      assert(items.filter(v => idx.edgeId(u, v) >= 0).toSet == rated, s"user vertex $u")
    }
  }

  test("byPopularity is sorted by descending degree within each type") {
    val g = idx.graph
    Seq(NodeType.User, NodeType.Item, NodeType.External).foreach { t =>
      val pop = idx.byPopularity(t)
      assert(pop.forall(v => idx.vtype(v) == t))
      val degs = pop.map(g.degree)
      assert(degs.zip(degs.tail).forall { case (a, b) => a >= b })
    }
  }

  test("maxBaseWeight is the max over all edges") {
    assert(idx.maxBaseWeight == idx.graph.edgeWeight.max)
    assert(idx.maxBaseWeight <= 5.0 + 1e-9) // beta1=1, beta2=0 default
  }

  test("index survives java serialization (broadcast path)") {
    val bytes = {
      val bos = new java.io.ByteArrayOutputStream()
      val oos = new java.io.ObjectOutputStream(bos)
      oos.writeObject(idx); oos.close(); bos.toByteArray
    }
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes))
      .readObject().asInstanceOf[KgIndex]
    assert(back.graph.numVertices == idx.graph.numVertices)
    val g = idx.graph
    val (s, d) = (g.ids(g.edgeSrc(0)), g.ids(g.edgeDst(0)))
    assert(back.edgeBetween(s, d) == idx.edgeBetween(s, d))
  }

  test("fromKGraph wraps the knowledge graph's one CSR, identical to a fresh build") {
    assert(KgIndex.fromKGraph(kg).graph eq kg.graph)
    val (g, fresh) = (kg.graph, CompactGraph.fromEdges(kg.edges))
    assert(g.ids.sameElements(fresh.ids))
    assert(g.offsets.sameElements(fresh.offsets))
    assert(g.arcTarget.sameElements(fresh.arcTarget))
    assert(g.arcEdge.sameElements(fresh.arcEdge))
    assert(g.edgeSrc.sameElements(fresh.edgeSrc))
    assert(g.edgeDst.sameElements(fresh.edgeDst))
    assert(g.edgeWeight.sameElements(fresh.edgeWeight))
  }

  test("typedDegree equals every user's and every item's user-item edge count in the DataFrame") {
    import org.apache.spark.sql.functions.col
    val ratings = kg.edges.filter(col("etype") === "user-item")
    def countsBy(side: String): Map[Long, Long] =
      ratings.groupBy(side).count().collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val (byUser, byItem) = (countsBy("src"), countsBy("dst"))
    val g = kg.graph
    def degreesOf(t: Byte, to: Byte): Map[Long, Long] =
      (0 until g.numVertices).filter(v => NodeIds.typeOf(g.ids(v)) == t)
        .map(v => g.ids(v) -> KgIndex.typedDegree(g, v, to).toLong).filter(_._2 > 0).toMap
    assert(byUser.nonEmpty && byItem.nonEmpty)
    assert(degreesOf(NodeType.User, NodeType.Item) == byUser)
    assert(degreesOf(NodeType.Item, NodeType.User) == byItem)
  }

  test("property: edgeId is the lowest id of the edges between a pair, in either order") {
    checkProp(Prop.forAll(TestGraphs.multigraphGen(9)) { triples =>
      val g = CompactGraph.fromTriples(triples)
      val k = new KgIndex(g)
      def lowest(a: Int, b: Int): Int = (0 until g.numEdges).find { e =>
        g.edgeSrc(e) == a && g.edgeDst(e) == b || g.edgeSrc(e) == b && g.edgeDst(e) == a
      }.getOrElse(-1)
      (0 until g.numVertices).forall { a =>
        (0 until g.numVertices).forall(b => k.edgeId(a, b) == lowest(a, b) && k.edgeId(b, a) == lowest(a, b))
      }
    }, minTests = 100)
  }

  test("100,000 warm edgeId calls allocate less than 1 KB") {
    val g = idx.graph
    val rnd = new scala.util.Random(11L)
    // Half edges (either direction), half random pairs, most of them absent.
    val (as, bs) = Array.tabulate(1000) { i =>
      val e = rnd.nextInt(g.numEdges)
      if (i % 2 == 0) (g.edgeSrc(e), g.edgeDst(e)) else (rnd.nextInt(g.numVertices), g.edgeDst(e))
    }.unzip
    def run(): Long = {
      var found = 0L
      var i = 0
      while (i < 100000) { found += idx.edgeId(as(i % 1000), bs(i % 1000)); i += 1 }
      found
    }
    run()
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val before = bean.getCurrentThreadAllocatedBytes
    val found = run()
    val allocated = bean.getCurrentThreadAllocatedBytes - before
    assert(found != 0)
    assert(allocated < 1024, s"100,000 edgeId calls allocated $allocated bytes")
  }
}
