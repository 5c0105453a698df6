package repro.kg

import repro.SparkSpec

class KgIndexSpec extends SparkSpec {

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

  test("ratedItemSet matches ratedItems") {
    val g = idx.graph
    val u = (0 until g.numVertices).find(v => idx.vtype(v) == NodeType.User && g.degree(v) > 0).get
    val set = idx.ratedItemSet(u)
    val arr = idx.ratedItems(u).map(_._1).toSet
    assert(arr == (0 until g.numVertices).filter(v => set.contains(v)).toSet)
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
    assert(back.edgeBetween(s, d) == idx.edgeBetween(s, d)) // lazy lookup rebuilt
  }
}
