package repro.rec

import repro.SparkSpec
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds, NodeType}

class RecommenderSpec extends SparkSpec {

  private lazy val kg = KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05))
  private lazy val idx = KgIndex.fromKGraph(kg)

  private def someUsers: Seq[Int] = {
    val g = idx.graph
    (0 until g.numVertices)
      .filter(v => idx.vtype(v) == NodeType.User && g.degree(v) >= 5)
      .take(8)
  }

  private def recs: Seq[PathRecommender] = PathRecommender.baselines

  test("all four baselines are registered") {
    assert(recs.map(_.name).toSet == Set("pgpr", "cafe", "plm", "pearlm"))
  }

  for (rec <- PathRecommender.baselines) {

    test(s"${rec.getClass.getSimpleName}: returns at most k ranked distinct items") {
      someUsers.foreach { u =>
        val paths = rec.recommend(idx, u, 10, seed = 3L)
        assert(paths.size <= 10)
        assert(paths.map(_.rank) == (1 to paths.size))
        assert(paths.map(_.item).distinct.size == paths.size)
      }
    }

    test(s"${rec.getClass.getSimpleName}: paths start at the user, end at an item, length <= 3") {
      someUsers.foreach { u =>
        rec.recommend(idx, u, 10, seed = 3L).foreach { p =>
          assert(p.user == idx.graph.ids(u))
          assert(NodeIds.isItem(p.item))
          assert(p.length >= 1 && p.length <= 3, s"path length ${p.length}")
        }
      }
    }

    test(s"${rec.getClass.getSimpleName}: recommended items are not already rated") {
      someUsers.foreach { u =>
        val rated = idx.ratedItems(u).map { case (v, _) => idx.graph.ids(v) }.toSet
        rec.recommend(idx, u, 10, seed = 3L).foreach(p => assert(!rated.contains(p.item)))
      }
    }

    test(s"${rec.getClass.getSimpleName}: deterministic for a fixed seed") {
      someUsers.take(3).foreach { u =>
        val a = rec.recommend(idx, u, 10, seed = 3L)
        val b = rec.recommend(idx, u, 10, seed = 3L)
        assert(a == b)
      }
    }

    test(s"${rec.getClass.getSimpleName}: top-k lists are prefixes of top-10 (paper preprocessing)") {
      someUsers.take(3).foreach { u =>
        val top10 = rec.recommend(idx, u, 10, seed = 3L)
        (1 to 5).foreach { k =>
          assert(rec.recommend(idx, u, k, seed = 3L) == top10.take(k))
        }
      }
    }
  }

  test("pgpr, cafe, pearlm emit only valid KG edges (faithful paths)") {
    Seq(new Pgpr, new Cafe, new Pearlm).foreach { rec =>
      someUsers.foreach { u =>
        rec.recommend(idx, u, 10, seed = 3L).foreach { p =>
          p.hops.foreach { case (a, b) =>
            assert(idx.edgeBetween(a, b).isDefined, s"${rec.name}: hop ($a,$b) not a KG edge")
          }
        }
      }
    }
  }

  test("plm generates some hops beyond the KG topology (its defining property)") {
    val plm = new Plm
    val hops = someUsers.flatMap(u => plm.recommend(idx, u, 10, seed = 3L)).flatMap(_.hops)
    assert(hops.nonEmpty)
    val invalid = hops.count { case (a, b) => idx.edgeBetween(a, b).isEmpty }
    assert(invalid > 0, "expected some hallucinated hops with eta = 0.3")
    assert(invalid < hops.size, "but not all hops should be hallucinated")
  }

  test("pearlm differs from plm only by faithfulness, not by emptiness") {
    someUsers.take(3).foreach { u =>
      assert(new Pearlm().recommend(idx, u, 10, seed = 3L).nonEmpty)
      assert(new Plm().recommend(idx, u, 10, seed = 3L).nonEmpty)
    }
  }

  test("different baselines produce different top-10 lists") {
    val u = someUsers.head
    val lists = recs.map(r => r.recommend(idx, u, 10, seed = 3L).map(_.item))
    assert(lists.distinct.size > 1, "simulated baselines should not all coincide")
  }

  test("recommendBatch distributes per-user computation and matches serial calls") {
    val rec = new Pgpr
    val userIds = someUsers.take(4).map(idx.graph.ids(_))
    val kgB = spark.sparkContext.broadcast(idx)
    val batch = PathRecommender.recommendBatch(spark.sparkContext, kgB, rec, userIds, 10, 3L)
    userIds.foreach { uid =>
      val serial = rec.recommend(idx, idx.graph.indexOf(uid), 10, seed = 3L)
      assert(batch(uid) == serial)
    }
  }

  test("BestPaths: equal scores keep the first path, a higher one replaces it, topK ranks by (−score, item)") {
    val g = repro.graph.CompactGraph.fromTriples(Seq((1L, 2L, 1.0), (1L, 3L, 1.0), (1L, 4L, 1.0)))
    val Seq(u, a, b, c) = Seq(1L, 2L, 3L, 4L).map(g.indexOf)
    assert(a < b) // a and b tie on score below, so a ranks first
    def path(rank: Int, nodes: Long*) = ExplanationPath(nodes.head, nodes.last, rank, nodes.toVector)
    val best = new PathRecommender.BestPaths
    best.offer(b, Seq(u, a, b), 1.0)
    best.offer(b, Seq(u, c, b), 1.0) // ties: the first offered stays
    best.offer(c, Seq(u, c), 0.5)
    best.offer(c, Seq(u, a, c), 2.0) // strictly higher: replaces
    best.offer(a, Seq(u, a), 1.0)
    best.offer(a, Seq(u, b, a), 0.5) // lower: ignored
    val all = best.topK(g, 10) // fewer than k candidates: all of them
    assert(all == Seq(path(1, 1L, 2L, 4L), path(2, 1L, 2L), path(3, 1L, 2L, 3L)))
    assert(best.topK(g, 2) == all.take(2))
  }

  test("ExplanationPath validates its endpoints") {
    intercept[IllegalArgumentException](
      ExplanationPath(NodeIds.user(1), NodeIds.item(1), 1, Vector(NodeIds.user(2), NodeIds.item(1))))
    val ok = ExplanationPath(NodeIds.user(1), NodeIds.item(1), 1,
      Vector(NodeIds.user(1), NodeIds.item(2), NodeIds.external(1), NodeIds.item(1)))
    assert(ok.length == 3)
    assert(ok.hops.size == 3)
  }
}
