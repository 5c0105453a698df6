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

  test("ExplanationPath validates its endpoints") {
    intercept[IllegalArgumentException](
      ExplanationPath(NodeIds.user(1), NodeIds.item(1), 1, Vector(NodeIds.user(2), NodeIds.item(1))))
    val ok = ExplanationPath(NodeIds.user(1), NodeIds.item(1), 1,
      Vector(NodeIds.user(1), NodeIds.item(2), NodeIds.external(1), NodeIds.item(1)))
    assert(ok.length == 3)
    assert(ok.hops.size == 3)
  }
}
