package repro.rec

import java.lang.management.ManagementFactory
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.graph.CompactGraph
import repro.kg.{KGBuilder, KgIndex, MLSynth, NodeIds, NodeType}

/** The four recommenders against `ReferenceRecommenders` on small random
  * knowledge graphs built to hit their tie rules, and PGPR's allocation
  * against the reference's.
  */
class RecommenderPropertySpec extends SparkSpec with PropSupport {
  import RecommenderPropertySpec._

  test("property: every recommender's top-k list equals the reference's on random small KGs, k ∈ {1, 10}") {
    checkProp(Prop.forAll(kgGen) { case (triples, seed) =>
      val kg = new KgIndex(CompactGraph.fromTriples(triples))
      val users = (0 until kg.graph.numVertices).filter(kg.vtype(_) == NodeType.User)
      val mismatches = for {
        rec <- PathRecommender.baselines
        reference = ReferenceRecommenders.reference(rec)
        u <- users
        k <- Seq(1, 10)
        if rec.recommend(kg, u, k, seed) != reference(kg, u, k, seed)
      } yield s"${rec.name} user vertex $u k=$k"
      Prop(mismatches.isEmpty) :| mismatches.mkString("; ")
    }, minTests = 120)
  }

  test("the KG generator covers single ratings, parallel ratings, w_A = 0 ties and a hub of > 12") {
    val samples = Iterator.from(0).map(i => kgGen.pureApply(Gen.Parameters.default, org.scalacheck.rng.Seed(i.toLong)))
      .take(40).map(_._1).toSeq
    samples.foreach { triples =>
      val g = CompactGraph.fromTriples(triples)
      assert((0 until g.numVertices).exists(v => g.degree(v) > 12))
      assert(triples.exists { case (a, b, w) => NodeIds.typeOf(b) == NodeType.External && w == 0.0 })
    }
    def ratings(triples: Seq[(Long, Long, Double)]) =
      triples.filter { case (a, b, _) => NodeIds.isUser(a) && NodeIds.isItem(b) }.map(t => (t._1, t._2))
    assert(samples.exists(t => ratings(t).groupBy(_._1).values.exists(_.size == 1)))
    assert(samples.exists(t => ratings(t).groupBy(identity).values.exists(_.size > 1)))
  }

  test("a warm Pgpr.recommend allocates at most a tenth of the reference PGPR's") {
    val idx = KgIndex.fromKGraph(KGBuilder.build(spark, MLSynth.ml1m(spark, scale = 0.05)))
    val g = idx.graph
    val all = (0 until g.numVertices).filter(v => idx.vtype(v) == NodeType.User)
    val users = (0 until 40).map(i => all(i * all.length / 40))
    val pgpr = new Pgpr
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    def allocated(run: Int => Seq[ExplanationPath]): Long = {
      val before = bean.getCurrentThreadAllocatedBytes
      var paths = 0
      users.foreach(u => paths += run(u).size)
      assert(paths > 0)
      bean.getCurrentThreadAllocatedBytes - before
    }
    var primitive = Long.MaxValue
    var reference = Long.MaxValue
    (0 until 5).foreach { round => // the first two rounds warm up
      val p = allocated(pgpr.recommend(idx, _, 10, 3L))
      val r = allocated(ReferenceRecommenders.pgpr(idx, _, 10, 3L))
      if (round >= 2) { primitive = math.min(primitive, p); reference = math.min(reference, r) }
    }
    info(s"${users.size} users: Pgpr $primitive B, reference $reference B (least of 3 rounds)")
    // The control: the probe sees the reference's allocation.
    assert(reference > 0, s"the reference allocated $reference bytes")
    assert(primitive * 10 <= reference, s"Pgpr allocated $primitive B against the reference's $reference B")
  }
}

object RecommenderPropertySpec {

  /** A random knowledge graph as directed triples in random edge order, with
    * a recommender seed. Users rate items with weights drawn from {1, …, 5},
    * so weights tie; some users rate one item, some pairs are rated twice
    * (parallel user–item edges), and a user may have no rating at all, only
    * an external link. Item–external and user–external edges have w_A = 0.
    * External 1 links every one of at least 13 items, a hub of more than
    * `Pgpr.Fanout` neighbours, and every user who rates rates item 1, which
    * is a hub too when 13 or more users do.
    */
  val kgGen: Gen[(Seq[(Long, Long, Double)], Long)] =
    for {
      nUsers <- Gen.choose(1, 16)
      nItems <- Gen.choose(13, 22)
      nExternal <- Gen.choose(1, 5)
      seed <- Gen.choose(0L, Long.MaxValue)
      recSeed <- Gen.choose(0L, 1000L)
    } yield {
      val rnd = new scala.util.Random(seed)
      def rating(u: Int, i: Int) = (NodeIds.user(u), NodeIds.item(i), 1.0 + rnd.nextInt(5))
      val ratings = (1 to nUsers).flatMap { u =>
        rnd.nextInt(4) match {
          case 0 => Seq(rating(u, 1))                                       // one rating
          case 1 => Seq.empty                                               // none
          case _ => rating(u, 1) +: Seq.fill(1 + rnd.nextInt(8))(rating(u, 1 + rnd.nextInt(nItems)))
        }
      }
      val parallel = if (ratings.isEmpty) Nil else Seq.fill(rnd.nextInt(4)) {
        val (u, i, _) = ratings(rnd.nextInt(ratings.size))
        (u, i, 1.0 + rnd.nextInt(5))
      }
      val hub = (1 to nItems).map(i => (NodeIds.item(i), NodeIds.external(1), 0.0))
      val links = Seq.fill(rnd.nextInt(2 * nItems))(
        (NodeIds.item(1 + rnd.nextInt(nItems)), NodeIds.external(1 + rnd.nextInt(nExternal)), 0.0))
      // A user without ratings still needs an edge to be a vertex.
      val userLinks = (1 to nUsers).filter(_ => rnd.nextInt(3) == 0)
        .map(u => (NodeIds.user(u), NodeIds.external(1 + rnd.nextInt(nExternal)), 0.0))
      (rnd.shuffle(ratings ++ parallel ++ hub ++ links ++ userLinks), recSeed)
    }
}
