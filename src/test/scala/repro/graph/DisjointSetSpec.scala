package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport
import repro.graph.DisjointSetChecks._

class DisjointSetSpec extends AnyFunSuite with PropSupport {

  test("singletons start disconnected") {
    val ds = new DisjointSet(4)
    assert(ds.components(4) == 4)
    assert(!ds.connected(0, 1))
    assert(ds.find(2) == 2)
  }

  test("union connects and is idempotent") {
    val ds = new DisjointSet(4)
    assert(ds.union(0, 1))
    assert(ds.connected(0, 1))
    assert(!ds.union(1, 0))
    assert(ds.components(4) == 3)
  }

  test("transitive connectivity") {
    val ds = new DisjointSet(5)
    ds.union(0, 1); ds.union(1, 2); ds.union(3, 4)
    assert(ds.connected(0, 2))
    assert(!ds.connected(2, 3))
    assert(ds.components(5) == 2)
  }

  test("chain of unions yields one component") {
    val n = 1000
    val ds = new DisjointSet(n)
    (1 until n).foreach(i => ds.union(i - 1, i))
    assert(ds.components(n) == 1)
    assert(ds.connected(0, n - 1))
  }

  test("find is stable under repeated calls") {
    val ds = new DisjointSet(10)
    ds.union(3, 7); ds.union(7, 9)
    val r = ds.find(9)
    assert(ds.find(3) == r && ds.find(7) == r && ds.find(9) == r)
  }

  test("property: components = n - successful unions") {
    val gen = for {
      n <- Gen.choose(1, 50)
      pairs <- Gen.listOf(Gen.zip(Gen.choose(0, 49), Gen.choose(0, 49)))
    } yield (n, pairs)
    checkProp(Prop.forAll(gen) { case (n, pairs) =>
      val ds = new DisjointSet(n)
      var merges = 0
      pairs.foreach { case (a, b) => if (a < n && b < n && ds.union(a, b)) merges += 1 }
      ds.components(n) == n - merges
    })
  }

  test("property: reset over reused arrays behaves as a fresh set") {
    val round = for {
      n <- Gen.choose(0, 40)
      pairs <- Gen.listOf(Gen.zip(Gen.choose(0, 39), Gen.choose(0, 39)))
    } yield (n, pairs.filter { case (a, b) => a < n && b < n })
    checkProp(Prop.forAll(Gen.listOf(round)) { rounds =>
      val reused = new DisjointSet(3)
      rounds.forall { case (n, pairs) =>
        reused.reset(n)
        val fresh = new DisjointSet(n)
        pairs.forall { case (a, b) => reused.union(a, b) == fresh.union(a, b) } &&
          reused.components(n) == fresh.components(n) &&
          (0 until n).forall(v => (0 until n).forall(w => reused.connected(v, w) == fresh.connected(v, w)))
      }
    })
  }

  test("property: connectivity matches a reference BFS over union edges") {
    val gen = for {
      n <- Gen.choose(2, 20)
      pairs <- Gen.listOf(Gen.zip(Gen.choose(0, 19), Gen.choose(0, 19)))
    } yield (n, pairs)
    checkProp(Prop.forAll(gen) { case (n, pairs) =>
      val edges = pairs.filter { case (a, b) => a < n && b < n }
      val ds = new DisjointSet(n)
      edges.foreach { case (a, b) => ds.union(a, b) }
      val adj = Array.fill(n)(List.empty[Int])
      edges.foreach { case (a, b) => adj(a) ::= b; adj(b) ::= a }
      def reach(s: Int): Set[Int] = {
        var seen = Set(s); var frontier = List(s)
        while (frontier.nonEmpty) {
          val next = frontier.flatMap(adj(_)).filterNot(seen)
          seen ++= next; frontier = next
        }
        seen
      }
      (0 until n).forall(s => (0 until n).forall(d => ds.connected(s, d) == reach(s).contains(d)))
    })
  }
}
