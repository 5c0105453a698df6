package repro.graph

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class IndexSortSpec extends AnyFunSuite with PropSupport {

  // Few distinct values, so ties are the rule, with both signed zeros
  // (java.lang.Double.compare orders −0.0 before 0.0).
  private val tiedKey: Gen[Double] =
    Gen.oneOf(-0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 2.0, Double.PositiveInfinity)

  // The Orderings the kernels sorted boxed tuples with before the index sort.
  private val byClosure: Ordering[(Double, Int, Int)] = (x, y) => {
    val c = java.lang.Double.compare(x._1, y._1)
    if (c != 0) c else if (x._2 != y._2) Integer.compare(x._2, y._2) else Integer.compare(x._3, y._3)
  }
  private val byCost: Ordering[(Double, Long, Int)] = (x, y) => {
    val c = java.lang.Double.compare(x._1, y._1)
    if (c != 0) c else java.lang.Long.compare(x._2, y._2)
  }

  test("property: byKey over pairs appended in (i, j) order gives the (d, i, j) closure order") {
    val gen = for {
      n <- Gen.choose(0, 14)
      all = for (i <- 0 until n; j <- i + 1 until n) yield (i, j)
      kept <- Gen.listOfN(all.size, Gen.oneOf(true, true, true, false))
      ds <- Gen.listOfN(all.size, tiedKey)
    } yield all.zip(kept).filter(_._2).map(_._1).zip(ds).map { case ((i, j), d) => (d, i, j) }
    checkProp(Prop.forAll(gen) { pairs =>
      // Parallel arrays at a larger bound than the pairs filled, as in ST.
      val dist = new Array[Double](pairs.length + 3)
      pairs.indices.foreach(p => dist(p) = pairs(p)._1)
      val order = IndexSort.byKey(dist, pairs.length, new Array[Int](pairs.length), new Array[Int](pairs.length))
      // The same order in caller buffers that are larger and hold stale ids.
      val inBuffers = IndexSort.byKey(dist, pairs.length,
        Array.fill(pairs.length + 5)(7), Array.fill(pairs.length + 2)(-1))
      order.map(pairs(_)).toSeq == pairs.sorted(byClosure) &&
        inBuffers.take(pairs.length).sameElements(order)
    }, minTests = 200)
  }

  test("property: ascending keys then byKey on cost gives the (cost, key) proposal order") {
    val gen = for {
      keys <- Gen.containerOf[Set, Long](Gen.choose(0L, 1L << 40))
      costs <- Gen.listOfN(keys.size, tiedKey)
    } yield keys.toSeq.zip(costs).zipWithIndex.map { case ((k, c), e) => (c, k, e) }
    checkProp(Prop.forAll(gen) { proposals =>
      val keys = proposals.map(_._2).toArray
      java.util.Arrays.sort(keys)
      val byKeyValue = proposals.map(p => p._2 -> p).toMap
      val costs = keys.map(byKeyValue(_)._1)
      val order = IndexSort.byKey(costs, keys.length, new Array[Int](keys.length), new Array[Int](keys.length))
      order.map(p => byKeyValue(keys(p))).toSeq == proposals.sorted(byCost)
    }, minTests = 200)
  }
}
