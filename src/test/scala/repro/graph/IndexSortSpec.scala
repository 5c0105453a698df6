package repro.graph

import java.lang.management.ManagementFactory
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

  test("property: byKeys gives the order of a stable sortBy on the (primary, secondary) tuple") {
    val gen = for {
      n <- Gen.choose(0, 40)
      primary <- Gen.listOfN(n, tiedKey)
      secondary <- Gen.listOfN(n, Gen.choose(0, 5))
    } yield primary.zip(secondary)
    checkProp(Prop.forAll(gen) { keys =>
      val order = IndexSort.byKeys(keys.map(_._1).toArray, keys.map(_._2.toDouble).toArray, keys.length)
      val byTuple = keys.indices.sortBy(i => keys(i)) // java.lang.Double.compare on the Double, stable
      order.toSeq == byTuple
    }, minTests = 200)
  }

  /** The order PCST sorted its terminals in before `byKey`: (vertex, position) packed into a long. */
  private def packedOrder(vertices: Array[Int]): Array[Int] = {
    val packed = Array.tabulate(vertices.length)(i => (vertices(i).toLong << 32) | i)
    java.util.Arrays.sort(packed)
    packed.map(_.toInt)
  }

  // A group's terminals: its members' vertices ascending, then their items,
  // with repeats, drawn from a few values up to Int.MaxValue.
  private def groupShaped(members: Int, items: Int, rnd: scala.util.Random): Array[Int] = {
    val pool = Array.fill(1 + rnd.nextInt(12))(rnd.nextInt(Int.MaxValue))
    (0 until members).map(i => 1000 + 3 * i).toArray ++ Array.fill(items)(pool(rnd.nextInt(pool.length)))
  }

  test("property: byKey on integer keys with ties gives the packed (vertex, position) sort order") {
    val vertices: Gen[Array[Int]] = Gen.oneOf(
      Gen.const(Array.emptyIntArray),
      Gen.choose(0, Int.MaxValue).map(Array(_)),
      Gen.listOf(Gen.choose(0, 6)).map(_.toArray),
      for (members <- Gen.choose(16, 60); items <- Gen.choose(0, 80); seed <- Gen.choose(0L, Long.MaxValue))
        yield groupShaped(members, items, new scala.util.Random(seed)))
    checkProp(Prop.forAll(vertices) { vs =>
      val keys = vs.map(_.toDouble)
      val order = IndexSort.byKey(keys, vs.length, new Array[Int](vs.length), new Array[Int](vs.length))
      order.take(vs.length).sameElements(packedOrder(vs))
    }, minTests = 200)
  }

  test("a warm byKey allocates 0 B on a group's terminals, where the JDK's long[] sort allocates a run array") {
    val vs = groupShaped(members = 20, items = 41, new scala.util.Random(5))
    val n = vs.length
    val keys = vs.map(_.toDouble)
    val (perm, buf) = (new Array[Int](n), new Array[Int](n))
    val template = Array.tabulate(n)(i => (vs(i).toLong << 32) | i)
    val packed = new Array[Long](n)
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    var byKey = Long.MaxValue
    var jdk = Long.MaxValue
    var call = 0
    while (call < 12) {
      var before = bean.getCurrentThreadAllocatedBytes
      IndexSort.byKey(keys, n, perm, buf)
      val sorted = bean.getCurrentThreadAllocatedBytes - before
      System.arraycopy(template, 0, packed, 0, n)
      before = bean.getCurrentThreadAllocatedBytes
      java.util.Arrays.sort(packed, 0, n)
      val jdkSorted = bean.getCurrentThreadAllocatedBytes - before
      if (call >= 2) { byKey = math.min(byKey, sorted); jdk = math.min(jdk, jdkSorted) } // two warm-up calls
      call += 1
    }
    info(s"$n terminals, first run 20: byKey $byKey B, Arrays.sort(long[]) $jdk B (least of 10 calls)")
    assert(byKey == 0, s"a warm byKey allocated $byKey bytes")
    // The control: the probe sees an allocation where there is one.
    assert(jdk > 0, s"Arrays.sort(long[]) allocated $jdk bytes on a group-shaped input")
  }
}
