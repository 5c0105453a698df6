package repro.graph

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport

class LongKeyTableSpec extends AnyFunSuite with PropSupport {

  private def contents(t: LongKeyTable): Map[Long, (Double, Int)] =
    (0 until t.capacity).filter(t.isOccupied).map(s => t.keyAt(s) -> (t.doubleAt(s), t.intAt(s))).toMap

  // Keys dense in their low bits, as edge ids are.
  private val entries: Gen[Map[Long, (Double, Int)]] =
    Gen.mapOf(Gen.zip(Gen.choose(0L, 300L), Gen.zip(Gen.choose(-5.0, 5.0), Gen.choose(0, 99))))

  test("property: a reset table holds exactly what was put since, like a fresh one") {
    val round = for {
      m <- entries
      expected <- Gen.choose(0, 400)
    } yield (m, expected)
    checkProp(Prop.forAll(Gen.listOf(round)) { rounds =>
      val reused = new LongKeyTable(0)
      rounds.forall { case (m, expected) =>
        reused.reset(expected)
        val fresh = new LongKeyTable(expected)
        val sizedAsFresh = reused.capacity == fresh.capacity
        m.foreach { case (k, (d, i)) => reused.put(k, d, i); fresh.put(k, d, i) }
        sizedAsFresh && reused.size == m.size && contents(reused) == m && contents(fresh) == m &&
          (0L to 310L).forall(k => (reused.find(k) >= 0) == m.contains(k))
      }
    }, minTests = 200)
  }
}
