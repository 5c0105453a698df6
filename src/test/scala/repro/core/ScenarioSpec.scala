package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.kg.NodeIds
import repro.rec.ExplanationPath

class ScenarioSpec extends AnyFunSuite {

  private val u1 = NodeIds.user(1); private val u2 = NodeIds.user(2)
  private val i1 = NodeIds.item(1); private val i2 = NodeIds.item(2)
  private val x  = NodeIds.external(1)

  private def p(u: Long, i: Long, rank: Int) =
    ExplanationPath(u, i, rank, Vector(u, x, i))

  test("user-centric: terminals are the user plus distinct recommended items") {
    val s = UserCentric(u1, Seq(p(u1, i1, 1), p(u1, i2, 2), p(u1, i2, 3)))
    assert(s.terminals.toSet == Set(u1, i1, i2))
    assert(s.terminals.head == u1)
    assert(s.anchors == 2) // |R_u| distinct
    assert(s.family == "user-centric" && s.id == s"user:$u1")
  }

  test("item-centric: terminals are the item plus its audience C_i") {
    val s = ItemCentric(i1, Seq(p(u1, i1, 1), p(u2, i1, 4)))
    assert(s.terminals.toSet == Set(i1, u1, u2))
    assert(s.anchors == 2) // |C_i|
    assert(s.family == "item-centric" && s.id == s"item:$i1")
  }

  test("user-group: terminals are D ∪ R_D") {
    val s = UserGroup("g0", Seq(u1, u2), Seq(p(u1, i1, 1), p(u2, i1, 1), p(u2, i2, 2)))
    assert(s.terminals.toSet == Set(u1, u2, i1, i2))
    assert(s.anchors == 2) // |R_D|
    assert(s.family == "user-group" && s.id == "ugroup:g0")
  }

  test("item-group: terminals are F ∪ C_F") {
    val s = ItemGroup("pop", Seq(i1, i2), Seq(p(u1, i1, 1), p(u1, i2, 2), p(u2, i1, 1)))
    assert(s.terminals.toSet == Set(i1, i2, u1, u2))
    assert(s.anchors == 2) // |C_F|
    assert(s.family == "item-group" && s.id == "igroup:pop")
  }

  test("group terminals deduplicate overlapping members and items") {
    val s = UserGroup("g", Seq(u1, u1, u2), Seq(p(u1, i1, 1), p(u2, i1, 1)))
    assert(s.terminals.length == s.terminals.distinct.length)
  }

  test("empty path sets yield terminal sets without items") {
    assert(UserCentric(u1, Seq.empty).terminals.toSet == Set(u1))
    assert(UserCentric(u1, Seq.empty).anchors == 0)
  }

  private def roundTrip[T](x: T): T = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(x); out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[T]
  }

  test("ids and ST labels are built once; scenarios survive Java serialization") {
    val paths = Seq(p(u1, i1, 1), p(u2, i2, 2))
    val scenarios = Seq(UserCentric(u1, paths), ItemCentric(i1, paths), UserGroup("g0", Seq(u1, u2), paths),
      ItemGroup("pop", Seq(i1, i2), paths))
    assert(scenarios.map(_.id) == Seq(s"user:$u1", s"item:$i1", "ugroup:g0", "igroup:pop"))
    assert(scenarios.forall(s => s.id eq s.id))
    val labels = Seq(0.01, 1.0, 100.0).map(Summarizer.ST(_))
    assert(labels.map(_.label) == Seq("st(λ=0.01)", "st(λ=1.0)", "st(λ=100.0)"))
    assert(labels.forall(m => m.label eq m.label))
    // Spark ships scenarios and methods to executors by Java serialization.
    scenarios.foreach { s =>
      val copy = roundTrip(s)
      assert(copy == s && copy.id == s.id && copy.terminals.sameElements(s.terminals) && copy.anchors == s.anchors)
    }
    labels.foreach(m => assert(roundTrip(m) == m && roundTrip(m).label == m.label))
    assert(roundTrip(Summarizer.PCST(0.5)) == Summarizer.PCST(0.5))
  }
}
