package repro.kg

import org.scalatest.funsuite.AnyFunSuite

class NodeIdsSpec extends AnyFunSuite {

  private def isExternal(id: Long): Boolean = NodeIds.typeOf(id) == NodeType.External

  private def typeName(t: Byte): String = t match {
    case NodeType.User     => "user"
    case NodeType.Item     => "item"
    case NodeType.External => "external"
    case other             => throw new IllegalArgumentException(s"unknown node type $other")
  }

  test("id ranges encode node types") {
    assert(NodeIds.typeOf(NodeIds.user(1)) == NodeType.User)
    assert(NodeIds.typeOf(NodeIds.item(1)) == NodeType.Item)
    assert(NodeIds.typeOf(NodeIds.external(1)) == NodeType.External)
  }

  test("ranges are disjoint at the boundaries") {
    assert(NodeIds.typeOf(NodeIds.ItemBase - 1) == NodeType.User)
    assert(NodeIds.typeOf(NodeIds.ItemBase) == NodeType.Item)
    assert(NodeIds.typeOf(NodeIds.ExternalBase - 1) == NodeType.Item)
    assert(NodeIds.typeOf(NodeIds.ExternalBase) == NodeType.External)
  }

  test("predicates are mutually exclusive") {
    Seq(NodeIds.user(5), NodeIds.item(5), NodeIds.external(5)).foreach { id =>
      val flags = Seq(NodeIds.isUser(id), NodeIds.isItem(id), isExternal(id))
      assert(flags.count(identity) == 1)
    }
  }

  test("out-of-range local ids are rejected") {
    intercept[IllegalArgumentException](NodeIds.user(0))
    intercept[IllegalArgumentException](NodeIds.item(NodeIds.ItemBase))
    intercept[IllegalArgumentException](NodeIds.external(-1))
  }

  test("type names render") {
    assert(typeName(NodeType.User) == "user")
    assert(typeName(NodeType.Item) == "item")
    assert(typeName(NodeType.External) == "external")
    intercept[IllegalArgumentException](typeName(9.toByte))
  }
}
