package repro.kg

/** Node-type codes of the knowledge-based graph G(V, E, w):
  * V = U ∪ I ∪ V_A (users, items, external knowledge entities).
  */
object NodeType {
  val User: Byte     = 0
  val Item: Byte     = 1
  val External: Byte = 2
}

/** Global node-id scheme: node type is encoded in the id range so that
  * every component (DataFrames, CSR kernels) can classify a node
  * without a join. Users are 1-based within their range.
  */
object NodeIds {
  val ItemBase: Long     = 1_000_000L
  val ExternalBase: Long = 2_000_000L

  def user(i: Long): Long     = { require(i >= 1 && i < ItemBase); i }
  def item(i: Long): Long     = { require(i >= 1 && i < ItemBase); ItemBase + i }
  def external(i: Long): Long = { require(i >= 1 && i < ItemBase); ExternalBase + i }

  def typeOf(id: Long): Byte =
    if (id >= ExternalBase) NodeType.External
    else if (id >= ItemBase) NodeType.Item
    else NodeType.User

  def isUser(id: Long): Boolean     = typeOf(id) == NodeType.User
  def isItem(id: Long): Boolean     = typeOf(id) == NodeType.Item
}
