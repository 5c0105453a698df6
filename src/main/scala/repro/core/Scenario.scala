package repro.core

import repro.rec.ExplanationPath

/** One of the paper's four summarization scenarios (§III). A scenario
  * carries the explanation paths to summarize, the terminal set T the
  * summary must connect, and |S| — the normaliser of Eq. (1)'s path
  * frequency term.
  */
sealed trait Scenario extends Serializable {
  /** Stable identifier for harness grouping, e.g. "user:94"; built once per scenario. */
  def id: String
  /** Scenario family name as used in the paper's figures. */
  def family: String
  /** The explanation paths P being summarized. */
  def paths: Seq[ExplanationPath]
  /** Terminal node ids T that the summary must span. */
  def terminals: Array[Long]
  /** |S| in Eq. (1): the anchor set size (R_u, C_i, R_D or C_F). */
  def anchors: Int
}

/** Why does user `user` receive these item recommendations? T = {u} ∪ R_u. */
final case class UserCentric(user: Long, paths: Seq[ExplanationPath]) extends Scenario {
  private val items = paths.map(_.item).distinct
  override val id: String = s"user:$user"
  override def family: String = "user-centric"
  override val terminals: Array[Long] = (user +: items).toArray
  override def anchors: Int = items.size
}

/** Why is item `item` recommended to these users? T = {i} ∪ C_i. */
final case class ItemCentric(item: Long, paths: Seq[ExplanationPath]) extends Scenario {
  private val users = paths.map(_.user).distinct
  override val id: String = s"item:$item"
  override def family: String = "item-centric"
  override val terminals: Array[Long] = (item +: users).toArray
  override def anchors: Int = users.size
}

/** Group summary for users D: T = D ∪ R_D. */
final case class UserGroup(groupId: String, users: Seq[Long], paths: Seq[ExplanationPath])
    extends Scenario {
  private val items = paths.map(_.item).distinct
  override val id: String = s"ugroup:$groupId"
  override def family: String = "user-group"
  override val terminals: Array[Long] = (users ++ items).distinct.toArray
  override def anchors: Int = items.size
}

/** Group summary for items F: T = F ∪ C_F. */
final case class ItemGroup(groupId: String, items: Seq[Long], paths: Seq[ExplanationPath])
    extends Scenario {
  private val users = paths.map(_.user).distinct
  override val id: String = s"igroup:$groupId"
  override def family: String = "item-group"
  override val terminals: Array[Long] = (items ++ users).distinct.toArray
  override def anchors: Int = users.size
}
