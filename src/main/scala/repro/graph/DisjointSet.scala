package repro.graph

/** Union–find over dense integer ids `[0, n)` with path compression and
  * union by rank. Used by the Kruskal MST step of Algorithm 1 and by the
  * component merging of the PCST growth (Algorithm 2).
  *
  * [[reset]] starts over with `n` singletons, reusing the arrays when they
  * are large enough, so a per-thread instance serves every summary.
  */
final class DisjointSet(n: Int) {
  private var parent = new Array[Int](n)
  private var rank   = new Array[Byte](n)
  reset(n)

  /** Makes `[0, n)` singletons again, growing the arrays geometrically if
    * they hold fewer than `n` ids.
    */
  def reset(n: Int): Unit = {
    if (parent.length < n) {
      val size = SearchSpace.grownSize(parent.length, n)
      parent = new Array[Int](size)
      rank = new Array[Byte](size)
    } else java.util.Arrays.fill(rank, 0, n, 0.toByte)
    var i = 0
    while (i < n) { parent(i) = i; i += 1 }
  }

  /** Representative of `x`'s component (with path compression). */
  def find(x: Int): Int = {
    var root = x
    while (parent(root) != root) root = parent(root)
    var cur = x
    while (parent(cur) != root) { val next = parent(cur); parent(cur) = root; cur = next }
    root
  }

  /** Merge the components of `a` and `b`; returns false if already merged. */
  def union(a: Int, b: Int): Boolean = {
    val ra = find(a); val rb = find(b)
    if (ra == rb) false
    else {
      if (rank(ra) < rank(rb)) parent(ra) = rb
      else if (rank(ra) > rank(rb)) parent(rb) = ra
      else { parent(rb) = ra; rank(ra) = (rank(ra) + 1).toByte }
      true
    }
  }
}
