package repro.graph

/** The one sort on the summary path, on primitive arrays: the Kruskal
  * orders of ST's metric closure and PCST's boundary proposals, PCST's
  * terminals grouped by vertex, and the Eq. (1) overlay's hops grouped by
  * edge. `byKey` neither boxes nor allocates: the JDK's primitive sort
  * allocates a run array for some inputs (a long[] of ≥ 44 entries whose
  * first ascending run has ≥ 16). The recommenders rank by two keys with
  * `byKeys`, which allocates its result and scratch but boxes nothing.
  */
object IndexSort {

  /** The permutation of `0 until n` that orders `keys(0 until n)` by
    * `java.lang.Double.compare`, tied keys in index order (a stable merge
    * sort). Parallel arrays appended in a secondary order are thereby
    * sorted by (key, that order).
    *
    * It runs in caller buffers: `perm` and `buf` each hold at least `n` ids
    * and their contents are overwritten. Returns whichever of the two holds
    * the permutation in its first `n` slots.
    */
  def byKey(keys: Array[Double], n: Int, perm: Array[Int], buf: Array[Int]): Array[Int] = {
    var from = perm
    var to = buf
    var i = 0
    while (i < n) { from(i) = i; i += 1 }
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = math.min(lo + width, n)
        val hi = math.min(lo + 2 * width, n)
        var a = lo; var b = mid; var k = lo
        while (k < hi) {
          // Take from the left run unless the right key is strictly smaller.
          if (b >= hi || (a < mid && java.lang.Double.compare(keys(from(a)), keys(from(b))) <= 0)) {
            to(k) = from(a); a += 1
          } else {
            to(k) = from(b); b += 1
          }
          k += 1
        }
        lo = hi
      }
      val t = from; from = to; to = t
      width *= 2
    }
    from
  }

  /** The permutation of `0 until n` that orders by (`primary`, `secondary`),
    * each compared with `java.lang.Double.compare`, full ties in index
    * order: a stable sort by `secondary`, then a stable sort of that order
    * by `primary`. This is the order of a stable `sortBy` on the tuple key
    * (primary, secondary) over Doubles, or over Ints, which are exact as
    * doubles.
    */
  def byKeys(primary: Array[Double], secondary: Array[Double], n: Int): Array[Int] = {
    val (perm, buf) = (new Array[Int](n), new Array[Int](n))
    val bySecondary = java.util.Arrays.copyOf(byKey(secondary, n, perm, buf), n)
    val keys = new Array[Double](n)
    var i = 0
    while (i < n) { keys(i) = primary(bySecondary(i)); i += 1 }
    val order = byKey(keys, n, perm, buf)
    i = 0
    while (i < n) { order(i) = bySecondary(order(i)); i += 1 }
    order
  }
}
