package repro.graph

/** Queries on a [[DisjointSet]] that only tests ask. */
object DisjointSetChecks {
  implicit final class Queries(private val ds: DisjointSet) extends AnyVal {

    /** True iff `a` and `b` are in the same component. */
    def connected(a: Int, b: Int): Boolean = ds.find(a) == ds.find(b)

    /** Number of components among the ids `[0, n)`: their roots. */
    def components(n: Int): Int = (0 until n).count(i => ds.find(i) == i)
  }
}
