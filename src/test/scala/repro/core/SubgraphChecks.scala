package repro.core

import repro.graph.DisjointSet

/** Validity checks on a [[Subgraph]] that only tests make. */
object SubgraphChecks {

  val empty: Subgraph = Subgraph(Array.empty, Array.empty, Array.empty, Array.empty, 0)

  implicit final class Checks(private val s: Subgraph) extends AnyVal {

    /** Terminals actually present in V_S. */
    def coveredTerminals: Array[Long] = {
      val v = s.nodes.toSet
      s.terminals.filter(v.contains)
    }

    /** Number of weakly connected components of S, treating each isolated
      * terminal as its own trivial component (1 for a connected summary;
      * more for a forest when terminals span several KG components).
      */
    def componentCount: Int = {
      val ids = s.nodes.zipWithIndex.toMap
      val ds = new DisjointSet(ids.size)
      s.edges.foreach(e => ds.union(ids(e.src), ids(e.dst)))
      (0 until ids.size).count(i => ds.find(i) == i)
    }
  }
}
