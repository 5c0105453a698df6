package repro.rec

import repro.graph.CompactGraph
import repro.kg.{KgIndex, NodeType}

/** Oracle for the four simulated recommenders: the PGPR, CAFE and PLM/PEARLM
  * bodies as they were before the recommenders shared their neighbour
  * ranking, rated-item test and best-path table, with the boxed
  * rated-item `HashSet`, a best-path `HashMap` each and the tuple-form
  * top-k step. A rewrite of a recommender must give the same ordered
  * top-k list as `reference(rec)` for every user (`ReferenceRecommenderSpec`).
  */
object ReferenceRecommenders {

  /** The reference body of `rec`, chosen by its name. */
  def reference(rec: PathRecommender): (KgIndex, Int, Int, Long) => Seq[ExplanationPath] =
    rec.name match {
      case "pgpr"   => pgpr
      case "cafe"   => cafe
      case "plm"    => lm(eta = 0.3)
      case "pearlm" => lm(eta = 0.0)
    }

  private def ratedItemSet(kg: KgIndex, u: Int): java.util.HashSet[Integer] = {
    val s = new java.util.HashSet[Integer]()
    kg.foreachNeighbor(u) { (v, _) => if (kg.vtype(v) == NodeType.Item) s.add(v) }
    s
  }

  private def ratedItems(kg: KgIndex, u: Int): Array[(Int, Int)] = {
    val buf = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    kg.foreachNeighbor(u) { (v, e) => if (kg.vtype(v) == NodeType.Item) buf += ((v, e)) }
    buf.sortBy { case (v, e) => (-kg.graph.edgeWeight(e), v) }.toArray
  }

  private def topK(g: CompactGraph, best: Iterable[(Int, (Seq[Int], Double))],
                   k: Int): Seq[ExplanationPath] =
    best.toSeq
      .sortBy { case (item, (_, score)) => (-score, item) }
      .take(k)
      .zipWithIndex
      .map { case ((_, (path, _)), i) =>
        val nodes = path.map(g.ids(_)).toVector
        ExplanationPath(nodes.head, nodes.last, i + 1, nodes)
      }

  def pgpr(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val rated = ratedItemSet(kg, userIdx)
    var beam: Vector[(List[Int], Double)] = Vector((List(userIdx), 0.0))
    val best = scala.collection.mutable.HashMap.empty[Int, (List[Int], Double)]
    for (_ <- 1 to 3) {
      val next = scala.collection.mutable.ArrayBuffer.empty[(List[Int], Double)]
      beam.foreach { case (path, score) =>
        val u = path.head
        val visited = path.toSet
        val cand = scala.collection.mutable.ArrayBuffer.empty[(Int, Double, Double)]
        kg.foreachNeighbor(u) { (v, e) =>
          if (!visited.contains(v))
            cand += ((v, g.edgeWeight(e), g.degree(v).toDouble))
        }
        cand.sortBy { case (v, w, d) => (-w, -d, v) }
          .take(12)
          .foreach { case (v, w, d) =>
            val np = v :: path
            val ns = score + w + 1e-6 * math.log1p(d)
            next += ((np, ns))
            if (kg.vtype(v) == NodeType.Item && !rated.contains(v)) {
              val cur = best.get(v)
              if (cur.isEmpty || cur.get._2 < ns) best(v) = (np, ns)
            }
          }
      }
      beam = next.sortBy { case (p, s) => (-s, p.head) }.take(24).toVector
    }
    topK(g, best.view.mapValues { case (revPath, score) => (revPath.reverse, score) }, k)
  }

  def cafe(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val rated = ratedItemSet(kg, userIdx)
    val topRated = ratedItems(kg, userIdx).take(10)
    val entityRich = {
      var extLinks = 0; var n = 0
      topRated.foreach { case (i1, _) =>
        n += 1
        kg.foreachNeighbor(i1) { (v, _) => if (kg.vtype(v) == NodeType.External) extLinks += 1 }
      }
      n > 0 && extLinks.toDouble / n >= 5.0
    }
    val boostT1 = if (entityRich) 0.0 else 0.5
    val boostT2 = if (entityRich) 0.5 else 0.0

    val best = scala.collection.mutable.HashMap.empty[Int, (Vector[Int], Double)]
    def offer(item: Int, path: Vector[Int], score: Double): Unit = {
      val cur = best.get(item)
      if (cur.isEmpty || cur.get._2 < score) best(item) = (path, score)
    }
    def neighborsOf(v: Int, t: Byte, limit: Int, byWeight: Boolean): Seq[(Int, Int)] = {
      val buf = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
      kg.foreachNeighbor(v) { (u, e) => if (kg.vtype(u) == t) buf += ((u, e)) }
      val sorted =
        if (byWeight) buf.sortBy { case (u, e) => (-g.edgeWeight(e), u) }
        else buf.sortBy { case (u, _) => (-g.degree(u), u) }
      sorted.take(limit).toSeq
    }

    topRated.foreach { case (i1, e1) =>
      val w1 = g.edgeWeight(e1)
      neighborsOf(i1, NodeType.User, 8, byWeight = true).filter(_._1 != userIdx).foreach { case (u2, e2) =>
        val w2 = g.edgeWeight(e2)
        neighborsOf(u2, NodeType.Item, 8, byWeight = true).foreach { case (i2, e3) =>
          if (i2 != i1 && !rated.contains(i2))
            offer(i2, Vector(userIdx, i1, u2, i2), w1 + w2 + g.edgeWeight(e3) + boostT1)
        }
      }
      neighborsOf(i1, NodeType.External, 8, byWeight = false).foreach { case (x, _) =>
        neighborsOf(x, NodeType.Item, 8, byWeight = false).foreach { case (i2, _) =>
          if (i2 != i1 && !rated.contains(i2)) {
            val pop = 1e-3 * math.log1p(g.degree(i2).toDouble)
            offer(i2, Vector(userIdx, i1, x, i2), w1 + pop + boostT2)
          }
        }
      }
    }
    topK(g, best, k)
  }

  def lm(eta: Double)(kg: KgIndex, userIdx: Int, k: Int, seed: Long): Seq[ExplanationPath] = {
    val g = kg.graph
    val rated = ratedItemSet(kg, userIdx)
    val ratedArr = ratedItems(kg, userIdx)
    if (ratedArr.isEmpty) return Seq.empty
    val rng = new scala.util.Random(seed * 1_000_003L + userIdx)

    def weightedRated(): Int = {
      val total = ratedArr.iterator.map { case (_, e) => g.edgeWeight(e) + 0.1 }.sum
      var r = rng.nextDouble() * total
      var i = 0
      while (i < ratedArr.length - 1) {
        r -= g.edgeWeight(ratedArr(i)._2) + 0.1
        if (r <= 0) return ratedArr(i)._1
        i += 1
      }
      ratedArr.last._1
    }
    def nextNode(v: Int, types: Set[Byte], exclude: Int): Option[Int] =
      if (eta > 0 && rng.nextDouble() < eta) {
        val t = types.toSeq.sorted.apply(rng.nextInt(types.size))
        val pool = kg.byPopularity(t)
        if (pool.isEmpty) None
        else {
          val idx = math.min(pool.length - 1, (rng.nextDouble() * rng.nextDouble() * pool.length).toInt)
          Some(pool(idx)).filter(_ != exclude)
        }
      } else {
        val buf = scala.collection.mutable.ArrayBuffer.empty[Int]
        kg.foreachNeighbor(v) { (u, _) => if (types.contains(kg.vtype(u)) && u != exclude) buf += u }
        if (buf.isEmpty) None else Some(buf(rng.nextInt(buf.length)))
      }

    val best = scala.collection.mutable.HashMap.empty[Int, (Vector[Int], Double)]
    var s = 0
    while (s < 300) {
      val i1 = weightedRated()
      nextNode(i1, Set(NodeType.User, NodeType.External), exclude = userIdx).foreach { x =>
        nextNode(x, Set(NodeType.Item), exclude = i1).foreach { item =>
          if (!rated.contains(item) && kg.vtype(item) == NodeType.Item) {
            val score = math.log1p(g.degree(i1).toDouble) +
              math.log1p(g.degree(x).toDouble) + math.log1p(g.degree(item).toDouble)
            val cur = best.get(item)
            if (cur.isEmpty || cur.get._2 < score)
              best(item) = (Vector(userIdx, i1, x, item), score)
          }
        }
      }
      s += 1
    }
    topK(g, best, k)
  }
}
