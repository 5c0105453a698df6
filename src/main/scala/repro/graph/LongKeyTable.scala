package repro.graph

/** Open-addressing hash table from `long` keys to a (`double`, `int`) value
  * pair, on parallel primitive arrays with linear probing, so a lookup or an
  * update boxes nothing. It holds the kernels' per-summary sparse maps: the
  * Eq. (1) weight overlay (edge id → weight, path count) and PCST's cheapest
  * boundary proposal per region pair (pair key → cost, edge id); and
  * `KgIndex`'s undirected edge lookup (pair key → edge id).
  */
final class LongKeyTable(expected: Int) {
  private var keys     = new Array[Long](LongKeyTable.capacityFor(expected))
  private var occupied = new Array[Boolean](keys.length)
  private var doubles  = new Array[Double](keys.length)
  private var ints     = new Array[Int](keys.length)
  private var count    = 0

  def size: Int = count

  /** Number of slots; slots are indexed `0 until capacity`. */
  def capacity: Int = keys.length

  def isOccupied(slot: Int): Boolean = occupied(slot)
  def keyAt(slot: Int): Long = keys(slot)
  def doubleAt(slot: Int): Double = doubles(slot)
  def intAt(slot: Int): Int = ints(slot)

  /** The slot holding `key`, or −1 if it is absent. */
  def find(key: Long): Int = {
    val s = probe(key)
    if (occupied(s)) s else -1
  }

  /** Sets the value of `key`, inserting it if absent. */
  def put(key: Long, d: Double, i: Int): Unit = {
    var s = probe(key)
    if (!occupied(s)) {
      if (2 * (count + 1) > keys.length) { grow(); s = probe(key) }
      occupied(s) = true; keys(s) = key; count += 1
    }
    doubles(s) = d; ints(s) = i
  }

  // The slot holding `key`, or the empty slot where it would go.
  private def probe(key: Long): Int = {
    val mask = keys.length - 1
    var s = LongKeyTable.mix(key) & mask
    while (occupied(s) && keys(s) != key) s = (s + 1) & mask
    s
  }

  private def grow(): Unit = {
    val (k, o, d, i) = (keys, occupied, doubles, ints)
    keys = new Array[Long](2 * k.length)
    occupied = new Array[Boolean](keys.length)
    doubles = new Array[Double](keys.length)
    ints = new Array[Int](keys.length)
    var s = 0
    while (s < k.length) {
      if (o(s)) {
        val t = probe(k(s))
        occupied(t) = true; keys(t) = k(s); doubles(t) = d(s); ints(t) = i(s)
      }
      s += 1
    }
  }
}

object LongKeyTable {
  // Power of two with load factor ≤ 1/2 at the expected size.
  private def capacityFor(expected: Int): Int =
    math.max(16, Integer.highestOneBit(math.max(1, expected) * 2 - 1) * 2)

  // Fibonacci hashing: edge ids and region-pair keys are dense in their low bits.
  private def mix(key: Long): Int = {
    val h = key * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt
  }
}
