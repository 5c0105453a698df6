package repro.graph

/** Open-addressing hash table from `long` keys to a (`double`, `int`) value
  * pair, on parallel primitive arrays with linear probing, so a lookup or an
  * update boxes nothing. It holds the Eq. (1) weight overlay (edge id →
  * weight, path count), the per-summary sparse map that lives in each
  * thread's `SearchSpace`.
  *
  * [[reset]] empties the table for reuse. The table then uses only the
  * first `capacity` slots of its arrays, sized for the new expected count,
  * and clears only those, so a small map in a table once grown for a large
  * one neither allocates nor pays for the large one's slots.
  */
final class LongKeyTable(expected: Int) {
  private var keys     = new Array[Long](LongKeyTable.capacityFor(expected))
  private var occupied = new Array[Boolean](keys.length)
  private var doubles  = new Array[Double](keys.length)
  private var ints     = new Array[Int](keys.length)
  private var slots    = keys.length
  private var count    = 0

  def size: Int = count

  /** Number of slots in use; slots are indexed `0 until capacity`. */
  def capacity: Int = slots

  def isOccupied(slot: Int): Boolean = occupied(slot)
  def keyAt(slot: Int): Long = keys(slot)
  def doubleAt(slot: Int): Double = doubles(slot)
  def intAt(slot: Int): Int = ints(slot)

  /** Empties the table and sizes it for `expected` keys, reusing its arrays
    * when they are large enough.
    */
  def reset(expected: Int): Unit = {
    slots = LongKeyTable.capacityFor(expected)
    if (slots > keys.length) allocate(slots)
    else java.util.Arrays.fill(occupied, 0, slots, false)
    count = 0
  }

  /** The slot holding `key`, or −1 if it is absent. */
  def find(key: Long): Int = {
    val s = probe(key)
    if (occupied(s)) s else -1
  }

  /** Sets the value of `key`, inserting it if absent. */
  def put(key: Long, d: Double, i: Int): Unit = {
    var s = probe(key)
    if (!occupied(s)) {
      if (2 * (count + 1) > slots) { grow(); s = probe(key) }
      occupied(s) = true; keys(s) = key; count += 1
    }
    doubles(s) = d; ints(s) = i
  }

  // The slot holding `key`, or the empty slot where it would go.
  private def probe(key: Long): Int = {
    val mask = slots - 1
    var s = LongKeyTable.mix(key) & mask
    while (occupied(s) && keys(s) != key) s = (s + 1) & mask
    s
  }

  private def allocate(n: Int): Unit = {
    keys = new Array[Long](n)
    occupied = new Array[Boolean](n)
    doubles = new Array[Double](n)
    ints = new Array[Int](n)
    slots = n
  }

  private def grow(): Unit = {
    val (k, o, d, i, n) = (keys, occupied, doubles, ints, slots)
    allocate(math.max(2 * n, keys.length)) // never shrinks the arrays
    slots = 2 * n
    var s = 0
    while (s < n) {
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

  // Fibonacci hashing: edge ids are dense in their low bits.
  private def mix(key: Long): Int = {
    val h = key * 0x9E3779B97F4A7C15L
    (h ^ (h >>> 32)).toInt
  }
}
