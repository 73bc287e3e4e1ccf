package hopebench

/** Growable buffer of per-operation latencies in nanoseconds. */
final class Samples {
  private var a = new Array[Int](1 << 16)
  private var n = 0

  def add(ns: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = if (ns > Int.MaxValue) Int.MaxValue else ns.toInt
    n += 1
  }

  def size: Int = n

  def summary: Summary = slice(0, n)

  /** Percentiles of the samples added between two sizes of the buffer. */
  def slice(from: Int, until: Int): Summary = {
    val s = java.util.Arrays.copyOfRange(a, from, until)
    java.util.Arrays.sort(s)
    Summary(s)
  }
}

/** Growable buffer of ints: query key indices and answers, checked after the
  * timed loop so the oracle never runs between two timed operations.
  */
final class Ints {
  private var a = new Array[Int](1 << 16)
  private var n = 0

  def add(v: Int): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = v
    n += 1
  }

  def size: Int = n
  def apply(i: Int): Int = a(i)
}

/** Percentiles of a sorted sample by nearest rank. */
final case class Summary(sorted: Array[Int]) {
  def n: Int = sorted.length
  def at(bp: Int): Double = sorted(Percentiles.rank(n, bp) - 1).toDouble
  def p50: Double = at(5000)
  def p99: Double = at(9900)
  /** The highest percentile the sample supports, with its value. */
  def highest: Option[(Int, Double)] = Percentiles.highestSupported(n).map(bp => bp -> at(bp))
}

object Percentiles {

  /** Candidate percentiles in basis points, highest first. */
  val Ladder: Seq[Int] = Seq(9999, 9990, 9900, 9000, 5000)

  /** 1-based nearest rank of percentile `bp` (basis points) among `n` samples. */
  def rank(n: Int, bp: Int): Int = math.max(1, ((bp.toLong * n + 9999) / 10000).toInt)

  /** The highest percentile on [[Ladder]] with at least ten samples beyond
    * it, or None when even the median has fewer than ten.
    */
  def highestSupported(n: Int): Option[Int] = Ladder.find(bp => n - rank(n, bp) >= 10)

  /** "p99", "p99.9", "p99.99" — the label of a percentile in basis points. */
  def label(bp: Int): String =
    if (bp % 100 == 0) s"p${bp / 100}" else s"p${BigDecimal(bp) / 100}"

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
