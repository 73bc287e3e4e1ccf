package hopebench

import java.lang.management.{ManagementFactory, MemoryType}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, length, lit, sum}
import repro.core.{Axis, BuiltHope, Bytes, CodeAssign, Hope, HopeSpark, Scheme, SymbolSelect}
import repro.eval.{KVTree, SparkTreeEval}
import repro.keys.{KeyShuffle, Zipf}
import repro.surf.Surf
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** Seeds of every generator in a run, derived from the one workload seed. */
final case class Seeds(workload: Long) {
  def apply(purpose: String): Long =
    new java.util.SplittableRandom(workload * 0x9E3779B97F4A7C15L ^ purpose.hashCode).nextLong() & 0xffffffffL
}

/** What one run measured: every metric it has a value for, the operations
  * it checked against an oracle, and human-readable lines for the log.
  */
final case class Result(metrics: Map[String, Double], attempted: Long, failed: Long, lines: Seq[String])

/** One run of one workload: set up several times, then measure each phase
  * for its share of the run's seconds, then check every answer.
  *
  * Trees and SuRF are driven by one client thread in a closed loop. Every
  * timed operation encodes its query key inside the timed region. With a
  * tracer that is on, the run also replays the dictionary build one layer at
  * a time and times each layer alone on keys encoded beforehand.
  */
final class Bench(w: Workload, seed: Long, seconds: Double, tr: Tracer, spark: SparkSession) {
  import Bench._

  private val seeds = Seeds(seed)
  private val nGen = w.genKeys
  private val budgetNs = (seconds * 1e9).toLong
  private val m = mutable.LinkedHashMap.empty[String, Double]
  private val lines = ArrayBuffer.empty[String]
  private var attempted = 0L
  private var failed = 0L

  private def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) failures(1, what)
  }

  /** Record `n` wrong answers among operations already counted as attempted. */
  private def failures(n: Long, what: String): Unit = {
    failed += n
    if (reported < 10) { lines += s"FAILED: $what"; reported += 1 }
  }
  private var reported = 0

  /** The keys, their dictionary, and the structure the encoded keys are
    * loaded into: a tree or, on SuRF workloads, a filter. `df` holds the keys
    * for the Spark jobs.
    */
  private final class Loaded(
      val keys: Array[Array[Byte]],
      val df: DataFrame,
      val hope: BuiltHope,
      val tree: KVTree,
      val surf: Surf,
  ) {
    val nLoad: Int = if (surf != null) keys.length else (keys.length * LoadShare).toInt
  }

  // ------------------------------------------------------------------ set-up

  private def genKeys(): (Array[Array[Byte]], DataFrame) = {
    val raw = w.keys(spark, nGen, seeds("keys"))
    if (!w.sparkJobs) (repro.keys.KeySynth.collectKeys(raw), null)
    else {
      val df = raw.repartition(Partitions).cache()
      (repro.keys.KeySynth.collectKeys(df), df)
    }
  }

  private def buildDict(keys: Array[Array[Byte]], df: DataFrame): BuiltHope =
    if (w.sparkJobs) HopeSpark.build(df, "k", w.scheme, SampleFraction, seeds("sample"))
    else Hope.build(sampleOf(keys), w.scheme)

  /** Generate, build, load and warm up. */
  private def setupOnce(): (Loaded, SetupTimes) = {
    val t0 = System.nanoTime()
    val (keys, df) = tr.span("keys.gen")(genKeys())
    val t1 = System.nanoTime()
    val hope = tr.span("build")(buildDict(keys, df))
    val t2 = System.nanoTime()
    val l =
      if (w.isSurf) new Loaded(keys, df, hope, null, tr.span("load", keys.length)(loadSurf(keys, hope)))
      else new Loaded(keys, df, hope, tr.span("load", keys.length)(loadTree(keys, hope)), null)
    tr.span("warmup")(warmUp(l))
    val end = System.nanoTime()
    (l, SetupTimes((t1 - t0) / 1e9, (t2 - t1) / 1e9, (end - t0) / 1e9))
  }

  private def loadTree(keys: Array[Array[Byte]], hope: BuiltHope): KVTree = {
    val tree = KVTree.create(w.structure)
    val nLoad = (keys.length * LoadShare).toInt
    var i = 0
    while (i < nLoad) { tree.insert(hope.encodeTerminated(keys(i)).bytes, i.toLong); i += 1 }
    tree
  }

  private def loadSurf(keys: Array[Array[Byte]], hope: BuiltHope): Surf = {
    val enc = keys.map(k => hope.encodeTerminated(k).bytes)
    java.util.Arrays.sort(enc, Bytes.ordering)
    var dups = 0
    var i = 1
    while (i < enc.length) { if (Bytes.compare(enc(i - 1), enc(i)) == 0) dups += 1; i += 1 }
    require(dups == 0, s"$dups distinct keys share an encoding")
    tr.span("surf.build")(Surf(enc, SuffixBits))
  }

  private def warmUp(l: Loaded): Unit = {
    val zipf = new Zipf(l.nLoad, seed = seeds("warmup"))
    var i = 0
    var sink = 0L
    while (i < WarmupOps) {
      val k = l.keys(zipf.next())
      val e = l.hope.encodeTerminated(k).bytes
      sink += (if (l.surf != null) { if (l.surf.mayContain(e)) 1 else 0 } else l.tree.get(e))
      if (i % 10 == 0)
        sink += (if (l.surf != null) { if (l.surf.mayContainRange(e, e)) 1 else 0 } else l.tree.scan(e, ScanLen))
      i += 1
    }
    require(sink != Long.MinValue)
  }

  // ------------------------------------------------------------ measurement

  /** Encode keys one at a time from `cursor(0)` on, wrapping around, until
    * the budget is spent. Returns the ns spent and the raw bytes encoded.
    */
  private def encodeSlice(l: Loaded, budget: Long, cursor: Array[Int]): (Long, Long) = {
    var chars = 0L
    var sink = 0L
    val t0 = System.nanoTime()
    val deadline = t0 + budget
    var i = cursor(0)
    var now = t0
    while (now < deadline) {
      var j = 0
      while (j < 64) {
        val k = l.keys(i)
        sink += l.hope.encode(k).bitLen
        chars += k.length
        i += 1
        if (i == l.keys.length) i = 0
        j += 1
      }
      now = System.nanoTime()
    }
    cursor(0) = i
    require(sink > 0)
    (now - t0, chars)
  }

  /** Raw bits over encoded bits, over every key (Fig. 8 row 1). */
  private def compressionRate(l: Loaded): Double = {
    var raw = 0L
    var bits = 0L
    l.keys.foreach { k => raw += k.length; bits += l.hope.encode(k).bitLen }
    raw * 8.0 / bits
  }

  private final class Loop {
    val lat = new Samples
    val idx = new Ints
    val res = new Ints
  }
  private val ops = (r: Loop) => r.lat.size.toLong

  private def treePoints(l: Loaded, zipf: Zipf, perm: Array[Int], budget: Long, r: Loop): Unit = {
    val deadline = System.nanoTime() + budget
    var done = false
    while (!done) {
      val i = perm(zipf.next())
      val k = l.keys(i)
      val t0 = System.nanoTime()
      val v = l.tree.get(l.hope.encodeTerminated(k).bytes)
      val t1 = System.nanoTime()
      r.lat.add(t1 - t0); r.idx.add(i); r.res.add(v.toInt)
      done = t1 >= deadline
    }
  }

  private def treeScans(l: Loaded, zipf: Zipf, perm: Array[Int], budget: Long, r: Loop): Unit = {
    val deadline = System.nanoTime() + budget
    var done = false
    while (!done) {
      val i = perm(zipf.next())
      val k = l.keys(i)
      val t0 = System.nanoTime()
      val c = l.tree.scan(l.hope.encodeTerminated(k).bytes, ScanLen)
      val t1 = System.nanoTime()
      r.lat.add(t1 - t0); r.idx.add(i); r.res.add(c)
      done = t1 >= deadline
    }
  }

  private def treeInserts(l: Loaded): Samples = {
    val lat = new Samples
    var i = l.nLoad
    while (i < l.keys.length) {
      val k = l.keys(i)
      val t0 = System.nanoTime()
      l.tree.insert(l.hope.encodeTerminated(k).bytes, i.toLong)
      lat.add(System.nanoTime() - t0)
      i += 1
    }
    lat
  }

  private def surfPoints(l: Loaded, zipf: Zipf, perm: Array[Int], budget: Long, r: Loop): Unit = {
    val deadline = System.nanoTime() + budget
    var done = false
    while (!done) {
      val i = perm(zipf.next())
      val k = l.keys(i)
      val t0 = System.nanoTime()
      val v = l.surf.mayContain(l.hope.encodeTerminated(k).bytes)
      val t1 = System.nanoTime()
      r.lat.add(t1 - t0); r.idx.add(i); r.res.add(if (v) 1 else 0)
      done = t1 >= deadline
    }
  }

  private def surfRanges(l: Loaded, zipf: Zipf, perm: Array[Int], budget: Long, r: Loop): Unit = {
    val deadline = System.nanoTime() + budget
    var done = false
    while (!done) {
      val i = perm(zipf.next())
      val k = l.keys(i)
      val hi = successor(k)
      val t0 = System.nanoTime()
      val v = l.surf.mayContainRange(l.hope.encodeTerminated(k).bytes, l.hope.encodeTerminated(hi).bytes)
      val t1 = System.nanoTime()
      r.lat.add(t1 - t0); r.idx.add(i); r.res.add(if (v) 1 else 0)
      done = t1 >= deadline
    }
  }

  /** p50 and p99 of the round with the lowest of each: see [[Bench.run]]. */
  private def latency(prefix: String, all: Summary, rounds: Seq[Summary]): Unit = {
    rounds.foreach(s => require(s.highest.exists(_._1 >= 9900),
      s"$prefix: a round's ${s.n} samples do not support a p99; give the run more seconds"))
    m(s"${prefix}_p50_ns") = rounds.map(_.p50).min
    m(s"${prefix}_p99_ns") = rounds.map(_.p99).min
    val (bp, v) = all.highest.get
    lines += f"$prefix: n=${all.n} in ${rounds.size} rounds, all rounds together p50=${all.p50}%.0f ns " +
      f"p99=${all.p99}%.0f ns highest supported ${Percentiles.label(bp)}=$v%.0f ns"
    lines += s"$prefix p50 by round: ${rounds.map(s => f"${s.p50}%.0f").mkString(", ")} ns"
    lines += s"$prefix p99 by round: ${rounds.map(s => f"${s.p99}%.0f").mkString(", ")} ns"
  }

  // ------------------------------------------------------------------ the run

  /** `startNs` is when the JVM started: the time from then to this call,
    * JVM and Spark start-up, is part of every set-up's time.
    */
  def run(startNs: Long): Result = {
    val startupS = (System.nanoTime() - startNs) / 1e9
    val listener = new TaskListener
    if (w.sparkJobs) spark.sparkContext.addSparkListener(listener)

    var l: Loaded = null
    val times = ArrayBuffer.empty[SetupTimes]
    for (rep <- 0 until SetupReps) {
      if (l != null && l.df != null) l.df.unpersist(blocking = true)
      l = null // let the previous set-up's structure be collected
      val (next, t) = setupOnce()
      l = next
      times += t
    }
    // Only the first set-up runs with a cold JIT; the median leaves it out,
    // so it is reported on its own as well.
    m("setup_s") = startupS + Percentiles.median(times.map(_.totalS).toSeq)
    m("setup.first_s") = startupS + times.head.totalS
    m("keys.gen_s") = Percentiles.median(times.map(_.genS).toSeq)
    def secs(xs: Iterable[Double]) = xs.map(s => f"$s%.3f").mkString(", ")
    lines += f"JVM and Spark start-up: $startupS%.3f s; " +
      s"set-ups: ${secs(times.map(_.totalS))} s, of which keys ${secs(times.map(_.genS))} s, " +
      s"build ${secs(times.map(_.buildS))} s"
    val keys = l.keys
    m("keys.count") = keys.length
    m("keys.mean_len") = keys.iterator.map(_.length.toLong).sum.toDouble / keys.length

    m("heap_mb") = heapAfterFullGc() / 1e6
    val dictBytes = l.hope.dictMemoryBytes
    val structBytes = if (l.surf != null) l.surf.memoryBytes else l.tree.memoryBytes
    m("mem_bytes_per_key") = (structBytes + dictBytes).toDouble / l.nLoad
    m("dict.bytes") = dictBytes.toDouble

    // Shares of the run's seconds per phase. Encoding, point and range
    // operations and dictionary builds take turns in short rounds, so that
    // each of them samples the whole window rather than one stretch of a
    // noisy machine. Inserts of the held-out keys follow, then the Spark jobs.
    //
    // On a shared host, other tenants slow every operation by up to a
    // quarter for seconds to minutes at a time, and whole runs come out
    // fast or slow together. Interference only ever adds time, so each
    // timing metric is the round (or build) least disturbed by it: the
    // lowest per-round p50, p99 and ns/char, and the fastest build. A change
    // to the program moves every round, the lowest included.
    val shares =
      if (w.sparkJobs)
        Map("build" -> 0.2, "encode" -> 0.15, "point" -> 0.2, "range" -> 0.2, "spark.encode" -> 0.1, "spark.tree" -> 0.15)
      else Map("build" -> 0.35, "encode" -> 0.15, "point" -> 0.2, "range" -> 0.3)
    def share(name: String): Long = (budgetNs * shares(name)).toLong
    def phase(name: String): Long = share(name) / Rounds

    val zipf = new Zipf(l.nLoad, seed = seeds("zipf"))
    val perm = KeyShuffle.permutation(l.nLoad, seeds("shuffle"))
    val points = new Loop
    val ranges = new Loop
    val slices = ArrayBuffer.empty[(Long, Long)]
    val cursor = Array(0)
    val pointEnds = ArrayBuffer(0)
    val rangeEnds = ArrayBuffer(0)
    def round(points: Loop, ranges: Loop): (Long, Long) = {
      val slice = tr.span("encode")(encodeSlice(l, phase("encode"), cursor))
      if (l.surf != null) {
        tr.span("point")(surfPoints(l, zipf, perm, phase("point"), points))
        tr.span("range")(surfRanges(l, zipf, perm, phase("range"), ranges))
      } else {
        tr.span("point")(treePoints(l, zipf, perm, phase("point"), points))
        tr.span("range")(treeScans(l, zipf, perm, phase("range"), ranges))
      }
      slice
    }
    // The first rounds of a run were a few percent slower than the rest
    // while the JIT finished compiling the measured loops; these are not kept.
    tr.span("warmup_rounds", WarmupRounds) {
      val (p, r) = (new Loop, new Loop)
      for (_ <- 0 until WarmupRounds) round(p, r)
    }
    // build_s: dictionary builds take turns with the rounds too, each from a
    // collected heap, as many in each round as keep their time, collections
    // included, at the round's share of the build budget (at least MinBuilds
    // in all).
    val builds = ArrayBuffer.empty[Double]
    var buildPhaseNs = 0L
    def buildOnce(): Unit = {
      val g = System.nanoTime()
      System.gc()
      val t0 = System.nanoTime()
      tr.span("build")(buildDict(l.keys, l.df))
      val t1 = System.nanoTime()
      builds += (t1 - t0) / 1e9
      buildPhaseNs += t1 - g
    }
    tr.span("rounds", Rounds) {
      for (r <- 1 to Rounds) {
        slices += round(points, ranges)
        pointEnds += points.lat.size
        rangeEnds += ranges.lat.size
        while (buildPhaseNs < share("build") * r / Rounds) buildOnce()
      }
    }
    while (builds.size < MinBuilds) buildOnce()
    m("build_s") = builds.min
    lines += s"builds: ${builds.size}, by round order: ${secs(builds)} s"
    def perRound(s: Samples, ends: ArrayBuffer[Int]) = ends.sliding(2).map(e => s.slice(e(0), e(1))).toSeq
    val inserts = if (l.surf != null) null else tr.spanOf("insert", (s: Samples) => s.size.toLong)(treeInserts(l))
    val perChar = slices.map { case (ns, c) => ns.toDouble / c }
    m("encode_ns_per_char") = perChar.min
    lines += "encode by round: " + perChar.map(v => f"$v%.2f").mkString(", ") + " ns/char"
    m("cpr") = compressionRate(l)
    latency("point", points.lat.summary, perRound(points.lat, pointEnds))
    latency("range", ranges.lat.summary, perRound(ranges.lat, rangeEnds))
    if (inserts != null) {
      val s = inserts.summary
      m("tree.insert_p50_ns") = s.p50
      m("tree.insert_p99_ns") = s.p99
      lines += f"insert: n=${s.n} p50=${s.p50}%.0f ns p99=${s.p99}%.0f ns"
    }

    if (w.sparkJobs) sparkJobs(l, share("spark.encode"), share("spark.tree"), listener)

    if (l.surf != null) verifySurf(l, points, ranges) else verifyTree(l, points, ranges)
    if (w.sparkJobs) verifySparkOrder(l)

    if (tr.on) layers(l, zipf, perm)
    m("trace.spans") = tr.size
    jvmMetrics()
    for (d <- Metrics.perLayer) m.getOrElseUpdate(d.name, 0.0)
    if (w.sparkJobs) spark.sparkContext.removeSparkListener(listener)
    if (l.df != null) l.df.unpersist(blocking = true)
    Result(m.toMap, attempted, failed, lines.toSeq)
  }

  // ----------------------------------------------------------- spark phase

  private def sparkJobs(l: Loaded, encodeBudget: Long, treeBudget: Long, listener: TaskListener): Unit = {
    val sc = spark.sparkContext
    val expectedBytes = l.keys.iterator.map(k => l.hope.encodeTerminated(k).bytes.length.toLong).sum
    val rows = l.keys.length.toLong

    val encodeMs = ArrayBuffer.empty[Double]
    var deadline = System.nanoTime() + encodeBudget
    do {
      sc.setJobGroup(s"encode-${encodeMs.size}", "hope_encode over every row")
      val t0 = System.nanoTime()
      val r = tr.span("spark.encode_job", rows) {
        HopeSpark.encodeColumn(l.df, "k", l.hope)
          .agg(sum(length(col("k_enc"))), count(lit(1))).head()
      }
      encodeMs += (System.nanoTime() - t0) / 1e6
      check(r.getLong(0) == expectedBytes && r.getLong(1) == rows,
        s"hope_encode job returned ${r.getLong(1)} rows / ${r.getLong(0)} B, expected $rows / $expectedBytes")
    } while (System.nanoTime() < deadline)
    val encMedian = Percentiles.median(encodeMs.toSeq)
    m("spark.encode_job_ms") = encMedian
    m("spark.encode_keys_per_s") = rows / (encMedian / 1e3)

    val treeS = ArrayBuffer.empty[Double]
    val slowest = ArrayBuffer.empty[Double]
    deadline = System.nanoTime() + treeBudget
    do {
      sc.setJobGroup(s"tree-${treeS.size}", "per-partition trees")
      val t0 = System.nanoTime()
      val parts = tr.span("spark.tree_job", rows) {
        SparkTreeEval.perPartition(spark, l.df, "k", w.structure, w.dataset, w.scheme.name,
          scheme = None, partitions = Partitions, prebuilt = Some(l.hope))
      }
      treeS += (System.nanoTime() - t0) / 1e9
      slowest += parts.map(_.pointNs).max
      // The job returns timings only, so its trees' answers cannot be
      // checked from here; this checks that its partitions cover every row.
      check(parts.map(_.keys.toLong).sum == rows, s"per-partition rows cover ${parts.map(_.keys).sum} keys, expected $rows")
    } while (System.nanoTime() < deadline)
    sc.clearJobGroup()
    m("spark.tree_job_s") = Percentiles.median(treeS.toSeq)
    m("spark.slowest_partition_point_ns") = Percentiles.median(slowest.toSeq)
    lines += f"spark: ${encodeMs.size} hope_encode jobs, median ${encMedian}%.1f ms; " +
      f"${treeS.size} tree jobs, median ${m("spark.tree_job_s")}%.3f s"

    listener.awaitIdle()
    val jobs = (0 until treeS.size).map(j => listener.tasksOf(s"tree-$j"))
    m("spark.tasks") = Percentiles.median(jobs.map(_.size.toDouble))
    m("spark.task_run_ms") = Percentiles.median(jobs.map(_.map(_.runMs).sum.toDouble))
    m("spark.task_gc_ms") = Percentiles.median(jobs.map(_.map(_.gcMs).sum.toDouble))
    val skews = jobs.filter(_.nonEmpty).map { ts =>
      val busiest = ts.groupBy(_.stage).values.maxBy(_.map(_.runMs).sum)
      val run = busiest.map(_.runMs.toDouble)
      run.max / math.max(1.0, Percentiles.median(run))
    }
    if (skews.nonEmpty) m("spark.task_skew") = Percentiles.median(skews)
  }

  // ----------------------------------------------------------- verification

  /** The reference: a TreeMap over the raw keys in unsigned byte order. */
  private def oracle(keys: Array[Array[Byte]], n: Int): java.util.TreeMap[Array[Byte], Integer] = {
    val o = new java.util.TreeMap[Array[Byte], Integer](Bytes.ordering)
    var i = 0
    while (i < n) { check(o.put(keys(i), i) == null, s"key $i is not distinct"); i += 1 }
    o
  }

  private def verifyTree(l: Loaded, points: Loop, ranges: Loop): Unit = {
    val o = oracle(l.keys, l.nLoad)
    // Tuple id of each queried key, looked up once; keys at or after each
    // loaded key, from the oracle's order.
    val id = Array.fill(l.nLoad)(Int.MinValue)
    val atOrAfter = new Array[Int](l.nLoad)
    var rank = 0
    val it = o.values().iterator()
    while (it.hasNext) { atOrAfter(it.next().intValue) = l.nLoad - rank; rank += 1 }
    attempted += points.idx.size + ranges.idx.size
    var j = 0
    while (j < points.idx.size) {
      val i = points.idx(j)
      if (id(i) == Int.MinValue) id(i) = o.get(l.keys(i)).intValue
      if (points.res(j) != id(i)) failures(1, s"get(key $i) = ${points.res(j)}, expected ${id(i)}")
      j += 1
    }
    j = 0
    while (j < ranges.idx.size) {
      val i = ranges.idx(j)
      val expected = math.min(ScanLen, atOrAfter(i))
      if (ranges.res(j) != expected) failures(1, s"scan(key $i) = ${ranges.res(j)} entries, expected $expected")
      j += 1
    }
    var i = l.nLoad
    while (i < l.keys.length) {
      val got = l.tree.get(l.hope.encodeTerminated(l.keys(i)).bytes)
      check(got == i && o.get(l.keys(i)) == null, s"inserted key $i reads back as $got")
      i += 1
    }
  }

  private def verifySurf(l: Loaded, points: Loop, ranges: Loop): Unit = {
    val o = oracle(l.keys, l.keys.length)
    var misses = 0
    var j = 0
    while (j < points.res.size) { if (points.res(j) != 1) misses += 1; j += 1 }
    j = 0
    while (j < ranges.res.size) { if (ranges.res(j) != 1) misses += 1; j += 1 }
    attempted += points.res.size + ranges.res.size
    if (misses > 0) failures(misses, s"$misses SuRF false negatives")

    // Negatives from the same generator under another seed, minus stored keys.
    val negatives = repro.keys.KeySynth.collectKeys(w.keys(spark, nGen, seeds("negatives")))
      .filter(k => !o.containsKey(k))
    var fp = 0
    negatives.foreach(k => if (l.surf.mayContain(l.hope.encodeTerminated(k).bytes)) fp += 1)
    m("surf.negatives") = negatives.length
    m("surf.fpr") = fp.toDouble / negatives.length
    lines += f"fpr: $fp of ${negatives.length} negatives pass the filter (${fp * 100.0 / negatives.length}%.3f%%)"
  }

  /** `hope_encode` output order must equal raw-key order: checked with the
    * DuckDB oracle on a sample of rows.
    */
  private def verifySparkOrder(l: Loaded): Unit = {
    import spark.implicits._
    val rows = HopeSpark.encodeColumn(l.df, "k", l.hope)
      .sample(withReplacement = false, OrderSampleRows.toDouble / l.keys.length, seeds("order"))
      .select("k", "k_enc").as[(String, Array[Byte])].collect()
    val local = rows.toSeq.toDF("k", "k_enc")
    val ranked = local.selectExpr("k", "row_number() over (order by k_enc) as pos")
    val ok =
      try { repro.Oracle.assertEquivalent(ranked, "select k, row_number() over (order by k) as pos from t",
          "t" -> local.select("k")); true }
      catch { case e: IllegalArgumentException => lines += s"order check: ${e.getMessage}"; false }
    attempted += rows.length
    if (!ok) failures(rows.length, s"hope_encode order differs from raw order on ${rows.length} rows")
    else lines += s"order check: ${rows.length} hope_encode rows sort like their raw keys (DuckDB)"
  }

  // ------------------------------------------------------------ per layer

  private def layers(l: Loaded, zipf: Zipf, perm: Array[Int]): Unit = {
    replayBuild(l)

    val q = math.min(LayerQueries, math.max(1000, l.nLoad))
    val qIdx = Array.fill(q)(perm(zipf.next()))
    val qKeys = qIdx.map(l.keys(_))

    val hits = tr.span("dict.lookup", q)(SymbolSelect.hitCounts(qKeys, l.hope.intervals, l.hope.index))
    m("dict.lookup_ns_per_key") = tr.totalNs("dict.lookup").toDouble / q
    m("encode.symbols_per_key") = hits.sum.toDouble / q

    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val qEnc = new Array[Array[Byte]](q)
    val a0 = threads.getCurrentThreadAllocatedBytes
    tr.span("encode.query", q) {
      var j = 0
      while (j < q) { qEnc(j) = l.hope.encodeTerminated(qKeys(j)).bytes; j += 1 }
    }
    val allocated = threads.getCurrentThreadAllocatedBytes - a0
    m("encode.ns_per_key") = tr.totalNs("encode.query").toDouble / q
    m("encode.alloc_bytes_per_key") = allocated.toDouble / q
    m("encode.out_bytes_per_key") = qEnc.iterator.map(_.length.toLong).sum.toDouble / q

    val traversalNs =
      if (l.surf != null) surfLayer(l, qKeys, qEnc)
      else treeLayer(l, qIdx, qKeys, qEnc)
    m("encode.point_share") = m("encode.ns_per_key") / (m("encode.ns_per_key") + traversalNs)
  }

  /** Hope.build one layer at a time, on the sample the run's build used. */
  private def replayBuild(l: Loaded): Unit = {
    val sample =
      if (w.sparkJobs) tr.span("spark.sample")(HopeSpark.sampleKeys(l.df, "k", SampleFraction, seeds("sample")))
      else sampleOf(l.keys)
    val iv = tr.span("select") { Axis.buildIntervals(SymbolSelect.extraBoundaries(w.scheme, sample)) }
    val index = tr.span("dict.build")(Hope.buildIndex(w.scheme, iv))
    val hits = tr.span("select.hits", sample.length)(SymbolSelect.hitCounts(sample, iv, index))
    val codes = tr.span("code") {
      if (Scheme.usesHuTucker(w.scheme)) CodeAssign.huTucker(hits) else CodeAssign.fixedLength(iv.size)
    }
    check(iv.size == l.hope.entries, s"layer-by-layer build made ${iv.size} entries, Hope.build ${l.hope.entries}")
    m("select.ms") = tr.totalNs("select") / 1e6
    m("select.hits_ms") = tr.totalNs("select.hits") / 1e6
    m("select.entries") = iv.size
    m("code.ms") = tr.totalNs("code") / 1e6
    m("code.mean_bits_per_symbol") =
      hits.indices.map(e => hits(e).toDouble * codes(e).len).sum / math.max(1L, hits.sum)
    m("dict.build_ms") = tr.totalNs("dict.build") / 1e6
    if (w.sparkJobs) {
      m("spark.sample_ms") = tr.totalNs("spark.sample") / 1e6
      val bytes = new java.io.ByteArrayOutputStream
      val out = new java.io.ObjectOutputStream(bytes)
      out.writeObject(l.hope)
      out.close()
      m("spark.dict_serialized_bytes") = bytes.size
    }
  }

  /** Tree operations alone, on keys encoded beforehand, and the same tree
    * loaded with raw keys (the Uncompressed baseline).
    */
  private def treeLayer(l: Loaded, qIdx: Array[Int], qKeys: Array[Array[Byte]], qEnc: Array[Array[Byte]]): Double = {
    val q = qIdx.length
    m("tree.bytes_per_key") = l.tree.memoryBytes.toDouble / l.keys.length
    m("tree.depth") = l.tree.avgDepth
    val enc = tr.span("encode.all", l.keys.length)(l.keys.map(k => l.hope.encodeTerminated(k).bytes))
    val t = KVTree.create(w.structure)
    tr.span("tree.load", l.nLoad) { var i = 0; while (i < l.nLoad) { t.insert(enc(i), i.toLong); i += 1 } }
    var wrong = 0
    tr.span("tree.get", q) { var j = 0; while (j < q) { if (t.get(qEnc(j)) != qIdx(j)) wrong += 1; j += 1 } }
    var sink = 0
    tr.span("tree.scan", q) { var j = 0; while (j < q) { sink += t.scan(qEnc(j), ScanLen); j += 1 } }
    tr.span("tree.insert", l.keys.length - l.nLoad) {
      var i = l.nLoad; while (i < enc.length) { t.insert(enc(i), i.toLong); i += 1 }
    }
    check(wrong == 0 && sink > 0, s"$wrong of $q lookups on encoded keys returned the wrong tuple")
    m("tree.load_s") = tr.totalNs("tree.load") / 1e9
    m("tree.point_ns") = tr.totalNs("tree.get").toDouble / q
    m("tree.range_ns") = tr.totalNs("tree.scan").toDouble / q
    m("tree.insert_ns") = tr.totalNs("tree.insert").toDouble / math.max(1, l.keys.length - l.nLoad)

    val raw = KVTree.create(w.structure)
    tr.span("tree.raw_load", l.nLoad) { var i = 0; while (i < l.nLoad) { raw.insert(l.keys(i), i.toLong); i += 1 } }
    wrong = 0
    tr.span("tree.raw_get", q) { var j = 0; while (j < q) { if (raw.get(qKeys(j)) != qIdx(j)) wrong += 1; j += 1 } }
    check(wrong == 0, s"$wrong of $q lookups on raw keys returned the wrong tuple")
    m("tree.raw_point_ns") = tr.totalNs("tree.raw_get").toDouble / q
    m("tree.raw_bytes_per_key") = raw.memoryBytes.toDouble / l.nLoad
    m("tree.point_ns")
  }

  private def surfLayer(l: Loaded, qKeys: Array[Array[Byte]], qEnc: Array[Array[Byte]]): Double = {
    val q = qKeys.length
    val qHi = qKeys.map(k => l.hope.encodeTerminated(successor(k)).bytes)
    var passed = 0
    tr.span("surf.point", q) { var j = 0; while (j < q) { if (l.surf.mayContain(qEnc(j))) passed += 1; j += 1 } }
    tr.span("surf.range", q) {
      var j = 0; while (j < q) { if (l.surf.mayContainRange(qEnc(j), qHi(j))) passed += 1; j += 1 }
    }
    check(passed == 2 * q, s"${2 * q - passed} SuRF false negatives on keys encoded beforehand")
    m("surf.build_ms") = Percentiles.median(tr.durationsNs("surf.build").map(_ / 1e6))
    m("surf.point_ns") = tr.totalNs("surf.point").toDouble / q
    m("surf.range_ns") = tr.totalNs("surf.range").toDouble / q
    m("surf.bytes_per_key") = l.surf.memoryBytes.toDouble / l.keys.length
    m("surf.height") = l.surf.avgLeafDepth
    m("surf.point_ns")
  }

  private def jvmMetrics(): Unit = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans
    var ms = 0L
    var n = 0L
    gcs.forEach { g => ms += math.max(0L, g.getCollectionTime); n += math.max(0L, g.getCollectionCount) }
    m("jvm.gc_ms") = ms.toDouble
    m("jvm.gc_count") = n.toDouble
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    m("jvm.alloc_mb") = threads.getCurrentThreadAllocatedBytes / 1e6
  }
}

object Bench {
  private final case class SetupTimes(genS: Double, buildS: Double, totalS: Double)

  val SetupReps = 3
  val MinBuilds = 3
  val Rounds = 40
  val WarmupRounds = 4
  val SampleFraction = 0.01
  val LoadShare = 0.9
  val ScanLen: Int = repro.eval.Harness.ScanLen
  val SuffixBits = 8
  val Partitions = 4
  val WarmupOps = 20000
  val LayerQueries = 200000
  val OrderSampleRows = 2000

  /** The 1% build sample of the non-Spark workloads, as `Harness.buildHope`
    * takes it: the first keys in generator order, at least 256.
    */
  def sampleOf(keys: Array[Array[Byte]]): Array[Array[Byte]] =
    keys.take(math.max(256, (keys.length * SampleFraction).toInt))

  /** `k` with its last byte incremented: the closed range [k, successor(k)]
    * holds k. Generated keys are ASCII, so the last byte never wraps.
    */
  def successor(k: Array[Byte]): Array[Byte] = {
    val hi = k.clone()
    hi(hi.length - 1) = (hi(hi.length - 1) + 1).toByte
    hi
  }

  /** Heap in use at the end of a full collection, summed over the heap's
    * pools as each reported it right after the collection. Reading the
    * heap's current use instead counted what other threads (Spark's among
    * them) had allocated since, which varied by up to 10 MB between runs.
    */
  def heapAfterFullGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryPoolMXBeans.asScala.iterator
      .filter(_.getType == MemoryType.HEAP)
      .map(p => Option(p.getCollectionUsage).fold(0L)(_.getUsed))
      .sum
  }
}

/** Task counts and times per Spark job group, from the listener bus. */
final class TaskListener extends SparkListener {
  import TaskListener.Task

  private val stageGroup = mutable.Map.empty[Int, String]
  private val tasks = mutable.Map.empty[String, ArrayBuffer[Task]]
  private var started = 0
  private var ended = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    started += 1
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    e.stageIds.foreach(stageGroup(_) = group)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val tm = e.taskMetrics
    if (tm != null) {
      val group = stageGroup.getOrElse(e.stageId, "")
      tasks.getOrElseUpdate(group, ArrayBuffer.empty) += Task(e.stageId, tm.executorRunTime, tm.jvmGCTime)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += 1 }

  /** Wait until the listener bus has delivered the end of every job. */
  def awaitIdle(): Unit = {
    val deadline = System.nanoTime() + 10e9.toLong
    while (synchronized(started != ended) && System.nanoTime() < deadline) Thread.sleep(10)
  }

  def tasksOf(group: String): Seq[Task] = synchronized(tasks.get(group).fold(Seq.empty[Task])(_.toSeq))
}

object TaskListener {
  final case class Task(stage: Int, runMs: Long, gcMs: Long)
}
