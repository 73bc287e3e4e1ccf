package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{BuildStats, BuiltHope, Bytes, Hope, Scheme}
import repro.keys.KeySynth

/** The inputs every paper table draws from, for one key count: the three
  * key sets, their build samples, one cached dictionary per (dataset,
  * scheme) and the FPR negatives. The bench suites and the spark-submit jobs
  * both build their tables from one of these, so the two report the same
  * experiment.
  */
class TableInputs(val spark: SparkSession, val nKeys: Long) {

  /** Keys generated for `name`: URL keys are ~5× longer, so half as many. */
  def keyCount(name: String): Long = if (name == "url") nKeys / 2 else nKeys

  @volatile private var keyCache = Map.empty[String, Array[Array[Byte]]]

  def keys(name: String): Array[Array[Byte]] = synchronized {
    keyCache.getOrElse(name, {
      val k = KeySynth.collectKeys(KeySynth.dataset(spark, name, keyCount(name)))
      keyCache += name -> k
      k
    })
  }

  def sample(name: String): Array[Array[Byte]] = TableInputs.sampleOf(keys(name))

  @volatile private var hopeCache = Map.empty[String, BuiltHope]

  /** Dictionary cache: Hu-Tucker on 64K entries costs ~10 s, and the table
    * matrices would otherwise rebuild identical dictionaries dozens of times.
    */
  def hope(ds: String, scheme: Scheme): BuiltHope = synchronized {
    val key = s"$ds/${scheme.name}"
    hopeCache.getOrElse(key, {
      val h = Hope.build(sample(ds), scheme)
      hopeCache += key -> h
      h
    })
  }

  /** Deterministic non-present probes for FPR runs — drawn from the *same*
    * email distribution (different generator seed) and filtered against the
    * stored set, so they share domains/prefixes with real keys and actually
    * exercise the filter (easy negatives would report FPR ≈ 0 trivially).
    */
  def negatives(n: Int): Array[Array[Byte]] = {
    val present = keys("email").map(Bytes.hex).toSet
    KeySynth.collectKeys(KeySynth.emails(spark, n * 2L, seed = 4242))
      .filterNot(k => present(Bytes.hex(k)))
      .take(n)
  }

  /** Appendix C's two email populations: A = gmail + yahoo, B = the rest. */
  lazy val emailSplit: (Array[Array[Byte]], Array[Array[Byte]]) = {
    val (a, b) = KeySynth.emailsSplit(spark, nKeys * 2)
    (KeySynth.collectKeys(a), KeySynth.collectKeys(b))
  }
}

object TableInputs {
  /** The build sample: the first 1% of `keys` in generator order, at least 1000. */
  def sampleOf(keys: Array[Array[Byte]]): Array[Array[Byte]] =
    keys.take(math.max(1000, keys.length / 100))
}

/** One reproduced paper table: its configuration matrix and row loop
  * (`rows`), and its title and header (`render`). `name` is the file stem
  * under `bench_results/`.
  */
trait PaperTable[R] {
  def name: String
  def rows(in: TableInputs): Seq[R]
  def render(in: TableInputs, rows: Seq[R]): String
}

/** Tables T1–T3 and T5–T9 of DESIGN.md §2, each defined once. The bench
  * suites gate the rows against the paper's shape claims; the jobs in
  * `jobs/` print them. T4 and T10 are bench-only.
  */
object PaperTables {

  val datasets: Seq[String] = Seq("email", "wiki", "url")

  /** T1 ⇔ Figure 8: CPR, encode latency and dictionary memory. */
  object T1 extends PaperTable[Microbench.Row] {
    val name = "T1_microbench"

    /** The Figure 8 scheme sweep (dictionary sizes on the x-axis). */
    val schemes: Seq[Scheme] = Seq(
      Scheme.SingleChar,
      Scheme.DoubleChar,
      Scheme.NGrams(3, 1 << 12), Scheme.NGrams(3, 1 << 16),
      Scheme.NGrams(4, 1 << 12), Scheme.NGrams(4, 1 << 16),
      Scheme.Alm(1 << 10, 12), Scheme.Alm(1 << 12, 12),
      Scheme.AlmImproved(1 << 12), Scheme.AlmImproved(1 << 16),
    )

    def rows(in: TableInputs): Seq[Microbench.Row] =
      for {
        ds <- datasets
        keys = in.keys(ds)
        sample = in.sample(ds)
        scheme <- schemes
      } yield Microbench.run(ds, keys, sample, scheme)

    def render(in: TableInputs, rows: Seq[Microbench.Row]): String = Tables.render(
      "T1 / Fig.8 — compression rate, encode latency, dictionary memory",
      Seq("dataset", "scheme", "entries", "CPR", "ns/char", "dict mem"),
      rows.map(r => Seq(r.dataset, r.scheme, r.entries.toString, Tables.fmt(r.cpr),
        Tables.fmt(r.nsPerChar), Tables.kb(r.dictBytes))))
  }

  /** T2 ⇔ Figure 9: build-time breakdown on the email sample. Each
    * dictionary is built afresh (not cached), since its build is what is timed.
    */
  object T2 extends PaperTable[(String, Int, BuildStats)] {
    val name = "T2_buildtime"

    def rows(in: TableInputs): Seq[(String, Int, BuildStats)] = {
      val sample = in.sample("email")
      Seq[Scheme](
        Scheme.SingleChar,
        Scheme.DoubleChar,
        Scheme.NGrams(3, 1 << 12), Scheme.NGrams(3, 1 << 16),
        Scheme.NGrams(4, 1 << 12), Scheme.NGrams(4, 1 << 16),
        Scheme.Alm(1 << 12, 12),
        Scheme.AlmImproved(1 << 12), Scheme.AlmImproved(1 << 16),
      ).map { s =>
        val h = Hope.build(sample, s)
        (s.name, h.entries, h.stats)
      }
    }

    def render(in: TableInputs, rows: Seq[(String, Int, BuildStats)]): String = Tables.render(
      s"T2 / Fig.9 — dictionary build time breakdown (ms), ${in.sample("email").length} sampled email keys",
      Seq("scheme", "entries", "symbol-select", "code-assign", "dict-build"),
      rows.map { case (n, e, st) => Seq(n, e.toString, Tables.fmt(st.symbolSelectMs),
        Tables.fmt(st.codeAssignMs), Tables.fmt(st.dictBuildMs)) })
  }

  /** T3 ⇔ Figure 10: SuRF under YCSB per dataset × config, with T4's FPR
    * probes (email only) riding along.
    */
  object T3 extends PaperTable[(TreeEvalRow, Double)] {
    val name = "T3_surf"

    def rows(in: TableInputs): Seq[(TreeEvalRow, Double)] =
      for {
        ds <- datasets
        keys = in.keys(ds)
        negatives = if (ds == "email") in.negatives(10000) else Array.empty[Array[Byte]]
        (name, scheme) <- Configs.all
      } yield Harness.runSurf(ds, name, keys, scheme, suffixBits = 8,
        nPoint = 20000, nRange = 3000, negatives = negatives,
        prebuilt = scheme.map(in.hope(ds, _)))

    def render(in: TableInputs, rows: Seq[(TreeEvalRow, Double)]): String = Tables.render(
      "T3 / Fig.10 — SuRF YCSB (8-bit real suffixes)",
      Seq("dataset", "config", "point ns", "range ns", "memory", "height", "FPR"),
      rows.map { case (r, fpr) => Seq(r.dataset, r.scheme, Tables.fmt(r.pointNs),
        Tables.fmt(r.rangeNs), Tables.kb(r.memoryBytes), Tables.fmt(r.height), f"$fpr%.4f") })
  }

  /** T5 ⇔ Figure 12: point latency and memory of the four KV indexes,
    * evaluated per partition on Spark with the cached driver-side dictionary.
    */
  object T5 extends PaperTable[TreeEvalRow] {
    val name = "T5_trees_point"

    def rows(in: TableInputs): Seq[TreeEvalRow] =
      for {
        ds <- datasets
        df = KeySynth.dataset(in.spark, ds, in.keyCount(ds)).cache()
        tree <- KVTree.names
        (name, scheme) <- Configs.all
      } yield SparkTreeEval.aggregate(
        SparkTreeEval.perPartition(in.spark, df, "k", tree, ds, name, scheme,
          partitions = 4, nPoint = 6000, nRange = 400,
          prebuilt = scheme.map(in.hope(ds, _))))

    def render(in: TableInputs, rows: Seq[TreeEvalRow]): String = Tables.render(
      "T5 / Fig.12 — KV index point latency and memory (per-partition Spark eval)",
      Seq("dataset", "tree", "config", "point ns", "memory", "dict mem"),
      rows.map(r => Seq(r.dataset, r.tree, r.scheme, Tables.fmt(r.pointNs),
        Tables.kb(r.memoryBytes), Tables.kb(r.dictBytes))))
  }

  /** T6 ⇔ Figure 13 (Appendix A): CPR vs. sample fraction on email. */
  object T6 extends PaperTable[(Double, String, Double)] {
    val name = "T6_samplesize"

    def rows(in: TableInputs): Seq[(Double, String, Double)] = {
      val keys = in.keys("email")
      for {
        frac <- Seq(0.0005, 0.005, 0.01, 0.1, 1.0)
        scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
          Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16))
      } yield {
        val sample = keys.take(math.max(16, (keys.length * frac).toInt))
        (frac, scheme.name, Microbench.run("email", keys, sample, scheme).cpr)
      }
    }

    def render(in: TableInputs, rows: Seq[(Double, String, Double)]): String = Tables.render(
      "T6 / Fig.13 — compression rate vs sample fraction (email)",
      Seq("fraction", "scheme", "CPR"),
      rows.map { case (f, s, c) => Seq(f"$f%.4f", s, Tables.fmt(c)) })
  }

  /** T7 ⇔ Figure 14 (Appendix B): batch-encoding latency on sorted email keys. */
  object T7 extends PaperTable[(String, Int, Double)] {
    val name = "T7_batch"

    def rows(in: TableInputs): Seq[(String, Int, Double)] = {
      val sorted = in.keys("email").sortWith(Bytes.compare(_, _) < 0)
      val totalBytes = sorted.map(_.length.toLong).sum
      for {
        scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
          Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16), Scheme.AlmImproved(1 << 12))
        hope = in.hope("email", scheme)
        batch <- Seq(1, 2, 32)
      } yield {
        hope.encodeBatchSorted(sorted, batch) // full-size JIT warm-up pass
        val t0 = System.nanoTime()
        val out = hope.encodeBatchSorted(sorted, batch)
        val ns = (System.nanoTime() - t0).toDouble / totalBytes
        require(out.length == sorted.length)
        (scheme.name, batch, ns)
      }
    }

    def render(in: TableInputs, rows: Seq[(String, Int, Double)]): String = Tables.render(
      "T7 / Fig.14 — batch encoding latency (ns/char), pre-sorted email keys",
      Seq("scheme", "batch", "ns/char"),
      rows.map { case (s, b, n) => Seq(s, b.toString, Tables.fmt(n)) })
  }

  /** T8 ⇔ Figure 15 (Appendix C): CPR when dictionaries are built on one
    * email population and applied to the other.
    */
  object T8 extends PaperTable[(String, String, Double)] {
    val name = "T8_drift"

    def rows(in: TableInputs): Seq[(String, String, Double)] = {
      val (aKeys, bKeys) = in.emailSplit
      for {
        scheme <- Seq[Scheme](Scheme.SingleChar, Scheme.DoubleChar,
          Scheme.NGrams(3, 1 << 16), Scheme.NGrams(4, 1 << 16), Scheme.AlmImproved(1 << 16))
        (dict, label) <- Seq((aKeys, "Dict-A"), (bKeys, "Dict-B"))
        (data, dLabel) <- Seq((aKeys, "Email-A"), (bKeys, "Email-B"))
      } yield {
        val hope = Hope.build(TableInputs.sampleOf(dict), scheme)
        (scheme.name, s"$label,$dLabel", Microbench.measure("email", data, hope).cpr)
      }
    }

    def render(in: TableInputs, rows: Seq[(String, String, Double)]): String = Tables.render(
      "T8 / Fig.15 — CPR under key-distribution change",
      Seq("scheme", "dict,data", "CPR"),
      rows.map { case (s, l, c) => Seq(s, l, Tables.fmt(c)) })
  }

  /** T9 ⇔ Figure 16 (Appendix D): range and insert latency of the four KV
    * indexes on email keys.
    */
  object T9 extends PaperTable[TreeEvalRow] {
    val name = "T9_range_insert"

    def rows(in: TableInputs): Seq[TreeEvalRow] =
      for {
        tree <- KVTree.names
        (name, scheme) <- Configs.all
      } yield Harness.runTree(tree, "email", name, in.keys("email"), scheme,
        nPoint = 4000, nRange = 1500, prebuilt = scheme.map(in.hope("email", _)))

    def render(in: TableInputs, rows: Seq[TreeEvalRow]): String = Tables.render(
      "T9 / Fig.16 — range and insert latency (email)",
      Seq("tree", "config", "range ns", "insert ns", "memory"),
      rows.map(r => Seq(r.tree, r.scheme, Tables.fmt(r.rangeNs),
        Tables.fmt(r.insertNs), Tables.kb(r.memoryBytes))))
  }
}
