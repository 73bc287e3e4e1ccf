package hopebench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Scheme
import repro.keys.KeySynth

/** One benchmark workload: a key set, a HOPE configuration and the structure
  * the encoded keys go into. `genKeys` is the row count handed to the
  * generator, which drops duplicates; `sparkJobs` adds the `hope_encode` and
  * per-partition tree jobs on a cached four-partition DataFrame, and builds
  * the dictionary through `HopeSpark.build` instead of `Hope.build`.
  */
final case class Workload(
    name: String,
    dataset: String,
    genKeys: Long,
    scheme: Scheme,
    structure: String,
    sparkJobs: Boolean,
) {
  def isSurf: Boolean = structure == "SuRF"

  def keys(spark: SparkSession, n: Long, seed: Long): DataFrame = dataset match {
    case "email" => KeySynth.emails(spark, n, seed)
    case "url"   => KeySynth.urls(spark, n, seed)
  }
}

/** Why each workload exists is recorded in BENCHMARK.json and README.md. */
object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("url-btree", "url", 100000, Scheme.SingleChar, "B+tree", sparkJobs = true),
    Workload("email-surf", "email", 200000, Scheme.AlmImproved(1 << 12), "SuRF", sparkJobs = false),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Metric names and units, in the order they are printed. BENCHMARK.json
  * lists the same names; a test keeps the two equal.
  */
object Metrics {
  final case class Def(name: String, unit: String)

  val endToEnd: Seq[Def] = Seq(
    Def("setup_s", "s"),
    Def("build_s", "s"),
    Def("point_p50_ns", "ns"),
    Def("point_p99_ns", "ns"),
    Def("range_p50_ns", "ns"),
    Def("range_p99_ns", "ns"),
    Def("encode_ns_per_char", "ns/char"),
    Def("cpr", "ratio"),
    Def("mem_bytes_per_key", "B/key"),
    Def("heap_mb", "MB"),
  )

  val perLayer: Seq[Def] = Seq(
    Def("setup.first_s", "s"),
    Def("keys.gen_s", "s"), Def("keys.count", "count"), Def("keys.mean_len", "B"),
    Def("select.ms", "ms"), Def("select.hits_ms", "ms"), Def("select.entries", "count"),
    Def("code.ms", "ms"), Def("code.mean_bits_per_symbol", "bits"),
    Def("dict.build_ms", "ms"), Def("dict.bytes", "B"), Def("dict.lookup_ns_per_key", "ns"),
    Def("encode.ns_per_key", "ns"), Def("encode.alloc_bytes_per_key", "B"),
    Def("encode.symbols_per_key", "count"), Def("encode.out_bytes_per_key", "B"),
    Def("encode.point_share", "ratio"),
    Def("tree.load_s", "s"), Def("tree.point_ns", "ns"), Def("tree.range_ns", "ns"),
    Def("tree.insert_ns", "ns"), Def("tree.insert_p50_ns", "ns"), Def("tree.insert_p99_ns", "ns"),
    Def("tree.bytes_per_key", "B/key"), Def("tree.depth", "levels"),
    Def("tree.raw_point_ns", "ns"), Def("tree.raw_bytes_per_key", "B/key"),
    Def("surf.build_ms", "ms"), Def("surf.point_ns", "ns"), Def("surf.range_ns", "ns"),
    Def("surf.bytes_per_key", "B/key"), Def("surf.height", "levels"),
    Def("surf.negatives", "count"), Def("surf.fpr", "ratio"),
    Def("spark.sample_ms", "ms"), Def("spark.dict_serialized_bytes", "B"),
    Def("spark.encode_job_ms", "ms"), Def("spark.encode_keys_per_s", "1/s"),
    Def("spark.tree_job_s", "s"), Def("spark.tasks", "count"), Def("spark.task_run_ms", "ms"),
    Def("spark.task_gc_ms", "ms"), Def("spark.task_skew", "ratio"),
    Def("spark.slowest_partition_point_ns", "ns"),
    Def("jvm.gc_ms", "ms"), Def("jvm.gc_count", "count"), Def("jvm.alloc_mb", "MB"),
    Def("trace.spans", "count"),
  )
}
