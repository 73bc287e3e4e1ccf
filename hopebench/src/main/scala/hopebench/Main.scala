package hopebench

import com.fasterxml.jackson.databind.ObjectMapper
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.jdk.CollectionConverters._

/** Runs one workload in this JVM and prints its metrics.
  *
  * {{{
  * hopebench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Every line but the last is for people: run metadata, latency sample
  * counts and the highest percentile each sample supports, every metric by
  * name with its unit, and the share of operations that failed. The last line
  * is one JSON object with the keys `correct`, `attempted`, `failed` and
  * `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer ones.
  * The exit code is 0 only when every answer matched its oracle.
  */
object Main {
  private val Json = new ObjectMapper

  def main(args: Array[String]): Unit = {
    val startNs = System.nanoTime() - ManagementFactory.getRuntimeMXBean.getUptime * 1000000L
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def usage(msg: String): Nothing = {
      Console.err.println(s"$msg\nusage: --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    if (args.length % 2 != 0 || opts.size * 2 != args.length) usage("arguments come in --name value pairs")
    val w = opts.get("workload").flatMap(Workloads.byName).getOrElse(usage("unknown or missing --workload"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(usage("--seed must be an integer"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(usage("--seconds must be > 0"))
    val trace = opts.get("trace") match {
      case Some("0") => false
      case Some("1") => true
      case _         => usage("--trace must be 0 or 1")
    }

    val spark = session()
    Console.err.println(f"hopebench: Spark session ready ${(System.nanoTime() - startNs) / 1e9}%.2f s after JVM start")
    val master = spark.sparkContext.master
    val tracer = new Tracer(trace)
    val result =
      try new Bench(w, seed, seconds, tracer, spark).run(startNs)
      finally spark.stop()

    if (trace) writeTrace(w, seed, tracer)
    report(w, seed, seconds, trace, master, result).foreach(println)
    System.out.flush()
    sys.exit(if (result.failed == 0) 0 else 1)
  }

  /** The lines a run prints; the last is the result object. */
  def report(w: Workload, seed: Long, seconds: Double, trace: Boolean, master: String, r: Result): Seq[String] = {
    val defs = if (trace) Metrics.perLayer else Metrics.endToEnd
    val missing = defs.filterNot(d => r.metrics.contains(d.name))
    require(missing.isEmpty, s"no value for ${missing.map(_.name).mkString(", ")}")
    val shown = (if (trace) Metrics.endToEnd else Nil) ++ defs
    val frac = r.failed.toDouble / math.max(1L, r.attempted)
    val result = Json.createObjectNode()
      .put("correct", r.failed == 0).put("attempted", r.attempted).put("failed", r.failed)
    val metrics = result.putObject("metrics")
    defs.foreach { d =>
      val v = r.metrics(d.name)
      require(!v.isNaN && !v.isInfinite, s"${d.name} is not a number: $v")
      metrics.putObject(d.name).put("value", v).put("unit", d.unit)
    }
    Seq("# meta " + meta(w, seed, seconds, trace, master, r)) ++
      r.lines.map(l => s"# $l") ++
      (for (d <- shown; v <- r.metrics.get(d.name)) yield f"# ${d.name} = $v%.6g ${d.unit}") :+
      s"# failed_ops_frac = $frac (${r.failed} of ${r.attempted} operations)" :+
      Json.writeValueAsString(result)
  }

  /** Local Spark on four cores; scratch files stay under the work directory. */
  def session(): SparkSession = {
    val work = sys.props.getOrElse("hopebench.workdir", "target")
    SparkSession.builder()
      .master("local[4]")
      .appName("hopebench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/spark-warehouse")
      .getOrCreate()
  }

  private def meta(w: Workload, seed: Long, seconds: Double, trace: Boolean, master: String, r: Result): String = {
    val rt = Runtime.getRuntime
    val o = Json.createObjectNode()
      .put("workload", w.name)
      .put("seed", seed)
      .put("seconds", seconds)
      .put("trace", trace)
      .put("keys", r.metrics.getOrElse("keys.count", 0.0).toLong)
      .put("generated_rows", w.genKeys)
      .put("scheme", w.scheme.name)
      .put("structure", w.structure)
      .put("jdk", s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}")
      .put("nproc", rt.availableProcessors)
      .put("max_heap_mb", rt.maxMemory / (1 << 20))
      .put("spark_master", master)
      .put("git_commit", sys.props.getOrElse("hopebench.commit", "unknown"))
      .put("source_sha256", sys.props.getOrElse("hopebench.source", "unknown"))
    val flags = o.putArray("jvm_flags")
    ManagementFactory.getRuntimeMXBean.getInputArguments.asScala.filterNot(_.startsWith("--add-opens")).foreach(f => flags.add(f))
    Json.writeValueAsString(o)
  }

  /** Spans go to `<workdir>/traces/<workload>-seed<n>.jsonl`, one per line. */
  private def writeTrace(w: Workload, seed: Long, t: Tracer): Unit = {
    val dir = Paths.get(sys.props.getOrElse("hopebench.workdir", "target"), "traces")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${w.name}-seed$seed.jsonl")
    Files.write(file, t.jsonLines.toSeq.asJava)
    Console.err.println(s"hopebench: ${t.size} spans written to $file")
  }
}
