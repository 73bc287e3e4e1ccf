package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{PaperTable, PaperTables, TableInputs, Tables}

/** Shared session bootstrap for the spark-submit entrypoints (one per paper
  * table; see DESIGN.md §2 for the table ↔ job mapping). Each job prints the
  * same tables, built from the same matrices, as the bench suites.
  */
object JobSession {

  /** Build `tables` over `[nKeys]` (default 100 000) keys and write each to
    * `bench_results/<name>_job.md`.
    */
  def run(app: String, args: Array[String], tables: PaperTable[_]*): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val in = new TableInputs(spark, args.headOption.map(_.toLong).getOrElse(100000L))
    tables.foreach(t => emit(in, t))
    spark.stop()
  }

  private def emit[R](in: TableInputs, t: PaperTable[R]): Unit =
    Tables.emit(s"${t.name}_job", t.render(in, t.rows(in)))
}

/** T1 (Figure 8): compression microbenchmarks across schemes and datasets.
  * Usage: spark-submit --class repro.jobs.RunMicrobench ... [nKeys]
  */
object RunMicrobench {
  def main(args: Array[String]): Unit = JobSession.run("hope-microbench", args, PaperTables.T1)
}

/** T2 (Figure 9): dictionary build-time breakdown on email keys. */
object RunBuildTime {
  def main(args: Array[String]): Unit = JobSession.run("hope-buildtime", args, PaperTables.T2)
}

/** T3 (Figure 10): SuRF YCSB, with the email false-positive rates. */
object RunSurf {
  def main(args: Array[String]): Unit = JobSession.run("hope-surf", args, PaperTables.T3)
}

/** T5+T9 (Figures 12, 16): the four KV indexes — point queries per partition
  * on Spark, range queries and inserts on email keys.
  */
object RunTrees {
  def main(args: Array[String]): Unit =
    JobSession.run("hope-trees", args, PaperTables.T5, PaperTables.T9)
}

/** T6-T8 (Appendices A-C): sample-size sweep, batch encoding, key drift. */
object RunAppendix {
  def main(args: Array[String]): Unit =
    JobSession.run("hope-appendix", args, PaperTables.T6, PaperTables.T7, PaperTables.T8)
}
