package repro.bench

import repro.SparkSpec
import repro.eval.TableInputs

/** Shared fixtures for the bench suites (one suite per paper table; see
  * DESIGN.md §2): the table inputs of `repro.eval.PaperTables`, built on the
  * shared test session. Key counts are controlled by REPRO_BENCH_KEYS
  * (default 60 000 ≈ "SF 0.1" of the paper's 10⁷-scale runs — latency
  * *ratios* and memory *shapes* are the reproduction target, not absolutes).
  */
object BenchBase extends TableInputs(SparkSpec.shared,
  sys.env.getOrElse("REPRO_BENCH_KEYS", "60000").toLong)

/** Bench suites extend SparkSpec so `sbt bench/test` drives them through the
  * same forked JVM and shared session as the unit tests.
  */
abstract class BenchSuite extends SparkSpec
