package hopebench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

class PercentilesSpec extends AnyFunSuite {

  test("the highest supported percentile has at least ten samples beyond it") {
    assert(Percentiles.highestSupported(19).isEmpty)
    assert(Percentiles.highestSupported(20).contains(5000))
    assert(Percentiles.highestSupported(999).contains(9000))
    assert(Percentiles.highestSupported(1000).contains(9900))
    assert(Percentiles.highestSupported(9999).contains(9900))
    assert(Percentiles.highestSupported(10000).contains(9990))
    assert(Percentiles.highestSupported(100000).contains(9999))
    for (n <- 1 to 5000) {
      val found = Percentiles.highestSupported(n)
      found.foreach(bp => assert(n - Percentiles.rank(n, bp) >= 10, s"n=$n bp=$bp"))
      // No higher step of the ladder would have had ten samples beyond it.
      val higher = Percentiles.Ladder.takeWhile(bp => !found.contains(bp))
      higher.foreach(bp => assert(n - Percentiles.rank(n, bp) < 10, s"n=$n bp=$bp"))
    }
  }

  test("percentiles are nearest-rank") {
    val s = Summary(Array.tabulate(1000)(_ + 1))
    assert(s.p50 == 500 && s.p99 == 990)
    assert(s.highest.contains(9900 -> 990.0))
    assert(Percentiles.label(9900) == "p99" && Percentiles.label(9990) == "p99.9")
    assert(Percentiles.median(Seq(3.0, 1.0, 2.0)) == 2.0 && Percentiles.median(Seq(1.0, 4.0)) == 2.5)
  }
}

class MetricNamesSpec extends AnyFunSuite {
  private val spec: JsonNode = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
  private def list(key: String): Seq[JsonNode] = spec.get(key).elements().asScala.toSeq

  test("every metric name is well formed, has a unit, and appears once") {
    val all = Metrics.endToEnd ++ Metrics.perLayer
    all.foreach { d =>
      assert(d.name.matches("[A-Za-z0-9_.-]+") && d.name.length <= 64, d.name)
      assert(d.unit.matches("[A-Za-z0-9_/%.-]{1,16}"), s"${d.name}: unit '${d.unit}'")
    }
    assert(all.map(_.name).distinct.size == all.size)
  }

  test("BENCHMARK.json names the same workloads and metrics as the code") {
    assert(list("workloads").map(_.get("name").asText) == Workloads.all.map(_.name))
    def defs(key: String) = list(key).map(n => Metrics.Def(n.get("name").asText, n.get("unit").asText))
    assert(defs("end_to_end") == Metrics.endToEnd)
    assert(defs("per_layer") == Metrics.perLayer)
    assert(list("end_to_end").exists(n => n.get("name").asText == "setup_s" && n.get("unit").asText == "s"))
  }

  test("the report prints every metric with its unit and ends with the result object") {
    val values = (Metrics.endToEnd ++ Metrics.perLayer).map(_.name -> 1.5).toMap
    val r = Result(values, attempted = 10, failed = 0, lines = Seq("note"))
    for (trace <- Seq(false, true)) {
      val out = Main.report(Workloads.all.head, 1, 1.0, trace, "local[4]", r)
      val shown = if (trace) Metrics.perLayer else Metrics.endToEnd
      shown.foreach(d => assert(out.exists(_ == s"# ${d.name} = 1.50000 ${d.unit}"), d.name))
      val last = new ObjectMapper().readTree(out.last)
      assert(last.fieldNames().asScala.toSeq == Seq("correct", "attempted", "failed", "metrics"))
      assert(last.get("metrics").fieldNames().asScala.toSeq == shown.map(_.name))
      shown.foreach(d => assert(last.get("metrics").get(d.name).get("unit").asText == d.unit))
    }
  }
}

/** Each workload at a small size, traced, so every code path of a run is
  * taken; every answer must match its oracle.
  */
class SmokeSpec extends AnyFunSuite {
  private lazy val spark = Main.session()

  for (w <- Workloads.all) test(s"${w.name} at smoke size answers every operation correctly") {
    val smoke = w.copy(genKeys = w.genKeys / 50)
    val r = new Bench(smoke, seed = 5, seconds = 2.0, new Tracer(on = true), spark).run(System.nanoTime())
    assert(r.attempted > 0)
    assert(r.failed == 0, r.lines.filter(_.startsWith("FAILED")).mkString("\n"))
    (Metrics.endToEnd ++ Metrics.perLayer).foreach(d => assert(r.metrics.contains(d.name), d.name))
    Metrics.endToEnd.foreach(d => assert(r.metrics(d.name) > 0, d.name))
  }
}
