package repro.bench

import repro.core.BuildStats
import repro.eval.{PaperTables, Tables}

/** T2 ⇔ Figure 9: dictionary build-time breakdown (Symbol Selector /
  * Code Assigner / Dictionary) on a 1% email sample.
  */
class T2BuildTimeBench extends BenchSuite {

  private lazy val sample = BenchBase.sample("email")

  private lazy val rows: Seq[(String, Int, BuildStats)] = PaperTables.T2.rows(BenchBase)

  test("emit T2 (Fig. 9) table") {
    Tables.emit("T2_buildtime", Tables.render(
      s"T2 / Fig.9 — dictionary build time breakdown (ms), ${sample.length} sampled email keys",
      Seq("scheme", "entries", "symbol-select", "code-assign", "dict-build"),
      rows.map { case (n, e, st) => Seq(n, e.toString, Tables.fmt(st.symbolSelectMs),
        Tables.fmt(st.codeAssignMs), Tables.fmt(st.dictBuildMs)) }))
    assert(rows.nonEmpty)
  }

  private def stats(name: String): BuildStats = rows.find(_._1 == name).get._3

  test("shape: Hu-Tucker cost rises steeply with dictionary size (quadratic)") {
    // Double-Char always has 65 792 entries; 3-Grams(4096) is the small case
    // (the sampled keys rarely contain enough unique grams to fill 64K).
    val small = stats("3-Grams(4096)").codeAssignMs
    val large = stats("Double-Char").codeAssignMs
    assert(large > small * 10, s"small=$small large=$large")
  }

  test("shape: ALM symbol selection dominates its build (substring stats)") {
    val alm = stats("ALM(4096)")
    assert(alm.symbolSelectMs > alm.dictBuildMs, alm.toString)
  }

  test("shape: suffix-only statistics make ALM-Improved select faster than ALM") {
    assert(stats("ALM-Improved(4096)").symbolSelectMs < stats("ALM(4096)").symbolSelectMs * 1.5)
  }

  test("shape: dictionary population is a minor cost for array schemes") {
    val dc = stats("Double-Char")
    assert(dc.dictBuildMs < dc.symbolSelectMs + dc.codeAssignMs + 1.0)
  }
}
