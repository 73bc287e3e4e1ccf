package repro.bench

import repro.eval.{KVTree, PaperTables, Tables, TreeEvalRow}

/** T9 ⇔ Figure 16 (Appendix D): range-query and insert latency for the four
  * KV indexes on email keys (the paper reports the same qualitative story as
  * the point-query figure).
  */
class T9RangeInsertBench extends BenchSuite {

  private lazy val rows: Seq[TreeEvalRow] = PaperTables.T9.rows(BenchBase)

  test("emit T9 (Fig. 16) table") {
    Tables.emit("T9_range_insert", Tables.render(
      "T9 / Fig.16 — range and insert latency (email)",
      Seq("tree", "config", "range ns", "insert ns", "memory"),
      rows.map(r => Seq(r.tree, r.scheme, Tables.fmt(r.rangeNs),
        Tables.fmt(r.insertNs), Tables.kb(r.memoryBytes)))))
    assert(rows.nonEmpty)
  }

  test("all latencies positive and finite") {
    rows.foreach(r => assert(r.rangeNs > 0 && r.insertNs > 0 && r.rangeNs < 1e7, r.toString))
  }

  test("shape: ALM-Improved(64K) insert latency exceeds Double-Char's (slow encode)") {
    for (tree <- KVTree.names) {
      val alm = rows.find(r => r.tree == tree && r.scheme == "ALM-Improved(64K)").get.insertNs
      val dc = rows.find(r => r.tree == tree && r.scheme == "Double-Char").get.insertNs
      assert(alm > dc * 0.8, s"$tree: alm=$alm dc=$dc")
    }
  }
}
