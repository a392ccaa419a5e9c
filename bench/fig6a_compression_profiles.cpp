// Figure 6(a): image transmission time for the two compression methods as
// network bandwidth varies (CPU fixed at 100%, dR = 160, l = 4).  The
// paper's key feature is the crossover: compression B (Bzip2-class) wins at
// low bandwidth, compression A (LZW) at high bandwidth.
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Figure 6(a)",
                       "transmission time vs bandwidth: compression A (LZW) "
                       "vs B (BWT/Bzip2-class)");
  const perfdb::PerfDatabase& db = bench::figure_database();

  util::TextTable table({"bandwidth (KBps)", "A = lzw (s)", "B = bwt (s)",
                         "winner"});
  double low_bw_a = 0, low_bw_b = 0, high_bw_a = 0, high_bw_b = 0;
  auto bws = db.grid_values(bench::viz_config(160, 1, 4), "net_bps");
  for (double bw : bws) {
    double a = db.predict(bench::viz_config(160, 1, 4), {1.0, bw})
                   ->get("transmit_time");
    double b = db.predict(bench::viz_config(160, 2, 4), {1.0, bw})
                   ->get("transmit_time");
    if (bw == bws.front()) {
      low_bw_a = a;
      low_bw_b = b;
    }
    if (bw == bws.back()) {
      high_bw_a = a;
      high_bw_b = b;
    }
    table.add_row({util::TextTable::num(bw / 1e3, 0),
                   util::TextTable::num(a, 3), util::TextTable::num(b, 3),
                   a < b ? "A" : "B"});
  }
  avf::bench::emit_table(table, "fig6a_compression");

  bool crossover = low_bw_b < low_bw_a && high_bw_a < high_bw_b;
  bench::note(util::format(
      "\nShape check (paper): crossover exists — B wins at {} KBps "
      "({:.2f} vs {:.2f} s), A wins at {} KBps ({:.2f} vs {:.2f} s) [{}].",
      bws.front() / 1e3, low_bw_b, low_bw_a, bws.back() / 1e3, high_bw_a,
      high_bw_b, crossover ? "OK" : "FAIL"));
  return crossover ? 0 : 1;
}
