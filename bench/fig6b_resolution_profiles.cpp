// Figure 6(b): image transmission time for images of different resolutions
// (levels 3 and 4) as the CPU share varies (LZW, dR = 160, 500 KBps).
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

int main() {
  using namespace avf;
  bench::figure_header("Figure 6(b)",
                       "transmission time vs CPU share for resolution "
                       "levels 3 and 4 (LZW, 500 KBps)");
  const perfdb::PerfDatabase& db = bench::figure_database();

  util::TextTable table(
      {"cpu share %", "level 3 (s)", "level 4 (s)", "ratio"});
  bool ordered = true;
  for (double share :
       db.grid_values(bench::viz_config(160, 1, 4), "cpu_share")) {
    double l3 = db.predict(bench::viz_config(160, 1, 3), {share, 500e3})
                    ->get("transmit_time");
    double l4 = db.predict(bench::viz_config(160, 1, 4), {share, 500e3})
                    ->get("transmit_time");
    ordered = ordered && l3 < l4;
    table.add_row({util::TextTable::num(share * 100, 0),
                   util::TextTable::num(l3, 3), util::TextTable::num(l4, 3),
                   util::TextTable::num(l4 / l3, 2)});
  }
  avf::bench::emit_table(table, "fig6b_resolution");

  double l4_low = db.predict(bench::viz_config(160, 1, 4), {0.1, 500e3})
                      ->get("transmit_time");
  double l4_high = db.predict(bench::viz_config(160, 1, 4), {1.0, 500e3})
                       ->get("transmit_time");
  bool cpu_matters = l4_low > 2.0 * l4_high;
  bench::note(util::format(
      "\nShape checks (paper): lower resolution -> shorter transmission at "
      "every CPU level [{}]; transmission time rises steeply as CPU drops "
      "(level 4: {:.2f} s at 100% vs {:.2f} s at 10%) [{}].",
      ordered ? "OK" : "FAIL", l4_high, l4_low, cpu_matters ? "OK" : "FAIL"));
  return ordered && cpu_matters ? 0 : 1;
}
