// Figure 5: performance-database profiles — (a) image transmission time and
// (b) response time, for fovea sizes dR in {80,160,320} as the CPU share
// varies (c = LZW, l = 4, bandwidth fixed at 500 KBps).
#include <iostream>

#include "bench/common.hpp"
#include "util/fmt.hpp"
#include "util/table.hpp"

namespace {

using namespace avf;

void print_metric(const perfdb::PerfDatabase& db, const std::string& metric,
                  const char* caption, const char* csv_name) {
  std::cout << caption << "\n";
  util::TextTable table(
      {"cpu share %", "dR=80", "dR=160", "dR=320"});
  for (double share : db.grid_values(bench::viz_config(80, 1, 4),
                                     "cpu_share")) {
    std::vector<std::string> row{util::TextTable::num(share * 100, 0)};
    for (int dR : {80, 160, 320}) {
      auto q = db.predict(bench::viz_config(dR, 1, 4), {share, 500e3});
      row.push_back(util::TextTable::num(q->get(metric), 3));
    }
    table.add_row(row);
  }
  bench::emit_table(table, csv_name);
  std::cout << '\n';
}

}  // namespace

int main() {
  bench::figure_header("Figure 5",
                       "transmit/response time vs CPU share for different "
                       "fovea sizes (LZW, level 4, 500 KBps)");
  const perfdb::PerfDatabase& db = bench::figure_database();

  print_metric(db, "transmit_time", "(a) image transmission time (s)",
               "fig5a_transmit");
  print_metric(db, "response_time", "(b) average response time (s)",
               "fig5b_response");

  // Shape checks from the paper's discussion of Figure 5.
  auto at = [&](int dR, double share, const char* metric) {
    return db.predict(bench::viz_config(dR, 1, 4), {share, 500e3})
        ->get(metric);
  };
  bool transmit_shrinks =
      at(320, 0.4, "transmit_time") < at(80, 0.4, "transmit_time");
  bool response_grows =
      at(320, 0.4, "response_time") > at(80, 0.4, "response_time");
  bool cpu_helps = at(160, 1.0, "transmit_time") <
                   at(160, 0.1, "transmit_time");
  bench::note(util::format(
      "Shape checks (paper): larger fovea -> smaller transmit time [{}]; "
      "larger fovea -> larger response time [{}]; more CPU -> both drop "
      "[{}].",
      transmit_shrinks ? "OK" : "FAIL", response_grows ? "OK" : "FAIL",
      cpu_helps ? "OK" : "FAIL"));
  return transmit_shrinks && response_grows && cpu_helps ? 0 : 1;
}
