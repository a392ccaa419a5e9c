// Concurrency regression test: a PerfDatabase is shared read-only by the
// schedulers of many sessions, often on worker threads, and the *first*
// predictions after a copy or a load must be as race-free as later ones.
// Every const member is a pure read, so several threads making their first
// predict / grid_values calls at once must see exactly the reference
// answers.  Run under ThreadSanitizer, this test fails on any write inside
// a const prediction path (e.g. an index built lazily on first use).
#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfdb/database.hpp"
#include "util/rng.hpp"

namespace avf::perfdb {
namespace {

using tunable::ConfigPoint;
using tunable::Direction;
using tunable::MetricSchema;
using tunable::QosVector;

constexpr int kConfigs = 12;
constexpr int kGrid = 6;
constexpr int kThreads = 4;
constexpr int kQueries = 64;

ConfigPoint cfg(int mode) {
  ConfigPoint p;
  p.set("mode", mode);
  return p;
}

PerfDatabase build_db() {
  MetricSchema schema;
  schema.add("time", Direction::kLowerBetter);
  schema.add("quality", Direction::kHigherBetter);
  PerfDatabase db({"cpu_share", "net_bps"}, schema);
  util::SplitMix64 rng(3);
  std::vector<PerfRecord> records;
  for (int c = 0; c < kConfigs; ++c) {
    for (int i = 1; i <= kGrid; ++i) {
      for (int j = 1; j <= kGrid; ++j) {
        const double cpu = static_cast<double>(i) / kGrid;
        const double bw = j * 100e3;
        QosVector q;
        q.set("time", 10.0 / cpu + 1e6 / bw + rng.next_double());
        q.set("quality", c % 4 + rng.next_double());
        records.push_back(PerfRecord{cfg(c), {cpu, bw}, q});
      }
    }
  }
  db.insert_batch(records);
  return db;
}

struct Query {
  ConfigPoint config;
  ResourcePoint at;
  Lookup mode;
};

std::vector<Query> make_queries() {
  util::SplitMix64 rng(11);
  std::vector<Query> queries;
  for (int k = 0; k < kQueries; ++k) {
    queries.push_back(Query{
        cfg(static_cast<int>(rng.next_below(kConfigs))),
        {rng.uniform(0.0, 1.2), rng.uniform(50e3, 700e3)},
        rng.next_below(2) == 0 ? Lookup::kInterpolate : Lookup::kNearest});
  }
  return queries;
}

/// Release kThreads threads at once onto `shared`, each making the same
/// prediction and grid queries (in a thread-dependent order), and count
/// the answers that differ from the reference oracle's.
int racing_mismatches(const PerfDatabase& shared) {
  const std::vector<Query> queries = make_queries();
  std::vector<std::optional<QosVector>> expected;
  for (const Query& q : queries) {
    expected.push_back(shared.predict_reference(q.config, q.at, q.mode));
  }
  std::vector<double> cpu_axis;
  for (int i = 1; i <= kGrid; ++i) {
    cpu_axis.push_back(static_cast<double>(i) / kGrid);
  }

  std::atomic<int> mismatches{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int k = 0; k < kQueries; ++k) {
        // Thread t starts at a different query, so first touches of each
        // configuration interleave across threads.
        const std::size_t i =
            static_cast<std::size_t>((k + t * kQueries / kThreads) % kQueries);
        const Query& q = queries[i];
        if (t % 2 == 0) {
          if (shared.grid_values(q.config, "cpu_share") != cpu_axis) {
            ++mismatches;
          }
        }
        if (shared.predict(q.config, q.at, q.mode) != expected[i]) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return mismatches.load();
}

TEST(PerfDatabaseConcurrency, FirstPredictionsOnACopyAreReadOnly) {
  const PerfDatabase source = build_db();
  for (int round = 0; round < 3; ++round) {
    const PerfDatabase copy = source;
    EXPECT_EQ(racing_mismatches(copy), 0) << "round " << round;
  }
}

TEST(PerfDatabaseConcurrency, FirstPredictionsOnALoadedDatabaseAreReadOnly) {
  std::stringstream csv;
  build_db().save(csv);
  const std::string bytes = csv.str();
  for (int round = 0; round < 3; ++round) {
    std::istringstream in(bytes);
    const PerfDatabase loaded = PerfDatabase::load(in);
    EXPECT_EQ(racing_mismatches(loaded), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace avf::perfdb
