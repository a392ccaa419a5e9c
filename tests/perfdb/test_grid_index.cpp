// Tests for the prediction fast path: GridIndex bracketing/corner lookup
// must be bit-for-bit identical to the reference implementation, and every
// mutation (insert, erase, copy, move, load) must leave the indexes built
// over exactly the current samples.
#include <gtest/gtest.h>

#include <sstream>

#include "perfdb/database.hpp"
#include "util/rng.hpp"

namespace avf::perfdb {
namespace {

using tunable::ConfigPoint;
using tunable::Direction;
using tunable::MetricSchema;
using tunable::QosVector;

MetricSchema schema() {
  MetricSchema s;
  s.add("transmit_time", Direction::kLowerBetter);
  s.add("response_time", Direction::kLowerBetter);
  s.add("resolution", Direction::kHigherBetter);
  return s;
}

ConfigPoint cfg(int mode) {
  ConfigPoint p;
  p.set("mode", mode);
  return p;
}

QosVector q3(double a, double b, double c) {
  QosVector q;
  q.set("transmit_time", a);
  q.set("response_time", b);
  q.set("resolution", c);
  return q;
}

/// configs x grid x grid database with mildly irregular values.
PerfDatabase build_db(int configs, int grid) {
  PerfDatabase db({"cpu_share", "net_bps"}, schema());
  util::SplitMix64 rng(42);
  for (int c = 0; c < configs; ++c) {
    for (int i = 0; i < grid; ++i) {
      for (int j = 0; j < grid; ++j) {
        double cpu = (i + 1.0) / grid;
        double bw = (j + 1.0) * 100e3;
        db.insert(cfg(c), {cpu, bw},
                  q3(10.0 / cpu + 1e6 / bw + rng.next_double(),
                     1.0 / cpu + rng.next_double(), 4.0 - c % 3));
      }
    }
  }
  return db;
}

TEST(GridIndex, FastPathMatchesReferenceBitForBit) {
  // Acceptance gate: indexed interpolation/nearest must return *identical*
  // QosVectors (exact double equality via QosVector::operator==) to the
  // seed per-call std::set implementation across exact grid points,
  // interior points, hull-exterior points, and both lookup modes.
  PerfDatabase db = build_db(8, 6);
  util::SplitMix64 rng(7);
  for (int c = 0; c < 8; ++c) {
    for (int trial = 0; trial < 200; ++trial) {
      double cpu = rng.uniform(-0.2, 1.4);       // extends outside the hull
      double bw = rng.uniform(-50e3, 800e3);
      ResourcePoint at{cpu, bw};
      for (Lookup mode : {Lookup::kInterpolate, Lookup::kNearest}) {
        auto fast = db.predict(cfg(c), at, mode);
        auto slow = db.predict_reference(cfg(c), at, mode);
        ASSERT_EQ(fast.has_value(), slow.has_value());
        if (fast) {
          EXPECT_EQ(*fast, *slow) << "mode=" << static_cast<int>(mode);
        }
      }
    }
    // Exact grid points too.
    for (int i = 0; i < 6; ++i) {
      ResourcePoint at{(i + 1.0) / 6, (i + 1.0) * 100e3};
      EXPECT_EQ(*db.predict(cfg(c), at), *db.predict_reference(cfg(c), at));
    }
  }
}

TEST(GridIndex, IncompleteGridMatchesReference) {
  // Knock holes into the grid so interpolation hits incomplete cells and
  // falls back to nearest; both paths must agree on every query.
  PerfDatabase db({"cpu", "bw"}, schema());
  util::SplitMix64 rng(99);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      if ((i * 5 + j) % 3 == 0) continue;  // hole
      db.insert(cfg(0), {i * 0.25, j * 50e3}, q3(i + j, i * j + 1.0, 4.0));
    }
  }
  for (int trial = 0; trial < 300; ++trial) {
    ResourcePoint at{rng.uniform(-0.1, 1.2), rng.uniform(-10e3, 250e3)};
    auto fast = db.predict(cfg(0), at);
    auto slow = db.predict_reference(cfg(0), at);
    ASSERT_TRUE(fast && slow);
    EXPECT_EQ(*fast, *slow);
  }
}

TEST(GridIndex, SparseScatterMatchesReference) {
  // Scattered (non-grid) samples force the index's sparse corner fallback
  // and heavy nearest use.
  PerfDatabase db({"cpu", "bw", "mem"}, schema());
  util::SplitMix64 rng(123);
  for (int s = 0; s < 64; ++s) {
    db.insert(cfg(0),
              {rng.next_double(), rng.uniform(1e3, 1e6), rng.uniform(0, 512)},
              q3(rng.next_double(), rng.next_double(), 4.0));
  }
  for (int trial = 0; trial < 200; ++trial) {
    ResourcePoint at{rng.next_double(), rng.uniform(1e3, 1e6),
                     rng.uniform(0, 512)};
    for (Lookup mode : {Lookup::kInterpolate, Lookup::kNearest}) {
      auto fast = db.predict(cfg(0), at, mode);
      auto slow = db.predict_reference(cfg(0), at, mode);
      ASSERT_TRUE(fast && slow);
      EXPECT_EQ(*fast, *slow);
    }
  }
}

TEST(GridIndex, IndexBuiltOncePerConfigUntilMutation) {
  PerfDatabase db = build_db(4, 4);
  db.reset_prediction_stats();
  for (int trial = 0; trial < 50; ++trial) {
    for (int c = 0; c < 4; ++c) {
      (void)db.predict(cfg(c), {0.4, 150e3});
    }
  }
  EXPECT_EQ(db.prediction_stats().index_rebuilds, 0u);  // queries only read

  // A brand-new sample point rebuilds only that config's index, at once.
  db.insert(cfg(1), {0.99, 999e3}, q3(1, 1, 4));
  EXPECT_EQ(db.prediction_stats().index_rebuilds, 1u);
  for (int c = 0; c < 4; ++c) (void)db.predict(cfg(c), {0.4, 150e3});
  EXPECT_EQ(db.prediction_stats().index_rebuilds, 1u);

  // Overwriting an existing point keeps the index but the new value is
  // served (stable node pointers updated in place).
  db.insert(cfg(1), {0.99, 999e3}, q3(77, 1, 4));
  auto p = db.predict(cfg(1), {0.99, 999e3});
  EXPECT_DOUBLE_EQ(p->get("transmit_time"), 77.0);
  EXPECT_EQ(db.prediction_stats().index_rebuilds, 1u);

  // A batch rebuilds each touched config once, however many points it adds.
  std::vector<PerfRecord> batch;
  for (int k = 0; k < 5; ++k) {
    batch.push_back(PerfRecord{cfg(2), {1.5 + k, 50e3}, q3(k, 1, 4)});
    batch.push_back(PerfRecord{cfg(3), {1.5 + k, 50e3}, q3(k, 1, 4)});
  }
  db.insert_batch(batch);
  EXPECT_EQ(db.prediction_stats().index_rebuilds, 3u);
}

TEST(GridIndex, InsertChangesOnlyThatConfig) {
  PerfDatabase db = build_db(2, 4);
  ResourcePoint at{0.4, 150e3};
  const auto before1 = db.predict(cfg(1), at);
  db.insert(cfg(0), {0.4, 150e3}, q3(1234.0, 1.0, 4.0));
  auto p0 = db.predict(cfg(0), at);
  EXPECT_DOUBLE_EQ(p0->get("transmit_time"), 1234.0);
  EXPECT_EQ(db.predict(cfg(1), at), before1);
}

TEST(GridIndex, EraseConfigRemovesItsPredictions) {
  PerfDatabase db = build_db(2, 4);
  ResourcePoint at{0.4, 150e3};
  ASSERT_TRUE(db.predict(cfg(0), at).has_value());
  db.erase_config(cfg(0));
  EXPECT_FALSE(db.predict(cfg(0), at).has_value());
  EXPECT_TRUE(db.grid_values(cfg(0), "cpu_share").empty());
  EXPECT_TRUE(db.predict(cfg(1), at).has_value());
}

TEST(GridIndex, LoadedDatabasePredictsThroughIndex) {
  // Round-trip through save/load, then verify the rebuilt database's fast
  // path still matches its own reference path.
  PerfDatabase db = build_db(3, 5);
  std::stringstream buffer;
  db.save(buffer);
  PerfDatabase loaded = PerfDatabase::load(buffer);
  util::SplitMix64 rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    ResourcePoint at{rng.next_double(), rng.uniform(50e3, 700e3)};
    for (int c = 0; c < 3; ++c) {
      auto fast = loaded.predict(cfg(c), at);
      auto slow = loaded.predict_reference(cfg(c), at);
      ASSERT_TRUE(fast && slow);
      EXPECT_EQ(*fast, *slow);
    }
  }
}

TEST(GridIndex, RandomMutationMatchesReference) {
  // Property: under any interleaving of inserts (new points and
  // overwrites), erases, copies, moves and save/load round trips, predict
  // agrees bit for bit with the reference path at that moment — no index
  // ever serves a value from before the mutation, or points into another
  // database's samples.
  PerfDatabase db = build_db(/*configs=*/3, /*grid=*/4);
  util::SplitMix64 rng(7);
  auto random_point = [&] {
    return ResourcePoint{rng.uniform(0.1, 1.2), rng.uniform(50e3, 450e3)};
  };
  for (int step = 0; step < 500; ++step) {
    const ConfigPoint config = cfg(static_cast<int>(rng.next_below(3)));
    switch (rng.next_below(8)) {
      case 0: {  // overwrite a grid sample
        const double cpu = (static_cast<double>(rng.next_below(4)) + 1.0) / 4;
        const double bw =
            (static_cast<double>(rng.next_below(4)) + 1.0) * 100e3;
        db.insert(config, {cpu, bw},
                  q3(rng.next_double() * 20.0, rng.next_double(), 4.0));
        break;
      }
      case 1:  // a new, off-grid point
        db.insert(config, random_point(),
                  q3(rng.next_double() * 20.0, rng.next_double(), 4.0));
        break;
      case 2:
        if (rng.next_below(8) == 0) db.erase_config(config);
        break;
      case 3: {  // the source dies, the copy serves
        PerfDatabase copy = db;
        db = PerfDatabase(copy.axes(), copy.schema());
        db = copy;
        break;
      }
      case 4: {
        PerfDatabase moved = std::move(db);
        db = std::move(moved);
        break;
      }
      case 5: {
        std::stringstream buffer;
        db.save(buffer);
        db = PerfDatabase::load(buffer);
        break;
      }
      default:
        break;
    }
    const ResourcePoint at = random_point();
    for (Lookup mode : {Lookup::kInterpolate, Lookup::kNearest}) {
      const auto fast = db.predict(config, at, mode);
      const auto slow = db.predict_reference(config, at, mode);
      ASSERT_EQ(fast.has_value(), slow.has_value()) << "step " << step;
      if (fast) {
        ASSERT_EQ(*fast, *slow) << "step " << step;
      }
    }
  }
}

}  // namespace
}  // namespace avf::perfdb
