// Tests of the benchmark's own helpers: percentile, window and rate
// rules, the seeded op generators (one seed, one op sequence), the
// edge-list tree baseline, span self-time attribution, and the
// host-speed calibration of the closed loops.
//
//   python3 e2ebench/run.py --test
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "barrier/algorithms.hpp"
#include "hostspeed.hpp"
#include "opstream.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

template <class Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // descending: order must not matter
  }
  return v;
}

void test_percentile() {
  using e2e::percentile;
  const e2e::Percentile p50 = percentile(one_to(100), 0.50);
  CHECK(p50.value == 50.0);
  CHECK(p50.samples == 100);
  CHECK(!p50.clamped());
  CHECK(percentile(one_to(100), 0.90).value == 90.0);
  CHECK(!percentile(one_to(100), 0.90).clamped());
  // p99 of 100 samples would leave 1 beyond it: clamped to the highest
  // rank with 10 beyond, and the result says so.
  const e2e::Percentile p99 = percentile(one_to(100), 0.99);
  CHECK(p99.value == 90.0);
  CHECK(p99.clamped());
  CHECK(std::abs(p99.effective - 0.90) < 1e-12);
  // 1000 samples support p99 exactly: 10 lie beyond the 990th.
  const e2e::Percentile p99k = percentile(one_to(1000), 0.99);
  CHECK(p99k.value == 990.0);
  CHECK(!p99k.clamped());
  CHECK(throws([] { percentile(one_to(10), 0.5); }));
  CHECK(!throws([] { percentile(one_to(11), 0.5); }));
  CHECK(throws([] { percentile(one_to(100), 1.0); }));
  CHECK(throws([] { percentile(one_to(100), 0.0); }));
}

void test_windowed_percentile() {
  CHECK(e2e::min_samples(0.50) == 20);
  CHECK(e2e::min_samples(0.90) == 100);
  CHECK(e2e::min_samples(0.99) == 1000);
  CHECK(e2e::interquartile_mean({3.0, 1.0, 2.0}) == 2.0);
  CHECK(e2e::interquartile_mean({4.0, 1.0, 2.0, 3.0}) == 2.5);
  // Eight values: the two smallest and two largest are dropped.
  CHECK(e2e::interquartile_mean({0, 0, 0, 0, 0, 1, 1, 100}) == 0.25);
  CHECK(throws([] { e2e::interquartile_mean({}); }));

  // Too few samples for two windows: the plain percentile.
  const e2e::Percentile plain = e2e::windowed_percentile(one_to(39), 0.50);
  CHECK(plain.windows == 1);
  CHECK(plain.value == 20.0);

  // 16 windows of 1000; a burst of interference in 3 windows (every
  // sample 100x slower) moves the run's p99 but not the windowed one.
  std::vector<double> ordered;
  for (std::size_t w = 0; w < 16; ++w) {
    for (std::size_t i = 1; i <= 1000; ++i) {
      const double v = static_cast<double>(i);
      ordered.push_back(w < 3 ? 100.0 * v : v);
    }
  }
  const e2e::Percentile p99 = e2e::windowed_percentile(ordered, 0.99);
  CHECK(p99.windows == 16);
  CHECK(p99.samples == 16000);
  CHECK(p99.value == 990.0);
  CHECK(!p99.clamped());
  CHECK(e2e::percentile(ordered, 0.99).value > 990.0);
  // Windows are capped at kMaxWindows; an odd sample splits unevenly.
  CHECK(e2e::windowed_percentile(one_to(1000), 0.50).windows == 16);
  CHECK(e2e::windowed_percentile(one_to(41), 0.50).windows == 2);

  // A host at two speed levels: 7 of 16 windows fast (1), 9 slow (2).
  // The value moves with the share of each level (a median would read
  // the slow level alone).
  std::vector<std::vector<double>> levels;
  for (std::size_t w = 0; w < 16; ++w) {
    levels.emplace_back(20, w < 7 ? 1.0 : 2.0);
  }
  CHECK(e2e::windowed_percentile(levels, 0.50).value == 13.0 / 8.0);

  const std::vector<std::vector<double>> windows = {one_to(20), one_to(40),
                                                    one_to(60)};
  const e2e::Percentile merged = e2e::windowed_percentile(windows, 0.50);
  CHECK(merged.value == 20.0);  // window p50s 10, 20, 30
  CHECK(merged.samples == 120);
  CHECK(merged.windows == 3);
  CHECK(throws([] {
    e2e::windowed_percentile(std::vector<std::vector<double>>{one_to(19)},
                             0.50);
  }));
  CHECK(throws([] {
    e2e::windowed_percentile(std::vector<std::vector<double>>{}, 0.50);
  }));
}

void test_rate() {
  using namespace std::chrono_literals;
  CHECK(e2e::rate(1000, 500ms) == 2000.0);
  CHECK(e2e::rate(3, 1500ms) == 2.0);
  CHECK(throws([] { e2e::rate(1, std::chrono::nanoseconds(0)); }));
  CHECK(std::abs(e2e::geometric_mean({1.0, 4.0}) - 2.0) < 1e-12);
  CHECK(throws([] { e2e::geometric_mean({}); }));
  CHECK(throws([] { e2e::geometric_mean({1.0, 0.0}); }));
}

struct FakeOp {
  std::int64_t op_ns = 0;
  double host_factor = 1.0;
  bool failed = false;
};

void test_least_disturbed_sample() {
  // Six windows of 10; windows 1 and 4 hold a burst of interference.
  std::vector<double> ordered;
  for (std::size_t w = 0; w < 6; ++w) {
    for (std::size_t i = 1; i <= 10; ++i) {
      const double v = static_cast<double>(i + w);
      ordered.push_back(w == 1 || w == 4 ? 100.0 * v : v);
    }
  }
  // The four quietest windows come back pooled, in their order.
  const std::vector<double> quiet =
      e2e::least_disturbed_sample(ordered, 10, 4);
  CHECK(quiet.size() == 40);
  CHECK(quiet.front() == 1.0);  // window 0
  CHECK(quiet[10] == 3.0);      // window 2
  CHECK(quiet.back() == 15.0);  // window 5
  CHECK(*std::max_element(quiet.begin(), quiet.end()) < 100.0);
  // A partial last window is dropped.
  std::vector<double> flat(25, 1.0);
  flat[24] = 0.0;
  CHECK(e2e::least_disturbed_sample(flat, 10, 2).size() == 20);
  CHECK(throws([&] { e2e::least_disturbed_sample(flat, 10, 3); }));
  CHECK(throws([&] { e2e::least_disturbed_sample(flat, 0, 1); }));
}

void test_host_speed() {
  CHECK(e2e::reference_kernel_ns() > 0);
  CHECK(e2e::host_factor_now() > 0.0);
  // One calibration per slice: the ops of a slice share it.
  e2e::HostSpeed speed;
  const std::int64_t t0 = e2e::now_ns();
  CHECK(speed.before_op(t0) == 0);
  CHECK(speed.before_op(t0 + 1) == 0);
  CHECK(speed.spent_ns() > 0);
  CHECK(speed.before_op(e2e::now_ns() + e2e::kSliceNs) == 1);
  CHECK(speed.factors().size() == 2);
  CHECK(speed.factors()[0] > 0.0);

  // A factor scales its op's time; failed ops are left out, as in
  // timings().
  const std::vector<FakeOp> ops = {{100, 2.0, false}, {50, 1.0, true},
                                   {300, 0.5, false}};
  CHECK(e2e::scaled_timings(ops, &FakeOp::op_ns) ==
        (std::vector<double>{200.0, 150.0}));
  CHECK(e2e::timings(ops, &FakeOp::op_ns) ==
        (std::vector<double>{100.0, 300.0}));

  // closed_loop stamps every op with its slice's factor and adds up
  // each iteration's time at that factor; calibration is left out.
  e2e::LoopClock clock;
  const std::vector<FakeOp> loop = e2e::closed_loop<FakeOp>(
      0.0, 3, [](std::uint64_t, e2e::SpanLog*) { return FakeOp{}; }, clock);
  CHECK(loop.size() == 3);
  CHECK(clock.factors.size() == 1);
  CHECK(loop[2].host_factor == clock.factors[0]);
  CHECK(clock.calibration_ns > 0 && clock.calibration_ns < clock.wall_ns);
  CHECK(clock.scaled_ns >= 0.0);
}

void test_smoothed_factors() {
  // One disturbed calibration (4x slow) among steady ones: the median
  // of its neighbourhood, not the disturbed value, scales its slice.
  const double k = e2e::kReferenceNominalNs;
  const std::vector<double> f =
      e2e::smoothed_factors({k, k, 4 * k, k, k, 2 * k, 2 * k});
  CHECK(f.size() == 7);
  CHECK(f[0] == 1.0 && f[1] == 1.0 && f[2] == 1.0 && f[3] == 1.0);
  // A lasting slow-down does move the factor, once it fills most of
  // the neighbourhood.
  CHECK(f[6] == 0.5);
  CHECK(e2e::smoothed_factors({}).empty());
  CHECK(e2e::smoothed_factors({k / 2}) == std::vector<double>{2.0});
}

void test_reservoir() {
  e2e::Reservoir a(100, 5);
  e2e::Reservoir b(100, 5);
  for (int i = 0; i < 100000; ++i) {
    a.offer(static_cast<double>(i));
    b.offer(static_cast<double>(i));
  }
  CHECK(a.values().size() == 100);
  CHECK(a.values() == b.values());  // one seed, one sample
  // Uniform over the stream: about half the kept values are from its
  // second half (binomial, 100 draws: 30..70 is > 4 sigma).
  std::size_t late = 0;
  for (const double v : a.values()) {
    late += v >= 50000.0 ? 1 : 0;
  }
  CHECK(late >= 30 && late <= 70);
  CHECK(throws([] { e2e::Reservoir(0, 1); }));
}

void test_churn_stream() {
  e2e::ChurnStream a(7, 120, 8);
  e2e::ChurnStream b(7, 120, 8);
  e2e::ChurnStream c(8, 120, 8);
  std::set<std::vector<std::size_t>> seen;
  bool same = true;
  bool differs = false;
  bool in_range = true;
  for (int i = 0; i < 500; ++i) {
    const std::vector<std::size_t> x = a.next();
    same = same && x == b.next();
    differs = differs || x != c.next();
    in_range = in_range && x.size() >= 8 && x.size() <= 120;
    CHECK(std::set<std::size_t>(x.begin(), x.end()).size() == x.size());
    seen.insert(x);
  }
  CHECK(same);
  CHECK(differs);
  CHECK(in_range);
  CHECK(seen.size() == 500);  // never-seen communicators
}

std::vector<e2e::ServiceOp> service_ops(std::uint64_t seed, std::size_t client,
                                        std::size_t count) {
  e2e::ServiceStream stream(seed, client, {8, 12, 16}, e2e::ServiceMix{}, 32,
                            4, 5);
  std::vector<e2e::ServiceOp> ops;
  for (std::size_t i = 0; i < count; ++i) {
    ops.push_back(stream.next());
  }
  return ops;
}

bool same_ops(const std::vector<e2e::ServiceOp>& a,
              const std::vector<e2e::ServiceOp>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].subset != b[i].subset ||
        a[i].src != b[i].src || a[i].dst != b[i].dst ||
        a[i].factor != b[i].factor || a[i].cold != b[i].cold) {
      return false;
    }
  }
  return true;
}

void test_service_stream() {
  const std::size_t n = 600000;
  const std::vector<e2e::ServiceOp> a = service_ops(3, 1, n);
  CHECK(same_ops(a, service_ops(3, 1, n)));
  CHECK(!same_ops(a, service_ops(4, 1, n)));
  CHECK(!same_ops(a, service_ops(3, 2, n)));

  const e2e::ServiceMix mix;
  std::size_t stalls = 0;
  std::size_t colds = 0;
  std::set<std::vector<std::size_t>> cold;
  bool bursts_whole = true;
  bool stalls_on_window = true;
  for (std::size_t i = 0; i < n; ++i) {
    const e2e::ServiceOp& op = a[i];
    if (op.kind == e2e::ServiceOp::kStall) {
      ++stalls;
      // Stalls name the flaky subset of their window (after 3 warm).
      stalls_on_window =
          stalls_on_window &&
          op.subset == 3 + (i / mix.window) % mix.flaky_pool;
      const bool starts = i == 0 || a[i - 1].kind != e2e::ServiceOp::kStall;
      if (starts) {
        for (std::size_t k = 1; k < mix.burst && i + k < n; ++k) {
          bursts_whole =
              bursts_whole && a[i + k].kind == e2e::ServiceOp::kStall;
        }
      }
    }
    if (op.kind == e2e::ServiceOp::kCold) {
      ++colds;
      CHECK(op.cold.size() >= 4 && op.cold.size() <= 5);
      CHECK(op.cold.front() == 1);  // led by the client's own rank
      cold.insert(op.cold);
    }
    if (op.kind == e2e::ServiceOp::kLatency) {
      CHECK(op.src != op.dst);
    }
  }
  CHECK(bursts_whole);
  CHECK(stalls_on_window);
  CHECK(stalls > 0);
  CHECK(colds > 0);
  CHECK(cold.size() == colds);  // every cold subset is never-seen
}

void test_flaky_window_wraps() {
  e2e::ServiceMix mix;
  mix.stall_bursts = 200000;  // a burst every few ops
  mix.window = 50;
  mix.flaky_pool = 4;
  e2e::ServiceStream stream(9, 0, {8, 8}, mix, 32, 4, 5);
  std::set<std::size_t> flaky;
  for (std::size_t i = 0; i < 2000; ++i) {
    const e2e::ServiceOp op = stream.next();
    if (op.kind == e2e::ServiceOp::kStall) {
      CHECK(op.subset == 2 + (i / 50) % 4);
      flaky.insert(op.subset);
    }
  }
  CHECK(flaky.size() == 4);  // every pool subset took its turn
}

void test_tree_edges() {
  for (std::size_t p = 1; p <= 40; ++p) {
    const optibar::Schedule tree = optibar::tree_barrier(p);
    const auto edges = e2e::tree_edges(p);
    bool same = edges.size() == tree.stage_count();
    for (std::size_t s = 0; same && s < edges.size(); ++s) {
      std::vector<std::pair<std::size_t, std::size_t>> dense;
      for (std::size_t i = 0; i < p; ++i) {
        for (const std::size_t j : tree.targets_of(i, s)) {
          dense.emplace_back(i, j);
        }
      }
      same = dense == edges[s];
    }
    CHECK(same);
  }
}

void test_layer_times() {
  e2e::SpanLog log(16);
  // op 1: root [0,100] with children [10,40] and [50,90] -> glue 30.
  const std::int32_t root = log.add("x.op", 1, 0, 100, -1);
  log.add("a.layer", 1, 10, 40, root);
  const std::int32_t b = log.add("b.layer", 1, 50, 90, root);
  log.add("c.layer", 1, 60, 70, b);  // nested: b's self is 30
  // op 2: a bare layer span is its own root and fully attributed.
  log.add("a.layer", 2, 200, 220, -1);
  const e2e::LayerTimes t = e2e::layer_times({&log});
  CHECK(t.op_ns == 120.0);
  CHECK(t.layer_ns == 30.0 + 30.0 + 10.0 + 20.0);
  CHECK(std::abs(t.attributed_share() - 90.0 / 120.0) < 1e-12);
  CHECK(t.total_self_ns.at("x.op") == 30.0);
  CHECK(t.total_self_ns.at("b.layer") == 30.0);
  CHECK(t.per_op_self_ns.at("a.layer").size() == 2);

  e2e::SpanLog full(1);
  CHECK(full.add("x.op", 1, 0, 1, -1) == 0);
  CHECK(full.add("x.op", 2, 0, 1, -1) == -1);  // capacity reached

  e2e::OpTimeline timeline(5);
  timeline.step("a.layer", [] {});
  e2e::SpanLog recorded(8);
  timeline.finish(&recorded, "x.op");
  CHECK(recorded.spans().size() == 2);
  CHECK(recorded.spans()[1].parent == 0);
  CHECK(recorded.spans()[1].op == 5);
}

}  // namespace

int main() {
  test_percentile();
  test_windowed_percentile();
  test_rate();
  test_least_disturbed_sample();
  test_host_speed();
  test_smoothed_factors();
  test_reservoir();
  test_churn_stream();
  test_service_stream();
  test_flaky_window_wraps();
  test_tree_edges();
  test_layer_times();
  if (failures == 0) {
    std::printf("optibar_e2e_tests: all checks passed\n");
    return 0;
  }
  std::printf("optibar_e2e_tests: %d check(s) failed\n", failures);
  return 1;
}
