// Self-test of the benchmark's span arithmetic and percentile code. Built
// with the benchmark and run by run.py after every build; exit 1 on failure.
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "e2bench/spans.hpp"
#include "e2bench/stats.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    g_failures++;
  }
}

void check_eq(double got, double want, const std::string& what,
              double tol = 1e-9) {
  check(std::fabs(got - want) <= tol,
        what + ": got " + std::to_string(got) + ", want " +
            std::to_string(want));
}

void test_interval_arithmetic() {
  const Interval p{100, 200};
  check_eq(static_cast<double>(self_time(p, {})), 100, "no children");
  // Disjoint children.
  check_eq(static_cast<double>(self_time(p, {{110, 120}, {150, 170}})), 70,
           "disjoint children");
  // Overlapping children count their union once.
  check_eq(static_cast<double>(self_time(p, {{110, 140}, {130, 160}})), 50,
           "overlapping children");
  // A child nested in another child adds nothing.
  check_eq(static_cast<double>(self_time(p, {{110, 160}, {120, 130}})), 50,
           "nested children");
  // Unsorted input, a child sticking out of the parent on both sides.
  check_eq(static_cast<double>(self_time(p, {{190, 250}, {50, 105}})), 85,
           "children clipped to the parent");
  // Children covering the whole parent leave no self time.
  check_eq(static_cast<double>(self_time(p, {{90, 150}, {140, 210}})), 0,
           "full cover");
  // Empty and inverted intervals contribute nothing.
  check_eq(static_cast<double>(self_time(p, {{120, 120}, {150, 140}})), 100,
           "degenerate children");
}

void test_cover_matches_sorted_union() {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Interval> kids;
    for (int i = 0; i < 12; ++i) {
      const Nanos b = static_cast<Nanos>(rng() % 1000);
      kids.push_back({b, b + static_cast<Nanos>(rng() % 120)});
    }
    const Interval parent{0, 2000};
    std::vector<Interval> sorted = kids;
    std::sort(sorted.begin(), sorted.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    Cover cov;
    for (const Interval& k : sorted) cov.add(k);
    // Brute force: count covered unit cells.
    Nanos brute = 0;
    for (Nanos t = 0; t < 2000; ++t) {
      bool in = false;
      for (const Interval& k : kids) in = in || (k.begin <= t && t < k.end);
      brute += in ? 1 : 0;
    }
    check_eq(static_cast<double>(cov.total), static_cast<double>(brute),
             "incremental cover vs brute force");
    check_eq(static_cast<double>(covered(parent, kids)),
             static_cast<double>(brute), "covered() vs brute force");
  }
}

void test_span_stack() {
  SpanStack s;
  // server [0,100) > iapp [10,80) > { e2sm [20,30), telemetry [40,70) }
  s.open(Layer::server, 0, 0);
  s.open(Layer::iapp, 10, 1);
  s.open(Layer::e2sm, 20, 1);
  s.close(30, 3);  // e2sm made 2 allocations
  s.open(Layer::telemetry, 40, 3);
  s.close(70, 8);  // telemetry made 5
  s.close(80, 9);  // iapp made 1 of its own
  s.close(100, 9);
  check(s.depth() == 0, "stack unwinds");
  check_eq(static_cast<double>(s.totals(Layer::server).self_ns), 30,
           "server self = 100 - 70");
  check_eq(static_cast<double>(s.totals(Layer::iapp).self_ns), 30,
           "iapp self = 70 - 10 - 30");
  check_eq(static_cast<double>(s.totals(Layer::e2sm).self_ns), 10, "e2sm");
  check_eq(static_cast<double>(s.totals(Layer::telemetry).self_ns), 30,
           "telemetry");
  check_eq(static_cast<double>(s.totals(Layer::iapp).self_allocs), 1,
           "iapp self allocs");
  check_eq(static_cast<double>(s.totals(Layer::e2sm).self_allocs), 2,
           "e2sm allocs");
  check_eq(static_cast<double>(s.totals(Layer::telemetry).self_allocs), 5,
           "telemetry allocs");
  check_eq(static_cast<double>(s.totals(Layer::server).self_allocs), 1,
           "server allocs (made before the iapp opened)");
  check_eq(static_cast<double>(s.totals(Layer::server).root_ns), 100,
           "root time");
  check_eq(static_cast<double>(s.totals(Layer::iapp).root_ns), 0,
           "nested spans are not roots");
  // Self times of the tree sum to the root span.
  Nanos sum = 0;
  for (int l = 0; l < kLayers; ++l)
    sum += s.totals(static_cast<Layer>(l)).self_ns;
  check_eq(static_cast<double>(sum), 100, "self times sum to the root");
  // A second root span accumulates.
  s.open(Layer::query, 200, 9);
  s.close(205, 9);
  check_eq(static_cast<double>(s.totals(Layer::query).root_ns), 5,
           "second root");
  check(s.totals(Layer::query).spans == 1, "query span counted");
}

void test_allocation_hook() {
  const std::uint64_t a0 = thread_allocs();
  auto* v = new std::vector<int>(64);
  const std::uint64_t a1 = thread_allocs();
  delete v;
  check(a1 - a0 == 2, "vector new + buffer = 2 allocations, got " +
                          std::to_string(a1 - a0));
}

// Type-7 quantiles against values computed by hand, and on the sample
// counts the workloads produce (pings: ~10^3, indications: ~10^5-10^6).
void test_quantiles() {
  std::vector<double> v{5, 1, 4, 2, 3};
  check_eq(quantile(v, 0.5), 3, "median of 1..5");
  check_eq(quantile(v, 0.95), 4.8, "p95 of 1..5");
  check_eq(quantile(v, 0.0), 1, "min");
  check_eq(quantile(v, 1.0), 5, "max");
  std::vector<double> one{42};
  check_eq(quantile(one, 0.95), 42, "single sample");
  std::vector<double> none;
  check_eq(quantile(none, 0.5), 0, "empty sample");
  for (std::size_t n : {200u, 1000u, 1500u, 12000u, 480000u, 1920000u}) {
    // A permutation of 0..n-1: the type-7 q-quantile is q*(n-1) exactly.
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i)
      s[i] = static_cast<double>((i * 7919) % n);
    std::mt19937_64 rng(n);
    std::shuffle(s.begin(), s.end(), rng);
    const std::string tag = " (n=" + std::to_string(n) + ")";
    check_eq(quantile(s, 0.5), 0.5 * static_cast<double>(n - 1),
             "p50" + tag, 1e-6);
    check_eq(quantile(s, 0.95), 0.95 * static_cast<double>(n - 1),
             "p95" + tag, 1e-6);
    check(tail_supported(n, 0.95), "p95 supported" + tag);
  }
  check(!tail_supported(199, 0.95), "p95 needs 200 samples");
  check(!tail_supported(999, 0.99), "p99 needs 1000 samples");
}

// The fixed-memory histogram the run reports from agrees with the exact
// quantile within its bucket width (1/128 of the value) at the sample counts
// the workloads produce, on latency-shaped (log-normal) data.
void test_histogram() {
  for (std::size_t n : {200u, 2000u, 4000u, 96000u, 960000u}) {
    std::mt19937_64 rng(n + 1);
    std::lognormal_distribution<double> dist(std::log(80.0), 0.35);
    Histogram h;
    std::vector<double> exact;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = dist(rng);
      h.add(v);
      exact.push_back(v);
    }
    check(h.count() == n, "histogram count");
    for (double q : {0.5, 0.95, 0.99}) {
      const double want = quantile(exact, q);
      const double got = h.quantile(q);
      check(std::fabs(got - want) <= want / 100.0,
            "histogram q" + std::to_string(q) + " (n=" + std::to_string(n) +
                "): got " + std::to_string(got) + ", want " +
                std::to_string(want));
    }
    check_eq(h.quantile(0.0), quantile(exact, 0.0), "histogram min");
    check_eq(h.quantile(1.0), quantile(exact, 1.0), "histogram max");
  }
  Histogram a, b, all;
  for (int i = 0; i < 1000; ++i) {
    (i % 2 == 0 ? a : b).add(i * 0.37);
    all.add(i * 0.37);
  }
  a.merge(b);
  check_eq(a.quantile(0.5), all.quantile(0.5), "merged histogram");
  check(a.count() == 1000, "merged count");
  Histogram zero;
  zero.add(0.0);
  zero.add(0.0);
  check_eq(zero.quantile(0.5), 0.0, "zeros stay zero");
  Histogram none;
  check_eq(none.quantile(0.95), 0.0, "empty histogram");
}

}  // namespace

int main() {
  test_interval_arithmetic();
  test_cover_matches_sorted_union();
  test_span_stack();
  test_allocation_hook();
  test_quantiles();
  test_histogram();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: OK\n");
  return 0;
}
