// Span tracing for the traced run: self time and allocations per layer.
//
// A span wraps one call from the benchmark into a layer's public function.
// Its self time is its duration minus the part of that interval its child
// spans cover; its self allocations are the allocations made while it was
// open minus those of its children. Spans nest per thread (SpanStack); the
// general interval arithmetic (covered / self_time) also accepts children
// that overlap each other, which the tests exercise.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

inline Nanos steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Allocations made so far by the calling thread (alloc_hook.cpp counts
/// every operator new of the benchmark binary).
std::uint64_t thread_allocs() noexcept;

struct Interval {
  Nanos begin = 0;
  Nanos end = 0;
};

/// Running union length of intervals added in non-decreasing `begin` order
/// (how children of one span arrive on one thread).
struct Cover {
  Nanos total = 0;
  Nanos end = std::numeric_limits<Nanos>::min();
  void add(Interval c) noexcept {
    if (c.end <= c.begin) return;
    if (c.begin >= end) {
      total += c.end - c.begin;
      end = c.end;
    } else if (c.end > end) {
      total += c.end - end;
      end = c.end;
    }
  }
};

/// Length of the union of `children` clipped to `parent`, for children in
/// any order, nested in or overlapping each other.
inline Nanos covered(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  Cover cov;
  for (const Interval& c : children) cov.add(c);
  return cov.total;
}

inline Nanos self_time(Interval parent, const std::vector<Interval>& children) {
  return (parent.end - parent.begin) - covered(parent, children);
}

/// Layers with live spans. The others (transport turns, generator work,
/// codec replays) are measured with thread CPU clocks or replays instead.
enum class Layer : int {
  server,     ///< E2Server's message handler (decode, lookup, dispatch)
  iapp,       ///< the benchmark's statistics iApp callback
  e2sm,       ///< e2sm::sm_decode calls inside the iApp
  telemetry,  ///< telemetry::Ingest calls inside the iApp
  query,      ///< northbound queries
  kCount
};
constexpr int kLayers = static_cast<int>(Layer::kCount);

struct LayerTotals {
  std::uint64_t spans = 0;
  Nanos self_ns = 0;
  std::uint64_t self_allocs = 0;
  Nanos root_ns = 0;  ///< full duration of this layer's outermost spans
  void add(const LayerTotals& o) noexcept {
    spans += o.spans;
    self_ns += o.self_ns;
    self_allocs += o.self_allocs;
    root_ns += o.root_ns;
  }
};

/// Per-thread stack of open spans and the layer totals they add up to.
class SpanStack {
 public:
  static constexpr int kMaxDepth = 16;

  void open(Layer l, Nanos t, std::uint64_t allocs) noexcept {
    if (depth_ == kMaxDepth) {
      overflow_++;
      return;
    }
    stack_[depth_++] = Frame{l, t, allocs, {}, 0};
  }

  void close(Nanos t, std::uint64_t allocs) noexcept {
    if (overflow_ > 0) {
      overflow_--;
      return;
    }
    if (depth_ == 0) return;
    const Frame f = stack_[--depth_];
    const Nanos dur = t - f.begin;
    const std::uint64_t made = allocs - f.allocs0;
    LayerTotals& tot = totals_[static_cast<int>(f.layer)];
    tot.spans++;
    tot.self_ns += dur - f.cover.total;
    tot.self_allocs += made - f.child_allocs;
    if (depth_ > 0) {
      stack_[depth_ - 1].cover.add({f.begin, t});
      stack_[depth_ - 1].child_allocs += made;
    } else {
      tot.root_ns += dur;
    }
  }

  [[nodiscard]] const LayerTotals& totals(Layer l) const noexcept {
    return totals_[static_cast<int>(l)];
  }
  [[nodiscard]] int depth() const noexcept { return depth_; }

 private:
  struct Frame {
    Layer layer;
    Nanos begin;
    std::uint64_t allocs0;
    Cover cover;
    std::uint64_t child_allocs;
  };
  Frame stack_[kMaxDepth] = {};
  int depth_ = 0;
  int overflow_ = 0;
  LayerTotals totals_[kLayers] = {};
};

/// Whether live spans record. Flipped by the run at the traced window's
/// edges; a span decides at open time and keeps that decision.
inline std::atomic<bool>& tracing_on() {
  static std::atomic<bool> on{false};
  return on;
}

/// Every thread's SpanStack outlives its thread (shard threads are joined
/// before the totals are read), so the stacks live in this registry.
class SpanRegistry {
 public:
  static SpanRegistry& get() {
    static SpanRegistry r;
    return r;
  }
  SpanStack& mine() {
    thread_local SpanStack* s = nullptr;
    if (s == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      stacks_.push_back(std::make_unique<SpanStack>());
      s = stacks_.back().get();
    }
    return *s;
  }
  /// Call only after every traced thread has stopped.
  [[nodiscard]] LayerTotals total(Layer l) {
    std::lock_guard<std::mutex> g(mu_);
    LayerTotals t;
    for (const auto& s : stacks_) t.add(s->totals(l));
    return t;
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SpanStack>> stacks_;
};

/// RAII span around one call into `layer`.
class Span {
 public:
  explicit Span(Layer layer) : on_(tracing_on().load(std::memory_order_relaxed)) {
    if (on_)
      SpanRegistry::get().mine().open(layer, steady_ns(), thread_allocs());
  }
  ~Span() {
    if (on_) SpanRegistry::get().mine().close(steady_ns(), thread_allocs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

}  // namespace perfbench
