// Order statistics for the benchmark's samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `v`, interpolating linearly between the
/// two closest ranks (Hyndman-Fan type 7, as numpy's default). Sorts `v`.
/// An empty sample has no quantile; callers check first, and 0 is returned.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q <= 0.0) return v.front();
  if (q >= 1.0) return v.back();
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

/// Log-linear histogram of non-negative values (HDR style): each power-of-two
/// range is split into kSub equal buckets, so a bucket is at most 1/kSub of
/// the values it holds wide. Its memory is fixed whatever the sample count,
/// which keeps the benchmark's own bookkeeping out of the peak RSS it
/// reports. Quantiles use the type-7 rank and interpolate inside a bucket.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMinExp = -9;  ///< values below 2^-10 share bucket 0
  static constexpr int kMaxExp = 40;  ///< values above 2^40 clamp

  Histogram() : buckets_(static_cast<std::size_t>((kMaxExp - kMinExp + 1) * kSub), 0) {}

  void add(double v) {
    if (!(v >= 0.0)) v = 0.0;
    buckets_[index(v)]++;
    if (n_ == 0 || v < min_) min_ = v;
    if (n_ == 0 || v > max_) max_ = v;
    n_++;
  }

  void merge(const Histogram& o) {
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
    if (o.n_ > 0) {
      min_ = n_ == 0 ? o.min_ : std::min(min_, o.min_);
      max_ = n_ == 0 ? o.max_ : std::max(max_, o.max_);
    }
    n_ += o.n_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }

  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    const double rank = q * static_cast<double>(n_ - 1);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const std::uint64_t c = buckets_[i];
      if (c == 0) continue;
      if (rank < static_cast<double>(before + c)) {
        // The c samples are taken as spread evenly over the bucket.
        const double pos = (rank - static_cast<double>(before) + 0.5) /
                           static_cast<double>(c);
        const double v = lower(i) + width(i) * pos;
        return std::clamp(v, min_, max_);
      }
      before += c;
    }
    return max_;
  }

 private:
  static std::size_t index(double v) {
    int e = 0;
    const double m = std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)
    if (v == 0.0 || e < kMinExp) return 0;
    if (e > kMaxExp) return static_cast<std::size_t>((kMaxExp - kMinExp + 1) * kSub - 1);
    const int sub = std::min(kSub - 1, static_cast<int>((m - 0.5) * 2.0 * kSub));
    return static_cast<std::size_t>((e - kMinExp) * kSub + sub);
  }
  static double lower(std::size_t i) {
    const int e = static_cast<int>(i / kSub) + kMinExp;
    const int sub = static_cast<int>(i % kSub);
    return std::ldexp(1.0 + static_cast<double>(sub) / kSub, e - 1);
  }
  static double width(std::size_t i) {
    const int e = static_cast<int>(i / kSub) + kMinExp;
    return std::ldexp(1.0 / kSub, e - 1);
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Samples beyond quantile q: the guide's rule is that a reported tail needs
/// at least ten of them, so p95 needs n >= 200.
inline bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

}  // namespace perfbench
