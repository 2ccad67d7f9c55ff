// LatencyMonitor (§4.2.1): folds committed latency vectors into the global
// latency matrix L. Deterministic: identical commit order yields identical
// matrices on every replica.
//
// Symmetry rule from the paper: L[A][B] = L[B][A] = max(Lr(A,B), Lr(B,A)),
// where Lr is the *recorded* one-directional report. Missing reports count
// as unknown; a peer marked unreachable reports infinity.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "src/core/measurement.h"

namespace optilog {

class LatencyMatrix {
 public:
  explicit LatencyMatrix(uint32_t n = 0) { Reset(n); }

  void Reset(uint32_t n) {
    n_ = n;
    recorded_.assign(static_cast<size_t>(n) * n, kUnknown);
    known_pairs_ = 0;
    city_index_.clear();
    city_rtt_ms_.clear();
    city_stride_ = 0;
    overrides_.clear();
    ++version_;
  }

  // Complete-probe-round initialization, city-compressed. Every ordered
  // pair (a != b) becomes known with the city-pair RTT (colocated replicas:
  // 1 ms, the datacenter base delay); later Records land in a sparse
  // override map. Equivalent to Reset(n) + n² Record calls but O(u²)
  // storage — at n = 5000 the dense matrix is 200 MB of redundant doubles,
  // the city form a few hundred KB.
  void ResetWithCityBaseline(uint32_t n, std::vector<uint32_t> index_of,
                             std::vector<double> city_rtt_ms, size_t stride) {
    n_ = n;
    recorded_.clear();
    known_pairs_ = 0;
    city_index_ = std::move(index_of);
    city_rtt_ms_ = std::move(city_rtt_ms);
    city_stride_ = stride;
    overrides_.clear();
    ++version_;
  }

  uint32_t size() const { return n_; }

  // Bumped by every mutation: callers that derive values from the matrix
  // (the PBFT harness's timeout cache) key on it to know when to recompute.
  uint64_t version() const { return version_; }

  void Record(ReplicaId reporter, ReplicaId peer, double rtt_ms) {
    if (reporter < n_ && peer < n_) {
      if (city_stride_ != 0) {
        overrides_[Pack(reporter, peer)] = rtt_ms;
      } else {
        const bool was_known = Known(reporter, peer);
        recorded_[Index(reporter, peer)] = rtt_ms;
        const bool is_known = Known(reporter, peer);
        if (is_known && !was_known) {
          ++known_pairs_;
        } else if (was_known && !is_known) {
          --known_pairs_;  // a report of kUnknown withdraws the pair
        }
      }
      ++version_;
    }
  }

  // Symmetric matrix entry per the paper's max rule. Unknown pairs return
  // infinity (they cannot be relied on for role assignment).
  double Rtt(ReplicaId a, ReplicaId b) const {
    if (a == b) {
      return 0.0;
    }
    if (a >= n_ || b >= n_) {
      return std::numeric_limits<double>::infinity();
    }
    const double ab = RecordedAt(a, b);
    const double ba = RecordedAt(b, a);
    if (ab == kUnknown && ba == kUnknown) {
      return std::numeric_limits<double>::infinity();
    }
    if (ab == kUnknown) {
      return ba;
    }
    if (ba == kUnknown) {
      return ab;
    }
    return ab > ba ? ab : ba;
  }

  bool Known(ReplicaId a, ReplicaId b) const {
    if (a == b) {
      return true;
    }
    if (a >= n_ || b >= n_) {
      return false;
    }
    if (city_stride_ != 0) {
      return true;  // the baseline covers every pair
    }
    return recorded_[Index(a, b)] != kUnknown || recorded_[Index(b, a)] != kUnknown;
  }

  // Fraction of replica pairs with at least one report; 1.0 = complete.
  // O(1): Record maintains the known-pair count.
  double Coverage() const;

  // Number of unordered pairs {a, b}, a != b, with Known(a, b).
  size_t known_pairs() const;

 private:
  static constexpr double kUnknown = -1.0;

  static uint64_t Pack(ReplicaId a, ReplicaId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  size_t Index(ReplicaId a, ReplicaId b) const {
    return static_cast<size_t>(a) * n_ + b;
  }

  double RecordedAt(ReplicaId a, ReplicaId b) const {
    if (city_stride_ == 0) {
      return recorded_[Index(a, b)];
    }
    if (!overrides_.empty()) {
      auto it = overrides_.find(Pack(a, b));
      if (it != overrides_.end()) {
        return it->second;
      }
    }
    const uint32_t ca = city_index_[a];
    const uint32_t cb = city_index_[b];
    return ca == cb ? 1.0 : city_rtt_ms_[ca * city_stride_ + cb];
  }

  uint32_t n_ = 0;
  uint64_t version_ = 0;
  // Dense mode (tests, incremental monitors): every ordered pair, row-major
  // n×n, plus the count of unordered pairs with at least one report.
  std::vector<double> recorded_;
  size_t known_pairs_ = 0;
  // City-baseline mode (deployments): replica -> city, u×u RTTs, sparse
  // post-baseline reports.
  std::vector<uint32_t> city_index_;
  std::vector<double> city_rtt_ms_;
  size_t city_stride_ = 0;
  std::unordered_map<uint64_t, double> overrides_;
};

class LatencyMonitor {
 public:
  explicit LatencyMonitor(uint32_t n) : matrix_(n) {}

  // Called by the sensor app when a latency vector commits.
  void OnLatencyVector(const LatencyVectorRecord& rec);

  const LatencyMatrix& matrix() const { return matrix_; }
  uint64_t vectors_applied() const { return vectors_applied_; }

 private:
  LatencyMatrix matrix_;
  uint64_t vectors_applied_ = 0;
};

}  // namespace optilog
