#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/aware/aware_score.h"
#include "src/net/geo.h"
#include "src/util/rng.h"

namespace optilog {
namespace {

LatencyMatrix UniformMatrix(uint32_t n, double rtt_ms) {
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        m.Record(a, b, rtt_ms);
      }
    }
  }
  return m;
}

CandidateSet AllCandidates(uint32_t n) {
  CandidateSet k;
  for (ReplicaId id = 0; id < n; ++id) {
    k.candidates.push_back(id);
  }
  return k;
}

RoleConfig BasicConfig(uint32_t n, uint32_t f, ReplicaId leader) {
  RoleConfig cfg;
  cfg.leader = leader;
  cfg.weight_max.assign(n, 0);
  uint32_t assigned = 0;
  cfg.weight_max[leader] = 1;
  ++assigned;
  for (ReplicaId id = 0; id < n && assigned < 2 * f; ++id) {
    if (id != leader) {
      cfg.weight_max[id] = 1;
      ++assigned;
    }
  }
  return cfg;
}

TEST(WeightScheme, PbftCaseNoDelta) {
  // n = 3f + 1: Vmax = Vmin = 1, quorum = 2f + 1.
  const WeightScheme s = WeightScheme::For(13, 4);
  EXPECT_DOUBLE_EQ(s.v_max, 1.0);
  EXPECT_DOUBLE_EQ(s.v_min, 1.0);
  EXPECT_DOUBLE_EQ(s.quorum_weight, 9.0);
}

TEST(WeightScheme, AwareCaseWithDelta) {
  // n = 21, f = 6 -> Delta = 2, Vmax = 1 + 2/6, Qv = 2*6*Vmax + 1 = 17.
  const WeightScheme s = WeightScheme::For(21, 6);
  EXPECT_NEAR(s.v_max, 1.0 + 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(s.quorum_weight, 17.0, 1e-9);
}

TEST(WeightedQuorumTime, PicksFastestQuorum) {
  // Weights 1, quorum 3: third-fastest arrival.
  std::vector<std::pair<double, double>> arrivals{
      {50, 1}, {10, 1}, {30, 1}, {20, 1}, {40, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 3.0, 0), 30.0);
}

TEST(WeightedQuorumTime, HeavyVotesFormQuorumFaster) {
  std::vector<std::pair<double, double>> arrivals{
      {10, 2}, {20, 2}, {100, 1}, {110, 1}, {120, 1}};
  // Quorum weight 4: two Vmax replicas at t = 20 suffice.
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 4.0, 0), 20.0);
  // Without weights it would need four arrivals (t = 110).
  std::vector<std::pair<double, double>> flat{
      {10, 1}, {20, 1}, {100, 1}, {110, 1}, {120, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(flat, 4.0, 0), 110.0);
}

TEST(WeightedQuorumTime, SkipFastestModelsMisbehavers) {
  std::vector<std::pair<double, double>> arrivals{
      {10, 1}, {20, 1}, {30, 1}, {40, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 0), 20.0);
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 1), 30.0);
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 2), 40.0);
  EXPECT_TRUE(std::isinf(WeightedQuorumTime(arrivals, 2.0, 3)));
}

TEST(AwareScore, UniformMatrixIsThreePhases) {
  // Uniform RTT r, uniform weights: propose r, prepared 2r, committed 3r.
  const uint32_t n = 13, f = 4;
  const WeightScheme s = WeightScheme::For(n, f);
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 0);
  EXPECT_DOUBLE_EQ(AwareRoundDurationMs(cfg, s, m, 0), 30.0);
}

TEST(AwareScore, LeaderPlacementMatters) {
  // Leader in the EU cluster beats a leader in an outlier city.
  const auto cities = NaEu43();
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix m(43);
  for (ReplicaId a = 0; a < 43; ++a) {
    for (ReplicaId b = 0; b < 43; ++b) {
      if (a != b) {
        m.Record(a, b, rtts[a][b]);
      }
    }
  }
  // f = 10 leaves Delta = 12 spare replicas, so weighted quorums can form
  // from well-placed Vmax holders — the regime Aware/WHEAT target.
  const uint32_t f = 10;
  const WeightScheme s = WeightScheme::For(43, f);
  double best = 1e18, worst = 0;
  for (ReplicaId leader = 0; leader < 43; ++leader) {
    RoleConfig cfg;
    cfg.leader = leader;
    cfg.weight_max.assign(43, 0);
    // Give Vmax to the leader and its 2f - 1 nearest peers.
    std::vector<std::pair<double, ReplicaId>> near;
    for (ReplicaId other = 0; other < 43; ++other) {
      near.emplace_back(other == leader ? 0.0 : m.Rtt(leader, other), other);
    }
    std::sort(near.begin(), near.end());
    for (uint32_t i = 0; i < 2 * f; ++i) {
      cfg.weight_max[near[i].second] = 1;
    }
    const double d = AwareRoundDurationMs(cfg, s, m, 0);
    best = std::min(best, d);
    worst = std::max(worst, d);
  }
  EXPECT_LT(best, 0.8 * worst);
}

TEST(AwareScore, UEstimateIncreasesPrediction) {
  const uint32_t n = 21, f = 6;
  const WeightScheme s = WeightScheme::For(n, f);
  const auto cities = Europe21();
  const auto rtts = RttMatrixMs(cities);
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        m.Record(a, b, rtts[a][b]);
      }
    }
  }
  const RoleConfig cfg = BasicConfig(n, f, 0);
  double prev = 0;
  for (uint32_t u = 0; u <= 4; ++u) {
    const double d = AwareRoundDurationMs(cfg, s, m, u);
    EXPECT_GE(d, prev) << "u=" << u;
    prev = d;
  }
}

TEST(AwareScore, TimeoutRequirementsTr1Tr2) {
  const uint32_t n = 13, f = 4;
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 2);
  // TR1: Propose timeout to A = L(leader, A).
  EXPECT_DOUBLE_EQ(AwareProposeTimeoutMs(cfg, m, 5), 10.0);
  EXPECT_DOUBLE_EQ(AwareProposeTimeoutMs(cfg, m, 2), 0.0);
  // TR2: Write from A to B = propose(A) + L(A, B).
  EXPECT_DOUBLE_EQ(AwareWriteTimeoutMs(cfg, m, 5, 7), 20.0);
  EXPECT_DOUBLE_EQ(AwareWriteTimeoutMs(cfg, m, 2, 7), 10.0);  // leader writes
}

TEST(AwareScore, Tr3RoundEqualsLeaderAcceptQuorum) {
  // d_rnd must equal the accept-quorum timeout at the leader (TR3), which is
  // exactly how AwareRoundDurationMs is built; cross-check on a uniform
  // matrix against AwareAcceptTimeoutMs.
  const uint32_t n = 13, f = 4;
  const WeightScheme s = WeightScheme::For(n, f);
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 0);
  // Accept from any non-leader B to the leader: prepared(B) + L(B, L) = 30.
  EXPECT_DOUBLE_EQ(AwareAcceptTimeoutMs(cfg, s, m, 1, 0, 0), 30.0);
  EXPECT_DOUBLE_EQ(AwareRoundDurationMs(cfg, s, m, 0), 30.0);
}

// --- The AwareRound kernel against the per-call formulas it replaced ---------

// Verbatim copies of the pre-kernel formulas: one fresh vector per quorum,
// sorted by value. The kernel must agree bit for bit (EXPECT_EQ on doubles).
double RefQuorumTime(std::vector<std::pair<double, double>> aw, double quorum,
                     uint32_t skip) {
  std::sort(aw.begin(), aw.end());
  double acc = 0.0;
  uint32_t skipped = 0;
  for (const auto& [arrival, weight] : aw) {
    if (skipped < skip) {
      ++skipped;
      continue;
    }
    acc += weight;
    if (acc >= quorum) {
      return arrival;
    }
  }
  return std::numeric_limits<double>::infinity();
}

double RefWrite(const RoleConfig& cfg, const LatencyMatrix& m, ReplicaId from,
                ReplicaId to) {
  const double propose = from == cfg.leader ? 0.0 : m.Rtt(cfg.leader, from);
  return propose + (from == to ? 0.0 : m.Rtt(from, to));
}

double RefAccept(const RoleConfig& cfg, const WeightScheme& s, const LatencyMatrix& m,
                 ReplicaId from, ReplicaId to, uint32_t u) {
  std::vector<std::pair<double, double>> aw;
  for (ReplicaId a = 0; a < s.n; ++a) {
    aw.emplace_back(RefWrite(cfg, m, a, from), WeightOf(cfg, s, a));
  }
  return RefQuorumTime(aw, s.quorum_weight, u) + (from == to ? 0.0 : m.Rtt(from, to));
}

double RefRound(const RoleConfig& cfg, const WeightScheme& s, const LatencyMatrix& m,
                uint32_t u) {
  std::vector<double> propose(s.n), prepared(s.n);
  for (ReplicaId a = 0; a < s.n; ++a) {
    propose[a] = a == cfg.leader ? 0.0 : m.Rtt(cfg.leader, a);
  }
  for (ReplicaId b = 0; b < s.n; ++b) {
    std::vector<std::pair<double, double>> aw;
    for (ReplicaId a = 0; a < s.n; ++a) {
      aw.emplace_back(a == b ? propose[a] : propose[a] + m.Rtt(a, b),
                      WeightOf(cfg, s, a));
    }
    prepared[b] = RefQuorumTime(aw, s.quorum_weight, u);
  }
  std::vector<std::pair<double, double>> accepts;
  for (ReplicaId b = 0; b < s.n; ++b) {
    accepts.emplace_back(
        b == cfg.leader ? prepared[b] : prepared[b] + m.Rtt(b, cfg.leader),
        WeightOf(cfg, s, b));
  }
  return RefQuorumTime(accepts, s.quorum_weight, u);
}

// Random matrix. `coarse` draws RTTs from {10, 20, 30} ms so many arrivals
// tie and the Vmax/Vmin weights of tied voters must be summed in one fixed
// order; some pairs are left unknown or reported unreachable (+inf).
LatencyMatrix RandomMatrix(uint32_t n, Rng& rng, bool coarse) {
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a == b || rng.Bernoulli(0.05)) {
        continue;
      }
      const double rtt = rng.Bernoulli(0.02) ? std::numeric_limits<double>::infinity()
                         : coarse            ? 10.0 * static_cast<double>(1 + rng.Below(3))
                                             : rng.Uniform(1.0, 150.0);
      m.Record(a, b, rtt);
    }
  }
  return m;
}

TEST(AwareRoundKernel, BitIdenticalToPerCallFormulas) {
  struct Shape {
    uint32_t n, f;
  };
  // Delta = 0 (uniform weights), and Delta > 0 with fractional Vmax.
  const Shape shapes[] = {{7, 2}, {13, 4}, {14, 3}, {21, 6}, {23, 5}};
  Rng rng(2024);
  AwareRound round;  // reused across every case, as the harness does
  size_t compared = 0;
  for (const Shape& shape : shapes) {
    const AwareConfigSpace space(shape.n, shape.f);
    const WeightScheme& s = space.scheme();
    const CandidateSet all = AllCandidates(shape.n);
    for (int trial = 0; trial < 6; ++trial) {
      const LatencyMatrix m = RandomMatrix(shape.n, rng, trial % 2 == 0);
      RoleConfig cfg = space.RandomConfig(all, rng);
      for (uint32_t u = 0; u <= shape.f; ++u) {
        cfg = space.Mutate(cfg, all, rng);
        ComputeAwareRound(cfg, s, m, u, round);
        const double d_rnd = RefRound(cfg, s, m, u);
        ASSERT_EQ(round.d_rnd, d_rnd);
        ASSERT_EQ(AwareRoundDurationMs(cfg, s, m, u), d_rnd);
        ASSERT_EQ(space.Score(cfg, m, u), d_rnd);
        for (ReplicaId a = 0; a < shape.n; ++a) {
          ASSERT_EQ(round.propose[a], AwareProposeTimeoutMs(cfg, m, a));
          ASSERT_EQ(round.prepared[a], RefAccept(cfg, s, m, a, a, u));
          for (ReplicaId b = 0; b < shape.n; ++b) {
            const double accept = RefAccept(cfg, s, m, a, b, u);
            ASSERT_EQ(AwareAcceptTimeoutMs(cfg, s, m, a, b, u), accept);
            ASSERT_EQ(AwareWriteTimeoutMs(cfg, m, a, b), RefWrite(cfg, m, a, b));
            if (a != b) {
              // The harness's cached forms of TR2.
              ASSERT_EQ(round.prepared[a] + m.Rtt(a, b), accept);
              ASSERT_EQ(round.propose[a] + m.Rtt(a, b), RefWrite(cfg, m, a, b));
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 10000u);
}

TEST(AwareRoundKernel, TiedMixedWeightsSumInPairOrder) {
  // Vmax = 1 + 2/3 is inexact in binary, so the running weight depends on
  // the order ties are summed in; WeightedQuorumTime must reach the same
  // answer from every input order, equal to the reference's.
  const WeightScheme s = WeightScheme::For(12, 3);  // Delta = 2
  std::vector<std::pair<double, double>> aw;
  for (int i = 0; i < 12; ++i) {
    aw.emplace_back(10.0 * (i % 3), i % 2 == 0 ? s.v_max : s.v_min);
  }
  Rng rng(77);
  for (int perm = 0; perm < 50; ++perm) {
    rng.Shuffle(aw);
    for (uint32_t skip = 0; skip <= 3; ++skip) {
      const double expected = RefQuorumTime(aw, s.quorum_weight, skip);
      std::vector<std::pair<double, double>> buffer = aw;
      EXPECT_EQ(WeightedQuorumTime(buffer, s.quorum_weight, skip), expected);
    }
  }
}

TEST(AwareSpace, RandomConfigsValid) {
  AwareConfigSpace space(21, 6);
  const CandidateSet k = AllCandidates(21);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const RoleConfig cfg = space.RandomConfig(k, rng);
    EXPECT_TRUE(space.Valid(cfg, k));
    uint32_t vmax = 0;
    for (uint8_t w : cfg.weight_max) {
      vmax += w;
    }
    EXPECT_EQ(vmax, 12u);  // 2f
    EXPECT_EQ(cfg.weight_max[cfg.leader], 1);
  }
}

TEST(AwareSpace, MutatePreservesValidity) {
  AwareConfigSpace space(21, 6);
  CandidateSet k;
  for (ReplicaId id = 0; id < 16; ++id) {
    k.candidates.push_back(id);
  }
  Rng rng(3);
  RoleConfig cfg = space.RandomConfig(k, rng);
  for (int i = 0; i < 300; ++i) {
    cfg = space.Mutate(cfg, k, rng);
    ASSERT_TRUE(space.Valid(cfg, k)) << "iteration " << i;
  }
}

TEST(AwareSpace, RejectsVmaxOutsideCandidates) {
  AwareConfigSpace space(13, 4);
  CandidateSet k;
  for (ReplicaId id = 0; id < 12; ++id) {
    k.candidates.push_back(id);
  }
  RoleConfig cfg;
  cfg.leader = 0;
  cfg.weight_max.assign(13, 0);
  cfg.weight_max[0] = 1;
  cfg.weight_max[12] = 1;  // 12 is not a candidate
  EXPECT_FALSE(space.Valid(cfg, k));
}

TEST(AwareSpace, RejectsNonCandidateLeader) {
  AwareConfigSpace space(13, 4);
  CandidateSet k;
  for (ReplicaId id = 1; id < 13; ++id) {
    k.candidates.push_back(id);
  }
  RoleConfig cfg;
  cfg.leader = 0;
  cfg.weight_max.assign(13, 0);
  EXPECT_FALSE(space.Valid(cfg, k));
}

}  // namespace
}  // namespace optilog
