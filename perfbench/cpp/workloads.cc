#include "perfbench/cpp/workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/crypto/cost_model.h"
#include "src/net/geo.h"
#include "src/runner/scenario.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace optilog::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload recipes --------------------------------------------------------

// aware_attack's deployment seed is fixed; the workload seed moves the
// attack onset instead. Seeding the deployment makes OptiAware's
// post-attack configuration search land on one of three configurations
// whose client p99 differs by up to 27% (80.1 / 84.7 / 102.9 ms), a spread
// across seeds that no regression bound could absorb.
constexpr uint64_t kAwareDeploymentSeed = 1;

constexpr uint32_t kTreeClients = 40;
constexpr double kTreeOfferedPerSec = 1200.0;

// One workload's deployment behind a uniform driving surface.
class Harness {
 public:
  Harness() = default;
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  virtual ~Harness() = default;
  virtual void Start() = 0;
  virtual void RunUntil(SimTime t) = 0;
  // Client-visible completions so far (requests, or committed transactions).
  virtual uint64_t Completed() = 0;
  // Called once when simulated time reaches the horizon.
  virtual void AtHorizon() {}
  virtual MetricsReport Metrics() = 0;
  virtual std::vector<TraceRecord> TraceRecords() const = 0;
  // Latency percentiles and attempted/completed after the drain.
  virtual void Finish(RunOutcome& out) = 0;
  virtual void Release(RunOutcome& out) = 0;
};

// ClientFleet workloads: attempted = requests first sent up to the horizon
// (RunUntil includes events at its bound); completed = those of them that
// reached their reply quorum by the end of the drain (a sample's send time
// is its completion time minus its latency). Latency percentiles are the
// fleet's own (MetricsReport).
class FleetHarness : public Harness {
 public:
  void AtHorizon() override {
    WorkloadReport r;
    fleet().FillReport(r);
    sent_at_horizon_ = r.requests_sent;
  }

  void Finish(RunOutcome& out) override {
    const ClientFleet& f = fleet();
    uint64_t completed = 0;
    for (uint32_t c = 0; c < f.size(); ++c) {
      for (const ClientSample& s : f.client(c).samples()) {
        completed += s.at - std::llround(s.latency_ms * kMsec) <= horizon_;
      }
    }
    const WorkloadReport& w = out.metrics.workload;
    out.attempted = sent_at_horizon_;
    out.completed = completed;
    out.p50_ms = w.latency_p50_ms;
    out.p99_ms = w.latency_p99_ms;
    out.p50_samples = out.p99_samples = w.requests_completed;
  }

 protected:
  explicit FleetHarness(SimTime horizon) : horizon_(horizon) {}
  virtual const ClientFleet& fleet() const = 0;

  const SimTime horizon_;
  uint64_t sent_at_horizon_ = 0;
};

class TreeWan : public FleetHarness {
 public:
  TreeWan(const WorkloadShape& shape, uint64_t seed, bool trace)
      : FleetHarness(shape.horizon) {
    WorkloadOptions w;
    w.clients = kTreeClients;
    w.arrival = ArrivalProcess::kOpenPoisson;
    w.rate_per_client = kTreeOfferedPerSec / kTreeClients;
    w.retry_timeout = 1 * kSec;
    w.batch.max_batch = 150;
    w.batch.max_delay = 20 * kMsec;
    w.batch.max_queue = 20'000;
    w.seed = seed;
    TreeRsmOptions topts;
    topts.pipeline_depth = 3;
    Deployment::Builder b;
    b.WithGeo(GlobalN(73))
        .WithProtocol(Protocol::kOptiTree)
        .WithSeed(seed)
        .WithTreeOptions(topts)
        .WithInitialSearch(AnnealingParams::ForBudget(shape.search_budget))
        .WithWorkload(w)
        .WithCryptoCostModel(CryptoCostModel::Ed25519Bls())
        .WithOptiLogReconfig(1 * kSec)
        .WithSimThreads(1);
    if (trace) {
      b.WithTrace();
    }
    d_ = b.Build();
    Deployment& d = *d_;
    for (SimTime at : shape.faults) {
      d.sim().ScheduleAt(at, [&d] {
        d.faults().Mutable(d.tree().topology().root()).crash_at = d.sim().now();
      });
    }
  }

  void Start() override { d_->Start(); }
  void RunUntil(SimTime t) override { d_->RunUntil(t); }
  uint64_t Completed() override { return d_->tree().fleet()->completed(); }
  MetricsReport Metrics() override { return d_->Metrics(); }
  std::vector<TraceRecord> TraceRecords() const override {
    return d_->TraceRecords();
  }
  void Release(RunOutcome& out) override { out.deployment = std::move(d_); }

 private:
  const ClientFleet& fleet() const override { return *d_->tree().fleet(); }

  std::unique_ptr<Deployment> d_;
};

class AwareAttack : public FleetHarness {
 public:
  // The workload seed reaches this workload only through the attack onset
  // in `shape`.
  AwareAttack(const WorkloadShape& shape, bool trace)
      : FleetHarness(shape.horizon) {
    PbftOptions opts;
    opts.delta = 1.5;
    opts.optimize_at = 40 * kSec;
    opts.seed = kAwareDeploymentSeed;
    Deployment::Builder b;
    b.WithGeo(Europe21())
        .WithProtocol(Protocol::kOptiAware)
        .WithSeed(kAwareDeploymentSeed)
        .WithPbftOptions(opts)
        .WithSimThreads(1);
    if (trace) {
      b.WithTrace();
    }
    d_ = b.Build();
    // The replica holding the leader role turns Byzantine: every
    // pre-prepare it sends is delayed, and it answers probes fast so the
    // latency matrix does not give it away.
    Deployment& d = *d_;
    for (SimTime at : shape.faults) {
      d.sim().ScheduleAt(at, [&d] {
        auto& f = d.faults().Mutable(d.pbft().config().leader);
        f.proposal_delay = 800 * kMsec;
        f.fast_probes = true;
      });
    }
  }

  void Start() override { d_->Start(); }
  void RunUntil(SimTime t) override { d_->RunUntil(t); }
  uint64_t Completed() override { return d_->pbft().fleet().completed(); }
  MetricsReport Metrics() override { return d_->Metrics(); }
  std::vector<TraceRecord> TraceRecords() const override {
    return d_->TraceRecords();
  }
  void Release(RunOutcome& out) override { out.deployment = std::move(d_); }

 private:
  const ClientFleet& fleet() const override { return d_->pbft().fleet(); }

  std::unique_ptr<Deployment> d_;
};

// Transaction fleet: clients stop issuing at the horizon (stop_at), so after
// the drain attempted = every transaction attempt and completed = the
// committed ones; aborted attempts count as failed.
class ShardTxn : public Harness {
 public:
  ShardTxn(const WorkloadShape& shape, uint64_t seed, bool trace) {
    WorkloadOptions w;
    w.arrival = ArrivalProcess::kClosedLoop;
    w.outstanding = 1;
    w.batch.max_batch = 32;
    w.batch.max_delay = 10 * kMsec;
    StateMachineOptions sm;
    sm.checkpoint.interval = 64;
    sm.checkpoint.truncate = true;
    TxnWorkloadOptions txn;
    txn.clients_per_shard = 6;
    txn.keys_per_txn = 2;
    txn.keys_per_client_shard = 8;
    txn.hot_pct = 10;
    txn.hot_keys = 8;
    txn.think_time = 5 * kMsec;
    txn.stop_at = shape.horizon;
    txn.seed = seed;
    Deployment::Builder b;
    b.WithGeo(Europe21())
        .WithReplicas(7, 2)
        .WithProtocol(Protocol::kHotStuff)
        .WithSeed(seed)
        .WithWorkload(w)
        .WithStateMachine(sm)
        .WithShards(8)
        .WithCrossShardRatio(0.10)
        .WithTxnWorkload(txn)
        .WithSimThreads(1);
    if (trace) {
      b.WithTrace();
    }
    sd_ = b.BuildSharded();
    // Shard 0's anchor replica (and the 2PC coordinator colocated with it)
    // crashes and comes back through state transfer.
    for (SimTime at : shape.faults) {
      sd_->shard(0).ScheduleCrash(sd_->Route(0), at, at + 3 * kSec);
    }
  }

  void Start() override { sd_->Start(); }
  void RunUntil(SimTime t) override { sd_->RunUntil(t); }
  uint64_t Completed() override { return sd_->txn_fleet()->committed(); }
  MetricsReport Metrics() override { return sd_->Metrics(); }
  std::vector<TraceRecord> TraceRecords() const override {
    return sd_->TraceRecords();
  }
  void Finish(RunOutcome& out) override {
    const TxnReport& t = out.metrics.txn;
    out.attempted = t.submitted;
    out.completed = t.committed;
    // TxnFleet keeps split histograms only: single-shard median,
    // cross-shard tail.
    out.p50_ms = t.single_p50_ms;
    out.p50_samples = t.committed_single;
    out.p99_ms = t.cross_shard_p99_ms;
    out.p99_samples = t.committed_cross;
  }
  void Release(RunOutcome& out) override { out.sharded = std::move(sd_); }

 private:
  std::unique_ptr<ShardedDeployment> sd_;
};

std::unique_ptr<Harness> Make(const WorkloadShape& shape, uint64_t seed,
                              bool trace) {
  if (shape.name == "tree_wan") {
    return std::make_unique<TreeWan>(shape, seed, trace);
  }
  if (shape.name == "shard_txn") {
    return std::make_unique<ShardTxn>(shape, seed, trace);
  }
  return std::make_unique<AwareAttack>(shape, trace);
}

// --- modeled metrics from the completion series ------------------------------

uint64_t SumBins(const std::vector<uint64_t>& bins, size_t from, size_t to) {
  uint64_t sum = 0;
  for (size_t i = from; i < std::min(to, bins.size()); ++i) {
    sum += bins[i];
  }
  return sum;
}

// Seconds from the fault until the first full second (sliding in kStep
// increments) whose completions reach half the mean rate over the ten
// seconds before the fault; capped at the end of the run. Half, not 90%:
// under a closed loop the configuration chosen after the fault can be
// legitimately slower than the optimized one the fault removed (the
// aware_attack deployment seeded with 7919 settles at 84% of its pre-attack
// rate), so a 90% bar would read "never recovered" although service
// resumed.
double RecoverySeconds(const std::vector<uint64_t>& bins, SimTime fault) {
  const size_t per_sec = static_cast<size_t>(kSec / kStep);
  const size_t f = static_cast<size_t>(fault / kStep);
  const size_t pre_from = f >= 10 * per_sec ? f - 10 * per_sec : 0;
  const double pre_rate = static_cast<double>(SumBins(bins, pre_from, f)) /
                          (static_cast<double>(f - pre_from) / per_sec);
  size_t k = static_cast<size_t>((fault + kStep - 1) / kStep);
  while (k + per_sec <= bins.size() &&
         static_cast<double>(SumBins(bins, k, k + per_sec)) < 0.5 * pre_rate) {
    ++k;
  }
  return ToSec(static_cast<SimTime>(k) * kStep - fault);
}

}  // namespace

// Traced runs are shorter where the flight recorder's buffer (48 bytes per
// record, about 4 records per event on tree_wan) would otherwise reach
// gigabytes; they keep every fault of the full shape.
WorkloadShape ShapeOf(const std::string& name, bool traced, uint64_t seed) {
  WorkloadShape s;
  s.name = name;
  if (name == "tree_wan") {
    s.horizon = (traced ? 120 : 600) * kSec;
    s.drain = 10 * kSec;
    s.warmup = 5 * kSec;
    s.faults = {s.horizon / 3, 2 * s.horizon / 3};
    // A larger budget than the default makes the annealed tree, and with it
    // p50/p99, nearly seed-independent (p50 spread across seeds ~10% at
    // 5 000 iterations, ~2% at 50 000).
    s.search_budget = 50'000;
  } else if (name == "shard_txn") {
    s.horizon = 60 * kSec;
    s.drain = 5 * kSec;
    s.warmup = 2 * kSec;
    // The crash starts in [30 s, 31 s), at a millisecond drawn from the
    // seed.
    s.faults = {s.horizon / 2 +
                static_cast<SimTime>(Rng(seed).Below(1000)) * kMsec};
  } else {
    OL_CHECK_MSG(name == "aware_attack", name.c_str());
    s.horizon = (traced ? 100 : 120) * kSec;
    s.drain = 5 * kSec;
    s.warmup = 5 * kSec;
    // The attack starts in [82 s, 83 s), at a millisecond drawn from the
    // seed.
    s.faults = {82 * kSec + static_cast<SimTime>(Rng(seed).Below(1000)) * kMsec};
  }
  return s;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"tree_wan", "shard_txn",
                                                 "aware_attack"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& n = WorkloadNames();
  return std::find(n.begin(), n.end(), name) != n.end();
}

RunOutcome RunWorkload(const WorkloadShape& shape, uint64_t seed, bool trace,
                       bool keep) {
  RunOutcome out;
  out.shape = shape;

  auto t0 = Clock::now();
  std::unique_ptr<Harness> h = Make(shape, seed, trace);
  h->Start();
  out.setup_s = SecondsSince(t0);

  t0 = Clock::now();
  uint64_t last = 0;
  for (SimTime t = kStep; t <= shape.horizon + shape.drain; t += kStep) {
    h->RunUntil(t);
    const uint64_t done = h->Completed();
    out.completions.push_back(done - last);
    last = done;
    if (t == shape.horizon) {
      h->AtHorizon();
    }
  }
  out.run_s = SecondsSince(t0);

  out.metrics = h->Metrics();
  out.fingerprint = MetricsFingerprint(out.metrics);
  if (trace) {
    out.records = h->TraceRecords();
  }
  h->Finish(out);

  const size_t from = static_cast<size_t>(shape.warmup / kStep);
  const size_t to = static_cast<size_t>(shape.horizon / kStep);
  out.ops_per_s = static_cast<double>(SumBins(out.completions, from, to)) /
                  ToSec(shape.horizon - shape.warmup);
  out.fail_ratio =
      out.attempted > 0
          ? static_cast<double>(out.attempted - std::min(out.completed,
                                                         out.attempted)) /
                static_cast<double>(out.attempted)
          : 1.0;
  double recovery = 0.0;
  for (SimTime fault : shape.faults) {
    recovery += RecoverySeconds(out.completions, fault);
  }
  out.recovery_s = recovery / static_cast<double>(shape.faults.size());

  const MetricsReport& m = out.metrics;
  out.kv_mismatches = m.workload.kv_mismatches + m.txn.kv_mismatches;
  out.has_state_machine = m.statemachine.enabled;
  out.digests_equal = m.statemachine.digests_equal;
  if (keep) {
    h->Release(out);
  }
  return out;
}

double SetupOnce(const std::string& name, uint64_t seed) {
  const WorkloadShape shape = ShapeOf(name, /*traced=*/false, seed);
  const auto t0 = Clock::now();
  std::unique_ptr<Harness> h = Make(shape, seed, /*trace=*/false);
  h->Start();
  return SecondsSince(t0);
}

}  // namespace optilog::perfbench
