#include "perfbench/cpp/layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <tuple>

#include "src/aware/aware_score.h"
#include "src/core/config_search.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/obs/stage_breakdown.h"
#include "src/rsm/log.h"
#include "src/sim/actor.h"
#include "src/statemachine/state_machine.h"
#include "src/tree/kauri.h"
#include "src/wire/codec.h"
#include "src/workload/request_queue.h"

namespace optilog::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps a computed value observable so timed loops are not folded away.
volatile uint64_t g_sink = 0;

// Median over `batches` timed batches of `body(batch)`, in ns per unit,
// where each batch performs `units` units of work.
template <typename Body>
double NsPerUnit(int batches, double units, Body&& body) {
  std::vector<double> per_unit;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    body(b);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    per_unit.push_back(ns / units);
  }
  return Median(per_unit);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- inputs shaped by the traced run -----------------------------------------

Deployment& FirstGroup(const RunOutcome& r) {
  return r.deployment != nullptr ? *r.deployment : r.sharded->shard(0);
}

// A decodable instance of each message kind the run sent: the shortest
// all-zero canonical body the codec accepts (blobs and batches empty).
MessagePtr SampleMessage(uint16_t tag) {
  Bytes frame = {static_cast<uint8_t>(tag >> 8), static_cast<uint8_t>(tag)};
  for (size_t len = 0; len <= 4096; ++len) {
    frame.resize(2 + len, 0);
    if (MessagePtr m = DecodeMessage(frame)) {
      return m;
    }
  }
  return nullptr;
}

// One replayable send: sender, message kind and recipients (one for Send,
// several for Multicast).
struct TracedSend {
  ReplicaId from = kNoReplica;
  uint16_t tag = 0;
  std::vector<ReplicaId> to;
};

struct SendMix {
  std::map<uint16_t, uint64_t> count;     // sends per message kind
  std::map<uint16_t, MessagePtr> sample;  // decodable instance per kind
  std::vector<TracedSend> replay;         // from the first kMaxReplay groups
  uint64_t sends = 0;
};

constexpr size_t kMaxReplay = 200'000;

// Send records carry the recipient (Send) or the fan-out size (Multicast);
// delivery dispatch records carry the recipient and parent to the handler
// that sent. So sends are regrouped by (sending handler, sender, kind): a
// group with one send record and several deliveries was a Multicast, any
// other group is replayed as one Send per delivered copy.
SendMix SendMixOf(const std::vector<TraceRecord>& records) {
  using Key = std::tuple<uint64_t, uint32_t, uint16_t>;
  struct Group {
    uint32_t sends = 0;
    std::vector<ReplicaId> to;
  };
  SendMix mix;
  std::map<Key, Group> groups;
  std::vector<Key> order;
  for (const TraceRecord& r : records) {
    if (r.kind == static_cast<uint16_t>(TraceKind::kMsgSend)) {
      ++mix.sends;
      auto it = mix.sample.find(r.type);
      if (it == mix.sample.end()) {
        it = mix.sample.emplace(r.type, SampleMessage(r.type)).first;
      }
      if (it->second == nullptr) {
        continue;
      }
      ++mix.count[r.type];
      const Key key{r.parent, r.actor, r.type};
      auto g = groups.find(key);
      if (g == groups.end() && order.size() < kMaxReplay) {
        g = groups.emplace(key, Group{}).first;
        order.push_back(key);
      }
      if (g != groups.end()) {
        ++g->second.sends;
      }
    } else if (r.kind == static_cast<uint16_t>(TraceKind::kDispatchDelivery)) {
      auto g = groups.find(
          Key{r.parent, static_cast<uint32_t>(r.a), r.type});
      if (g != groups.end()) {
        g->second.to.push_back(r.actor);
      }
    }
  }
  for (const Key& key : order) {
    Group& g = groups.at(key);
    const ReplicaId from = std::get<1>(key);
    const uint16_t tag = std::get<2>(key);
    if (g.sends == 1 && g.to.size() > 1) {
      mix.replay.push_back({from, tag, std::move(g.to)});
      continue;
    }
    for (ReplicaId to : g.to) {
      mix.replay.push_back({from, tag, {to}});
    }
  }
  return mix;
}

// --- per-layer probes ---------------------------------------------------------

class NullActor : public Actor {
 public:
  void OnMessage(ReplicaId, const MessagePtr&, SimTime) override {}
};

// Network::Send / Multicast, replaying the traced (from, kind, recipients)
// stream on a fresh Network over the run's latency and fault models, with
// no-op actors behind it. Deliveries are drained (untimed) whenever about as
// many are pending as the run itself kept in flight, so the scheduler works
// at the run's occupancy. Returns ns per send call, median of three passes.
double SendNs(const Network& run_net, const SendMix& mix, size_t pending) {
  Simulator sim;
  std::map<ReplicaId, NullActor> sinks;  // outlives the network that holds them
  Network net(&sim, run_net.latency(), run_net.faults());
  net.SetBandwidthBps(run_net.bandwidth_bps());
  if (const CpuMeter* cpu = run_net.cpu()) {
    net.EnableCpuCost(cpu->model());
  }
  for (const TracedSend& s : mix.replay) {
    for (ReplicaId id : s.to) {
      net.Register(id, &sinks[id]);
    }
    net.Register(s.from, &sinks[s.from]);
  }
  pending = std::max<size_t>(pending, 64);
  std::vector<double> per_send;
  for (int pass = 0; pass < 3 && !mix.replay.empty(); ++pass) {
    double ns = 0.0;
    size_t i = 0;
    while (i < mix.replay.size()) {
      size_t copies = 0;
      const auto t0 = Clock::now();
      for (; i < mix.replay.size() && copies < pending; ++i) {
        const TracedSend& s = mix.replay[i];
        if (s.to.size() == 1) {
          net.Send(s.from, s.to[0], mix.sample.at(s.tag));
        } else {
          net.Multicast(s.from, s.to, mix.sample.at(s.tag));
        }
        copies += s.to.size();
      }
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      sim.RunAll();
    }
    per_send.push_back(ns / static_cast<double>(mix.replay.size()));
  }
  return per_send.empty() ? 0.0 : Median(per_send);
}

// EncodeMessage / DecodeMessage per message, weighted by the send mix.
std::pair<double, double> CodecNs(const SendMix& mix) {
  double enc = 0.0;
  double dec = 0.0;
  uint64_t total = 0;
  for (const auto& [tag, n] : mix.count) {
    const Message& m = *mix.sample.at(tag);
    const Bytes frame = EncodeMessage(m);
    constexpr int kCalls = 20'000;
    enc += static_cast<double>(n) * NsPerUnit(5, kCalls, [&](int) {
             for (int i = 0; i < kCalls; ++i) {
               g_sink = g_sink + EncodeMessage(m).size();
             }
           });
    dec += static_cast<double>(n) * NsPerUnit(5, kCalls, [&](int) {
             for (int i = 0; i < kCalls; ++i) {
               g_sink = g_sink + (DecodeMessage(frame) != nullptr);
             }
           });
    total += n;
  }
  return {Ratio(enc, static_cast<double>(total)),
          Ratio(dec, static_cast<double>(total))};
}

double Sha256NsPerKb() {
  const Bytes kb(1024, 0xab);
  constexpr int kCalls = 2'000;
  return NsPerUnit(5, kCalls, [&](int) {
    for (int i = 0; i < kCalls; ++i) {
      Sha256 h;
      h.Update(kb);
      g_sink = g_sink + h.Finish()[0];
    }
  });
}

double HmacShortNs() {
  const Bytes key(32, 0x11);
  const Bytes msg(64, 0x22);
  constexpr int kCalls = 20'000;
  return NsPerUnit(5, kCalls, [&](int) {
    for (int i = 0; i < kCalls; ++i) {
      g_sink = g_sink + HmacSha256(key, msg)[0];
    }
  });
}

std::vector<ReplicaId> AllReplicas(uint32_t n) {
  std::vector<ReplicaId> all(n);
  for (uint32_t i = 0; i < n; ++i) {
    all[i] = i;
  }
  return all;
}

// One AwareConfigSpace search (default annealing budget) over the run's
// final latency matrix: the PBFT harness's measured one, else the group's.
double AwareSearchMs(Deployment& d, uint64_t seed) {
  const LatencyMatrix& matrix =
      IsTreeProtocol(d.protocol()) ? d.matrix() : d.pbft().matrix();
  AwareConfigSpace space(d.n(), d.f());
  CandidateSet all;
  all.candidates = AllReplicas(d.n());
  return NsPerUnit(3, 1e6, [&](int b) {
    ConfigSensor sensor(0, &space, Rng(seed + static_cast<uint64_t>(b)));
    g_sink = g_sink + sensor.Search(all, matrix).has_value();
  });
}

// One OptiTree simulated-annealing search at the workload's budget over the
// group's latency matrix (k = 2f + 1, all replicas eligible).
double TreeSearchMs(Deployment& d, uint64_t budget, uint64_t seed) {
  const std::vector<ReplicaId> all = AllReplicas(d.n());
  const AnnealingParams params = AnnealingParams::ForBudget(budget);
  return NsPerUnit(3, 1e6, [&](int b) {
    Rng rng(seed + static_cast<uint64_t>(b));
    const TreeTopology t =
        AnnealTree(d.n(), all, d.matrix(), 2 * d.f() + 1, rng, params);
    g_sink = g_sink + t.root();
  });
}

// RequestQueue::Push / PopBatch replaying the run's admitted (client,
// request id, shard) stream, popping a batch whenever the run's mean batch
// size is waiting. Returns ns per admitted request.
double QueueNs(const std::vector<TraceRecord>& records, BatchPolicy policy,
               size_t batch) {
  std::vector<RequestRef> stream;
  for (const TraceRecord& r : records) {
    if (r.kind == static_cast<uint16_t>(TraceKind::kQueueAdmit)) {
      RequestRef req;
      req.client = static_cast<ReplicaId>(r.b);
      req.request_id = r.a;
      req.shard = static_cast<uint32_t>(r.id >> 48);
      req.sent_at = r.t;
      stream.push_back(std::move(req));
    }
  }
  if (stream.empty()) {
    return 0.0;
  }
  batch = std::max<size_t>(1, batch);
  policy.max_batch = static_cast<uint32_t>(batch);
  policy.max_queue = stream.size() + 1;
  return NsPerUnit(5, static_cast<double>(stream.size()), [&](int) {
    RequestQueue q(policy);
    for (const RequestRef& req : stream) {
      g_sink = g_sink + static_cast<uint64_t>(q.Push(req, req.sent_at));
      if (q.depth() >= batch) {
        g_sink = g_sink + q.PopBatch(req.sent_at, BatchTrigger::kSize).size();
      }
    }
  });
}

// The benchmark's KV operation mix (25% get / 50% put / 25% add) over a
// fixed key range, drawn from the seed.
KvOp DrawOp(Rng& rng, uint64_t keys) {
  KvOp op;
  op.key = rng.Below(static_cast<uint32_t>(keys));
  const uint64_t draw = rng.Below(100);
  op.kind = draw < 25 ? KvOpKind::kGet
                      : (draw < 75 ? KvOpKind::kPut : KvOpKind::kAdd);
  op.arg = 1 + rng.Below(1000);
  return op;
}

struct ApplyProbe {
  double apply_ns = 0.0;    // per applied record
  double snapshot_ms = 0.0;  // SnapshotBytes + StateDigest of the result
};

// KvStateMachine::Apply on encoded records: plain KvOps for single-group
// workloads; for the transaction workload kMulti records for single-shard
// transactions and kPrepare + kCommit pairs for the cross-shard share the
// run committed. Records are encoded before timing.
ApplyProbe ApplyNs(const TxnReport& txn, uint64_t seed) {
  constexpr int kRecords = 50'000;
  constexpr uint64_t kKeys = 4096;
  const double cross = Ratio(static_cast<double>(txn.committed_cross),
                             static_cast<double>(txn.committed));
  Rng rng(seed);
  uint64_t txn_id = 0;
  std::vector<Bytes> stream;
  while (stream.size() < kRecords) {
    if (!txn.enabled) {
      stream.push_back(DrawOp(rng, kKeys).Encode());
      continue;
    }
    KvTxnOp t;
    t.ops = {DrawOp(rng, kKeys), DrawOp(rng, kKeys)};
    if (rng.Uniform() < cross) {
      t.tag = TxnTag::kPrepare;
      t.txn_id = ++txn_id;
      t.participants = {0, 1};
      stream.push_back(t.Encode());
      KvTxnOp commit;
      commit.tag = TxnTag::kCommit;
      commit.txn_id = txn_id;
      stream.push_back(commit.Encode());
    } else {
      t.tag = TxnTag::kMulti;
      stream.push_back(t.Encode());
    }
  }
  ApplyProbe out;
  KvStateMachine sm;
  out.apply_ns = NsPerUnit(5, static_cast<double>(stream.size()), [&](int) {
    sm.Reset();
    for (const Bytes& record : stream) {
      g_sink = g_sink + sm.Apply(record).size();
    }
  });
  out.snapshot_ms = NsPerUnit(5, 1e6, [&](int) {
    g_sink = g_sink + sm.SnapshotBytes().size() + sm.StateDigest()[0];
  });
  return out;
}

// Log::Append of command batches shaped like the run's (mean batch size,
// 32 payload bytes per command), truncating every 64 entries as the
// checkpointing workload does.
double AppendNs(size_t batch) {
  constexpr int kEntries = 20'000;
  batch = std::max<size_t>(1, batch);
  return NsPerUnit(5, kEntries, [&](int) {
    Log log;
    for (int i = 0; i < kEntries; ++i) {
      LogEntry e;
      e.kind = EntryKind::kCommandBatch;
      e.batch_size = static_cast<uint32_t>(batch);
      e.payload.assign(batch * 32, static_cast<uint8_t>(i));
      log.Append(std::move(e));
      if (log.size() >= 64) {
        log.TruncateTo(log.next_index());
      }
    }
    g_sink = g_sink + log.head()[0];
  });
}

}  // namespace

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<Metric> LayerMetrics(const RunOutcome& plain,
                                 const RunOutcome& traced, uint64_t seed) {
  const MetricsReport& m = traced.metrics;
  const double ops = static_cast<double>(traced.completed);
  const double events = static_cast<double>(m.event_core.events_executed);
  Deployment& group = FirstGroup(traced);
  const bool tree = IsTreeProtocol(group.protocol());
  const size_t batch = static_cast<size_t>(std::llround(
      Ratio(static_cast<double>(m.total_commands),
            static_cast<double>(m.committed))));
  const uint64_t replicas = group.n();

  const SendMix mix = SendMixOf(traced.records);
  const auto [encode_ns, decode_ns] = CodecNs(mix);
  const double send_ns =
      SendNs(group.net(), mix, m.event_core.peak_pending);
  const RequestQueue* queue = tree ? group.tree().request_queue()
                                  : group.pbft().request_queue();
  const double push_ns = QueueNs(traced.records, queue->policy(), batch);
  const ApplyProbe apply = ApplyNs(m.txn, seed);
  const double append_ns = AppendNs(batch);
  const double aware_ms = AwareSearchMs(group, seed);
  const double tree_ms =
      TreeSearchMs(group, traced.shape.search_budget, seed);
  const StageBreakdown sb = ComputeStageBreakdown(traced.records);
  const double chains = static_cast<double>(sb.requests);
  const uint64_t admits = static_cast<uint64_t>(std::count_if(
      traced.records.begin(), traced.records.end(), [](const TraceRecord& r) {
        return r.kind == static_cast<uint16_t>(TraceKind::kQueueAdmit);
      }));
  const uint64_t aware_searches = tree ? 0 : m.reconfigurations;
  const uint64_t tree_searches = tree ? m.reconfigurations : 0;
  // Every replica of a state-machine group applies and logs every command.
  const double applies =
      m.statemachine.enabled ? static_cast<double>(m.total_commands * replicas)
                             : 0.0;
  const double appends =
      m.statemachine.enabled ? static_cast<double>(m.committed * replicas) : 0.0;

  std::vector<Metric> out = {
      {"sim.events_per_op", Ratio(events, ops), "count"},
      {"sim.ns_per_event", Ratio(plain.run_s * 1e9, events), "ns"},
      {"sim.pool_hit_ratio", m.event_core.message_pool_hit_rate(), "ratio"},
      {"sim.peak_pending", static_cast<double>(m.event_core.peak_pending),
       "count"},
      {"net.msgs_per_op", Ratio(static_cast<double>(m.wire_messages), ops),
       "count"},
      {"net.bytes_per_op", Ratio(static_cast<double>(m.wire_bytes), ops), "B"},
      {"net.send_ns", send_ns, "ns"},
      {"wire.encode_ns", encode_ns, "ns"},
      {"wire.decode_ns", decode_ns, "ns"},
      {"crypto.hashes_per_op", Ratio(static_cast<double>(m.crypto.hashes), ops),
       "count"},
      {"crypto.verifies_per_op",
       Ratio(static_cast<double>(m.crypto.verifies), ops), "count"},
      {"crypto.sha256_ns_per_kb", Sha256NsPerKb(), "ns"},
      {"crypto.hmac_short_ns", HmacShortNs(), "ns"},
      {"crypto.busy_max_ms",
       static_cast<double>(m.crypto.busy_ns_max_replica) / 1e6, "ms"},
      {"hotstuff.failed_rounds", static_cast<double>(m.failed_rounds), "count"},
      {"pbft.msgs_per_instance",
       tree ? 0.0
            : Ratio(static_cast<double>(m.wire_messages),
                    static_cast<double>(m.committed)),
       "count"},
      {"aware.search_ms", aware_ms, "ms"},
      {"aware.searches", static_cast<double>(aware_searches), "count"},
      {"core.tree_search_ms", tree_ms, "ms"},
      {"core.suspicions", static_cast<double>(m.suspicions), "count"},
      {"core.reconfigs", static_cast<double>(m.reconfigurations), "count"},
      {"workload.push_ns", push_ns, "ns"},
      {"workload.ops_per_batch", static_cast<double>(batch), "count"},
      {"workload.peak_queue", static_cast<double>(m.workload.peak_queue_depth),
       "count"},
      {"statemachine.apply_ns", apply.apply_ns, "ns"},
      {"statemachine.applies_per_op",
       Ratio(static_cast<double>(m.statemachine.applied), ops), "count"},
      {"statemachine.snapshot_ms", apply.snapshot_ms, "ms"},
      {"rsm.append_ns", append_ns, "ns"},
      {"rsm.peak_log_entries",
       static_cast<double>(m.statemachine.peak_log_entries), "count"},
      {"shard.prepares_per_xtxn",
       Ratio(static_cast<double>(m.txn.prepares_sent),
             static_cast<double>(m.txn.committed_cross)),
       "count"},
      {"shard.abort_ratio",
       Ratio(static_cast<double>(m.txn.aborted),
             static_cast<double>(m.txn.submitted)),
       "ratio"},
      {"shard.votes_no", static_cast<double>(m.txn.votes_no), "count"},
      {"stage.client_net_ms", Ratio(sb.client_net_ms, chains), "ms"},
      {"stage.queue_ms", Ratio(sb.queue_ms, chains), "ms"},
      {"stage.consensus_ms", Ratio(sb.consensus_ms, chains), "ms"},
      {"stage.apply_ms", Ratio(sb.apply_ms, chains), "ms"},
      {"stage.reply_ms", Ratio(sb.reply_ms, chains), "ms"},
      {"obs.trace_overhead", Ratio(traced.run_s, plain.run_s), "ratio"},
      {"obs.records_per_event",
       Ratio(static_cast<double>(traced.records.size()), events), "count"},
      {"obs.chain_complete_ratio",
       Ratio(chains, static_cast<double>(sb.requests + sb.incomplete)),
       "ratio"},
  };

  // Host-time attribution of the untraced run: measured ns per call times
  // the run's call count, for the layers whose calls are observable.
  const double host_net = send_ns * static_cast<double>(mix.sends) / 1e6;
  const double host_workload = push_ns * static_cast<double>(admits) / 1e6;
  const double host_sm = apply.apply_ns * applies / 1e6;
  const double host_rsm = append_ns * appends / 1e6;
  const double host_aware = aware_ms * static_cast<double>(aware_searches);
  const double host_core = tree_ms * static_cast<double>(tree_searches);
  const double attributed =
      host_net + host_workload + host_sm + host_rsm + host_aware + host_core;
  out.push_back({"host_ms.net", host_net, "ms"});
  out.push_back({"host_ms.workload", host_workload, "ms"});
  out.push_back({"host_ms.statemachine", host_sm, "ms"});
  out.push_back({"host_ms.rsm", host_rsm, "ms"});
  out.push_back({"host_ms.aware", host_aware, "ms"});
  out.push_back({"host_ms.core", host_core, "ms"});
  out.push_back(
      {"host_ms.unattributed", plain.run_s * 1e3 - attributed, "ms"});
  return out;
}

}  // namespace optilog::perfbench
