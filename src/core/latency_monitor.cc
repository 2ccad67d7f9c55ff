#include "src/core/latency_monitor.h"

namespace optilog {

size_t LatencyMatrix::known_pairs() const {
  const size_t total = static_cast<size_t>(n_) * (n_ > 0 ? n_ - 1 : 0) / 2;
  return city_stride_ != 0 ? total : known_pairs_;  // the baseline covers every pair
}

double LatencyMatrix::Coverage() const {
  if (n_ < 2) {
    return 1.0;
  }
  const size_t total = static_cast<size_t>(n_) * (n_ - 1) / 2;
  return static_cast<double>(known_pairs()) / static_cast<double>(total);
}

void LatencyMonitor::OnLatencyVector(const LatencyVectorRecord& rec) {
  if (rec.reporter >= matrix_.size()) {
    return;  // Byzantine garbage: ignore but keep the log record for forensics.
  }
  const size_t limit = std::min<size_t>(rec.rtt_units.size(), matrix_.size());
  for (size_t peer = 0; peer < limit; ++peer) {
    if (peer == rec.reporter) {
      continue;
    }
    matrix_.Record(rec.reporter, static_cast<ReplicaId>(peer),
                   DecodeRttMs(rec.rtt_units[peer]));
  }
  ++vectors_applied_;
}

}  // namespace optilog
