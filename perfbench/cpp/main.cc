// perfbench_bin: runs one benchmark workload and prints its metrics.
//
//   perfbench_bin --workload tree_wan|shard_txn|aware_attack
//                    --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the untraced workload from the same seed for S seconds
// and reports the end-to-end metrics (host times as medians over the
// repeats; modeled metrics are exact for the seed). --trace 1 runs the
// workload untraced and traced and reports the per-layer metrics. The last
// line of stdout is one JSON object {correct, attempted, failed, metrics};
// lines before it are human-readable detail.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/cpp/layers.h"
#include "perfbench/cpp/workloads.h"

namespace optilog::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a->trace = std::atoi(val.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkload(a->workload) && have_seed &&
         a->seconds > 0.0 && (a->trace == 0 || a->trace == 1);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// The build this binary was compiled with: the flags are the ones CMake
// used for the linked liboptilog (see perfbench/CMakeLists.txt).
void PrintProvenance(const Args& a) {
  std::printf("# build: compiler=%s build_type=%s\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  std::printf("# build: flags=%s\n", PERFBENCH_CXX_FLAGS);
  std::printf("# host: nproc=%ld cpu=%s\n", sysconf(_SC_NPROCESSORS_ONLN),
              CpuModel().c_str());
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace);
}

void PrintOutcome(const RunOutcome& o) {
  std::printf(
      "# modeled: ops_per_s=%.3f p50_ms=%.3f (n=%llu) p99_ms=%.3f (n=%llu) "
      "attempted=%llu completed=%llu fail_ratio=%.6f recovery_s=%.2f\n",
      o.ops_per_s, o.p50_ms, static_cast<unsigned long long>(o.p50_samples),
      o.p99_ms, static_cast<unsigned long long>(o.p99_samples),
      static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.completed), o.fail_ratio,
      o.recovery_s);
  std::printf(
      "# checks: fingerprint=%s kv_mismatches=%llu state_machine=%d "
      "digests_equal=%u events=%llu\n",
      o.fingerprint.c_str(), static_cast<unsigned long long>(o.kv_mismatches),
      o.has_state_machine ? 1 : 0, o.digests_equal,
      static_cast<unsigned long long>(o.metrics.event_core.events_executed));
}

// Gate checks that need one run only. Returns "" or the first failure.
std::string CheckRun(const RunOutcome& o) {
  if (o.kv_mismatches != 0) {
    return "kv_mismatches != 0";
  }
  if (o.has_state_machine && o.digests_equal != 1) {
    return "digests_equal != 1";
  }
  if (o.completed == 0) {
    return "no completed requests";
  }
  return "";
}

// Requests or transaction attempts that never got any answer.
uint64_t Unanswered(const RunOutcome& o) {
  const uint64_t answered = o.completed + o.metrics.txn.aborted;
  return o.attempted > answered ? o.attempted - answered : 0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

constexpr int kMinRepeats = 3;
// Set-up is sampled at least this often and for at least this long, so
// millisecond-scale set-ups still get a steady median.
constexpr size_t kMinSetupSamples = 15;
constexpr double kMinSetupSeconds = 1.0;
constexpr size_t kMaxSetupSamples = 2000;

int Untraced(const Args& a) {
  const auto t0 = Clock::now();
  const WorkloadShape shape = ShapeOf(a.workload, /*traced=*/false, a.seed);
  const RunOutcome first = RunWorkload(shape, a.seed, false, false);
  PrintOutcome(first);
  std::string failure = CheckRun(first);
  std::vector<double> run_s = {first.run_s};
  std::vector<double> setup_s = {first.setup_s};
  uint64_t attempted = first.attempted;
  uint64_t unanswered = Unanswered(first);
  // Repeat while another repeat still fits in the budget.
  double last = std::chrono::duration<double>(Clock::now() - t0).count();
  double elapsed = last;
  while (static_cast<int>(run_s.size()) < kMinRepeats ||
         elapsed + last <= a.seconds) {
    const RunOutcome o = RunWorkload(shape, a.seed, false, false);
    const double now = std::chrono::duration<double>(Clock::now() - t0).count();
    last = now - elapsed;
    elapsed = now;
    if (failure.empty() && o.fingerprint != first.fingerprint) {
      failure = "fingerprint differs between repeats of one seed";
    }
    run_s.push_back(o.run_s);
    setup_s.push_back(o.setup_s);
    attempted += o.attempted;
    unanswered += Unanswered(o);
  }
  double setup_total = 0.0;
  for (double s : setup_s) {
    setup_total += s;
  }
  while ((setup_s.size() < kMinSetupSamples || setup_total < kMinSetupSeconds) &&
         setup_s.size() < kMaxSetupSamples) {
    setup_s.push_back(SetupOnce(a.workload, a.seed));
    setup_total += setup_s.back();
  }
  std::printf("# repeats=%zu setup_samples=%zu run_s[min,max]=[%.4f,%.4f]\n",
              run_s.size(), setup_s.size(),
              *std::min_element(run_s.begin(), run_s.end()),
              *std::max_element(run_s.begin(), run_s.end()));
  const bool correct = failure.empty();
  if (!correct) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }
  const std::vector<Metric> metrics = {
      {"run_s", Median(run_s), "s"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ops_per_s", first.ops_per_s, "1/s"},
      {"p50_ms", first.p50_ms, "ms"},
      {"p99_ms", first.p99_ms, "ms"},
      {"completed_ratio", 1.0 - first.fail_ratio, "ratio"},
      {"recovery_s", first.recovery_s, "s"},
  };
  PrintResult(correct, attempted, correct ? unanswered : attempted, metrics);
  return 0;
}

int Traced(const Args& a) {
  const auto t0 = Clock::now();
  const WorkloadShape shape = ShapeOf(a.workload, /*traced=*/true, a.seed);
  RunOutcome plain = RunWorkload(shape, a.seed, false, false);
  std::string failure = CheckRun(plain);
  // Untraced repeats for a steadier traced/untraced overhead ratio; the
  // per-layer probes below take the rest of the budget.
  std::vector<double> run_s = {plain.run_s};
  while (std::chrono::duration<double>(Clock::now() - t0).count() <
         a.seconds / 3) {
    const RunOutcome o = RunWorkload(shape, a.seed, false, false);
    if (failure.empty() && o.fingerprint != plain.fingerprint) {
      failure = "fingerprint differs between repeats of one seed";
    }
    run_s.push_back(o.run_s);
  }
  plain.run_s = Median(run_s);

  const RunOutcome traced = RunWorkload(shape, a.seed, true, true);
  PrintOutcome(traced);
  if (failure.empty()) {
    failure = CheckRun(traced);
  }
  if (failure.empty() && traced.fingerprint != plain.fingerprint) {
    failure = "tracing changed the metrics fingerprint";
  }
  const std::vector<Metric> metrics = LayerMetrics(plain, traced, a.seed);
  const double chains =
      std::find_if(metrics.begin(), metrics.end(), [](const Metric& m) {
        return m.name == "obs.chain_complete_ratio";
      })->value;
  if (failure.empty() && chains < 0.99) {
    failure = "fewer than 99% of committed requests have a full chain";
  }
  std::printf("# trace: records=%zu chain_complete_ratio=%.6f\n",
              traced.records.size(), chains);
  const bool correct = failure.empty();
  if (!correct) {
    std::printf("# CHECK FAILED: %s\n", failure.c_str());
  }
  PrintResult(correct, traced.attempted,
              correct ? Unanswered(traced) : traced.attempted, metrics);
  return 0;
}

}  // namespace
}  // namespace optilog::perfbench

int main(int argc, char** argv) {
  using namespace optilog::perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload tree_wan|shard_txn|aware_attack "
                 "--seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  PrintProvenance(a);
  return a.trace == 0 ? Untraced(a) : Traced(a);
}
