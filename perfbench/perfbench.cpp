// perfbench — the repository benchmark: host time of the switch simulator on
// three batch workloads, plus a traced run that splits each workload's time
// across the repository's modules. README.md in this directory documents the
// workloads, the metrics and how to read them.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//
// The benchmark works only from outside the program: it generates its inputs
// from --seed, calls public functions of the campaign, check, switch and
// traffic libraries, and times those calls, on one thread. The last line of
// stdout is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics when untraced (perfbench), the per-layer
// metrics when traced (perfbench_traced, which also counts allocations).
// Everything before it is the human-readable report.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/service.hpp"
#include "check/differential.hpp"
#include "check/scenario.hpp"
#include "switch/config.hpp"
#include "switch/crossbar.hpp"
#include "traffic/flow.hpp"
#include "traffic/workload.hpp"
#if PERFBENCH_TRACED
#include "sim/alloc_hook.hpp"
#else
#define PERFBENCH_TRACED 0
#endif

namespace {

using namespace ssq;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---- sizes -----------------------------------------------------------------
// Scenario workloads run an endless seeded input stream, one scenario (or one
// campaign) after the other, until --seconds have passed; more distinct
// scenarios per run means a smaller seed-to-seed spread of the mean scenario
// cost (per-scenario CV ~1.2). The digest covers a fixed prefix of the
// stream, which is rerun after the measured phase and must repeat exactly.
//
// campaign_dense: campaign k of a run has kCampaignScenarios scenarios with
// base seed campaign_seed(seed, k), in shards of kUnitsPerShard units. The
// campaign runs units in lock-step batches of eight, so a shard of 16 is two
// batches, and its mean unit time is the finest per-scenario time observable
// from outside the campaign. Campaign 0 is the digest prefix.
constexpr std::uint64_t kCampaignScenarios = 400;
constexpr std::uint64_t kUnitsPerShard = 16;
// fuzz_sparse_monitor: scenario i of the stream is ssq_fuzz's scenario i of
// the seed; inputs are generated in chunks, the first one during set-up.
constexpr std::uint64_t kFuzzChunk = 512;
constexpr std::uint64_t kFuzzDigestScenarios = 300;
// Throughput window (see Windows): ~1 s of scenarios.
constexpr std::uint64_t kFuzzWindow = 128;
// Traced runs repeat the digest prefix (untraced and traced passes and the
// ablation variants) at least kMinTracedReps times, so that each layer is
// reported with its spread.
constexpr int kMinTracedReps = 3;
constexpr int kSetupRepeats = 5;

// sim_radix64: warmup, then segments of fixed length stepped alternately on
// two identically built instances; a pass is kSegmentsPerPass of each.
constexpr Cycle kRadixWarmup = Cycle{1} << 17;
constexpr Cycle kSegmentCycles = Cycle{1} << 16;
constexpr int kSegmentsPerPass = 8;
constexpr int kRadixLateSetups = 6;
// RSS growth tolerated between the first and the last measured segment
// (the benchmark's own bookkeeping); an unbounded source queue grows by
// hundreds of MB.
constexpr double kRssSlackMb = 1.0;

// ---- small utilities -------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <class F>
double timed(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Quantile by the "exclusive" method of Python's statistics.quantiles, so
/// spreads printed here match what a caller computes from the same values.
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() + 1) - 1.0;
  if (pos <= 0.0) return v.front();
  if (pos >= static_cast<double>(v.size() - 1)) return v.back();
  const auto i = static_cast<std::size_t>(pos);
  return v[i] + (v[i + 1] - v[i]) * (pos - static_cast<double>(i));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A "Vm...:" field of /proc/self/status in MB, or -1 when unavailable.
/// These are per program image: getrusage's ru_maxrss would also count the
/// footprint of the parent process this one was forked from.
double proc_status_mb(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;  // kB
    }
  }
  return -1.0;
}

double peak_rss_mb() {
  const double hwm = proc_status_mb("VmHWM:");
  if (hwm >= 0.0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double rss_mb() {
  const double rss = proc_status_mb("VmRSS:");
  return rss >= 0.0 ? rss : peak_rss_mb();
}

std::uint64_t allocations() {
#if PERFBENCH_TRACED
  return alloc_hook::allocations();
#else
  return 0;
#endif
}

/// FNV-1a over 64-bit words and bytes: the outcome digest.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) mix(static_cast<unsigned char>(x >> (8 * b)));
  }
  void add(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, x);
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// splitmix64: the benchmark draws its own inputs, so they do not depend on
/// the program's generators.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <class T, std::size_t N>
  void shuffle(std::array<T, N>& a) {
    for (std::size_t i = N - 1; i > 0; --i) std::swap(a[i], a[below(i + 1)]);
  }

 private:
  std::uint64_t s_;
};

// ---- spans -----------------------------------------------------------------

/// In-memory span log (name, start, end, parent), written out when the run
/// ends. A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    // Reserved up front: the span log must not allocate inside the
    // allocation counts it brackets.
    if (enabled_) {
      spans_.reserve(std::size_t{1} << 15);
      stack_.reserve(64);
    }
  }

  int open(const char* name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, seconds_since(origin_), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = seconds_since(origin_);
    stack_.pop_back();
  }

  /// Self time (duration minus direct children) of the spans in the tree
  /// rooted at `root`, summed by layer: the span name up to its first '.'.
  [[nodiscard]] std::map<std::string, double> layer_self(int root) const {
    std::map<std::string, double> out;
    if (root < 0) return out;
    const auto r = static_cast<std::size_t>(root);
    std::vector<double> child(spans_.size(), 0.0);
    std::vector<char> inside(spans_.size(), 0);
    inside[r] = 1;
    for (std::size_t i = r + 1; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      if (p < 0 || !inside[static_cast<std::size_t>(p)]) continue;
      inside[i] = 1;
      child[static_cast<std::size_t>(p)] += spans_[i].end_s - spans_[i].start_s;
    }
    for (std::size_t i = r; i < spans_.size(); ++i) {
      if (!inside[i]) continue;
      const std::string_view name = spans_[i].name;
      out[std::string(name.substr(0, name.find('.')))] +=
          spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return out;
  }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                    "\"end_s\":%.9f,\"parent\":%d}\n",
                    i, s.name, s.start_s, s.end_s, s.parent);
      os << line;
    }
  }

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: verdict, counts, metrics; notes go to stdout as
/// they are made.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& why) {
    if (ok) return;
    correct = false;
    note("CHECK FAILED: " + why);
  }
  static void note(const std::string& line) {
    std::printf("%s\n", line.c_str());
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Every per-layer metric with its unit, in report order (the list
/// BENCHMARK.json names). A traced run reports all of them; a layer the
/// workload's path does not reach reads 0 and is marked n/a.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"switch.construct_s", "s"},
    {"switch.run_s", "s"},
    {"switch.ns_per_stepped_cycle", "ns"},
    {"switch.cycles_stepped", "count"},
    {"switch.cycles_idle", "count"},
    {"switch.cycles_jumped", "count"},
    {"switch.ff_ratio", "ratio"},
    {"switch.grants", "count"},
    {"switch.delivered", "count"},
    {"switch.max_source_backlog", "packets"},
    {"switch.allocs_per_cycle", "1/cycle"},
    {"check.generate_s", "s"},
    {"check.instantiate_s", "s"},
    {"check.allocs_per_scenario", "count"},
    {"check.invariants_s", "s"},
    {"check.reference_s", "s"},
    {"check.circuit_s", "s"},
    {"check.state_compare_s", "s"},
    {"check.grants_checked", "count"},
    {"check.ns_per_grant_checked", "ns"},
    {"obs.monitor_s", "s"},
    {"obs.windows_checked", "count"},
    {"obs.violations", "count"},
    {"fault.scenarios_faulted", "count"},
    {"campaign.init_s", "s"},
    {"campaign.shard_s", "s"},
    {"campaign.report_s", "s"},
    {"campaign.overhead_s", "s"},
    {"campaign.journal_bytes", "bytes"},
    {"campaign.journal_records", "count"},
    {"traffic.generate_s", "s"},
    {"trace.untraced_pass_s", "s"},
    {"trace.traced_pass_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.layer_sum_s", "s"},
};

/// Per-layer quantities: times sampled once per traced repetition (reported
/// as median with IQR), counts set once (they repeat exactly).
class LayerTable {
 public:
  void sample(const std::string& name, double v) { samples_[name].push_back(v); }
  void set(const std::string& name, double v) { samples_[name].assign(1, v); }
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

  void emit(Outcome& out) const {
    for (const auto& [name, unit] : kPerLayer) {
      char line[256];
      const auto it = samples_.find(name);
      if (it == samples_.end()) {
        std::snprintf(line, sizeof line, "  %-28s %14s %-7s n/a on this workload",
                      name.c_str(), "0", unit.c_str());
        out.add(name, 0.0, unit);
      } else {
        const std::vector<double>& s = it->second;
        const double v = median(s);
        if (s.size() > 1) {
          std::snprintf(line, sizeof line,
                        "  %-28s %14.6g %-7s median of %zu, IQR [%.6g, %.6g]",
                        name.c_str(), v, unit.c_str(), s.size(),
                        quantile(s, 0.25), quantile(s, 0.75));
        } else {
          std::snprintf(line, sizeof line, "  %-28s %14.6g %-7s", name.c_str(),
                        v, unit.c_str());
        }
        out.add(name, v, unit);
      }
      Outcome::note(line);
    }
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// States whether the layer times of one pass add up to the untraced pass
/// within the trace overhead, and reports the sum.
void layer_sum(LayerTable& t, const std::vector<std::string>& parts) {
  double s = 0.0;
  std::string terms;
  for (const std::string& p : parts) {
    s += t.value(p);
    terms += (terms.empty() ? "" : " + ") + p;
  }
  t.set("trace.layer_sum_s", s);
  const double untraced = t.value("trace.untraced_pass_s");
  const double overhead = t.value("trace.overhead_frac");
  char line[512];
  std::snprintf(line, sizeof line,
                "layer sum %.6g s vs untraced pass %.6g s: %+.2f%% "
                "(trace overhead %+.2f%%) = %s",
                s, untraced, (s / untraced - 1.0) * 100.0, overhead * 100.0,
                terms.c_str());
  Outcome::note(line);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

std::string host_line() {
  utsname u{};
  uname(&u);
  char name[256] = {0};
  gethostname(name, sizeof name - 1);
  std::ostringstream os;
  os << "host: name=" << name << " cpus=" << std::thread::hardware_concurrency()
     << " machine=" << u.machine << " kernel=" << u.release
     << " compiler=\"" << PERFBENCH_COMPILER << "\" build_type="
     << PERFBENCH_BUILD_TYPE << " flags=\"" << PERFBENCH_CXX_FLAGS
     << "\" binary=" << (PERFBENCH_TRACED ? "perfbench_traced" : "perfbench");
  return os.str();
}

void emit_e2e(Outcome& out, const char* name, double value, const char* unit,
              const std::string& detail = {}) {
  char line[256];
  std::snprintf(line, sizeof line, "  %-18s %14.6g %-6s %s", name, value, unit,
                detail.c_str());
  Outcome::note(line);
  out.add(name, value, unit);
}

/// Throughput over windows of consecutive work: a fixed number of scenarios,
/// one campaign, or one segment. The reported rate is the one sustained in
/// 90% of the windows (their 10th percentile). On a shared 4-vCPU VM a
/// fixed piece of stepping work ran in two host states, the faster one
/// arriving in bursts of seconds, so the median flipped between states from
/// run to run; the slower state showed up in every run, and the 10th
/// percentile tracks it (ten-run spread 3% against 18% for the median).
///
/// Scenario times follow the same rule. Their plain percentiles over the run
/// flipped with the host state too (ten-run spread 23-28%). So each time is
/// taken relative to the mean time of its window, which leaves the shape of
/// the distribution with the host speed divided out, and that shape is scaled
/// by the mean time of the window that is slower than 90% of windows.
struct Windows {
  std::vector<double> items_per_s, cycles_per_s;
  std::vector<double> mean_ms;   // mean timed-unit time of each window
  std::vector<double> relative;  // each unit time over its window's mean
  double items = 0.0, cycles = 0.0, busy_s = 0.0;
  /// Closes a window of `n` scenarios and `c` simulated cycles that took
  /// `seconds`; `unit_ms` holds the times of the units timed in it.
  void add(double n, double c, double seconds, const std::vector<double>& unit_ms) {
    items_per_s.push_back(n / seconds);
    cycles_per_s.push_back(c / seconds);
    items += n;
    cycles += c;
    busy_s += seconds;
    if (unit_ms.empty()) return;  // a failed campaign round timed no shard
    const double mean = std::accumulate(unit_ms.begin(), unit_ms.end(), 0.0) /
                        static_cast<double>(unit_ms.size());
    mean_ms.push_back(mean);
    for (const double t : unit_ms) relative.push_back(t / mean);
  }
  /// The p-th percentile of unit time, as sustained in 90% of windows.
  [[nodiscard]] double unit_ms(double p) const {
    return quantile(mean_ms, 0.9) * quantile(relative, p);
  }
};

/// The end-to-end metrics every workload reports. README.md says what a
/// "scenario" is on each workload.
void emit_end_to_end(Outcome& out, const Windows& w,
                     const std::vector<double>& setup_s) {
  Outcome::note("end-to-end (untraced):");
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "p10 of %zu windows; median %.6g, run total %.6g 1/s",
                w.items_per_s.size(), median(w.items_per_s), w.items / w.busy_s);
  emit_e2e(out, "scenarios_per_s", quantile(w.items_per_s, 0.1), "1/s", detail);
  std::snprintf(detail, sizeof detail,
                "p10 of %zu windows; median %.6g, run total %.6g 1/s",
                w.cycles_per_s.size(), median(w.cycles_per_s), w.cycles / w.busy_s);
  emit_e2e(out, "sim_cycles_per_s", quantile(w.cycles_per_s, 0.1), "1/s", detail);
  std::snprintf(detail, sizeof detail,
                "of %zu samples in %zu windows; p90 window mean %.6g ms",
                w.relative.size(), w.mean_ms.size(), quantile(w.mean_ms, 0.9));
  emit_e2e(out, "scenario_ms_p50", w.unit_ms(0.5), "ms", detail);
  emit_e2e(out, "scenario_ms_p90", w.unit_ms(0.9), "ms", detail);
  emit_e2e(out, "setup_s", median(setup_s), "s",
           "median of " + std::to_string(setup_s.size()) + " set-ups");
  emit_e2e(out, "peak_rss_mb", peak_rss_mb(), "MB");
  // failed_frac is not a bounded metric (it is 0 on a healthy run); the
  // result line carries it as failed / attempted.
  char line[160];
  std::snprintf(line, sizeof line,
                "  %-18s %14.6g %-6s %" PRIu64 " of %" PRIu64 " attempted",
                "failed_frac",
                static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, out.attempted)),
                "ratio", out.failed, out.attempted);
  Outcome::note(line);
}

/// Repetitions of a fixed input set: until the budget is spent, at least
/// three.
bool more_reps(int rep, Clock::time_point start, double seconds) {
  return rep < kMinTracedReps || seconds_since(start) < seconds;
}

// ---- scenario inputs -------------------------------------------------------

enum class Kind { CampaignDense, FuzzSparseMonitor };

/// Scenarios [first, first + n) of a scenario workload's stream for `seed`.
/// campaign_dense gets exactly what the campaign's "default" grid point runs
/// (run_shard applies the point's kernel and fast-forward setting);
/// fuzz_sparse_monitor gets ssq_fuzz's --sparse derate: 8x the cycles at
/// 1/20 of the injection rates, so idle stretches dominate.
std::vector<check::Scenario> scenario_inputs(Kind kind, std::uint64_t seed,
                                             std::uint64_t first,
                                             std::uint64_t n) {
  const campaign::GridPoint grid = campaign::parse_grid_point("default");
  std::vector<check::Scenario> out;
  out.reserve(n);
  for (std::uint64_t i = first; i < first + n; ++i) {
    check::Scenario s = check::generate_scenario(i, seed);
    if (kind == Kind::CampaignDense) {
      s.kernel = grid.kernel;
      s.fast_forward = grid.fast_forward;
    } else {
      s.cycles *= 8;
      for (auto& f : s.flows) f.inject_rate *= 0.05;
    }
    out.push_back(std::move(s));
  }
  return out;
}

check::CheckOptions fuzz_options() {
  check::CheckOptions o;
  o.monitor = true;
  o.flight_recorder = 256;
  return o;
}

/// The input set of a scenario workload's traced run, set up
/// kSetupRepeats times: generating the scenarios, and building each one's
/// traffic::Workload.
std::vector<check::Scenario> traced_inputs(LayerTable& t, Kind kind,
                                           std::uint64_t seed, std::uint64_t n) {
  std::vector<check::Scenario> inputs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    t.sample("check.generate_s",
             timed([&] { inputs = scenario_inputs(kind, seed, 0, n); }));
    t.sample("traffic.generate_s", timed([&] {
      for (const auto& s : inputs) (void)s.build_workload();
    }));
  }
  std::uint64_t faulted = 0;
  for (const auto& s : inputs) faulted += s.has_faults() ? 1 : 0;
  t.set("fault.scenarios_faulted", static_cast<double>(faulted));
  return inputs;
}

double total_cycles(const std::vector<check::Scenario>& v) {
  double c = 0.0;
  for (const auto& s : v) c += static_cast<double>(s.cycles);
  return c;
}

/// Verdict and outcome totals of a set of run_scenario results, and their
/// digest (per-scenario grants, deliveries, verdict and violations by kind).
struct ScenarioTotals {
  std::uint64_t ok = 0, failed = 0, grants = 0, delivered = 0;
  std::uint64_t gb = 0, gl = 0, be = 0, windows = 0;
  Digest digest;

  void add(const check::RunResult& r) {
    (r.failed ? failed : ok) += 1;
    grants += r.grants_checked;
    delivered += r.delivered;
    gb += r.violations_gb;
    gl += r.violations_gl;
    be += r.violations_be;
    windows += r.windows_checked;
    for (const std::uint64_t x :
         {std::uint64_t{r.failed}, r.grants_checked, r.delivered,
          r.violations_gb, r.violations_gl, r.violations_be, r.windows_checked}) {
      digest.add(x);
    }
  }

  [[nodiscard]] std::string line() const {
    std::ostringstream os;
    os << "verdicts ok=" << ok << " failed=" << failed << " grants=" << grants
       << " delivered=" << delivered << " violations gb=" << gb << " gl=" << gl
       << " be=" << be << " windows=" << windows << " hash=" << hex(digest.value());
    return os.str();
  }
};

/// One scenario through check::run_scenario, its verdict checked: no
/// divergence, and under the monitor a fault-free scenario must be
/// conformant.
check::RunResult run_checked(Outcome& out, const check::Scenario& s,
                             const check::CheckOptions& opts, SpanLog* spans) {
  check::RunResult r;
  if (spans != nullptr) {
    ScopedSpan span(*spans, "check.run_scenario");
    r = check::run_scenario(s, opts);
  } else {
    r = check::run_scenario(s, opts);
  }
  if (r.failed) {
    out.check(false, s.name + ": " + r.kind + " at cycle " +
                         std::to_string(r.fail_cycle));
  } else if (opts.monitor && !s.has_faults() &&
             r.violations_gb + r.violations_gl > 0) {
    out.check(false, s.name + ": QoS violation without injected faults");
  }
  return r;
}

/// Every input through run_checked, in order.
ScenarioTotals scenario_pass(Outcome& out, const std::vector<check::Scenario>& in,
                             const check::CheckOptions& opts) {
  ScenarioTotals t;
  for (const auto& s : in) t.add(run_checked(out, s, opts, nullptr));
  return t;
}

// ---- ablation (traced runs) ------------------------------------------------

/// A bare switch: check::instantiate, then CrossbarSwitch::run for the
/// scenario's cycles, no probe or checker.
struct BarePass {
  double total_s = 0.0;
  double instantiate_s = 0.0;
  std::uint64_t cycles = 0, idle = 0, jumped = 0;
  std::uint64_t grants = 0, delivered = 0, max_backlog = 0, run_allocs = 0;
  [[nodiscard]] std::uint64_t stepped() const { return cycles - idle - jumped; }
};

/// Non-chained grants of the measurement window: one arbitration each.
std::uint64_t grants_of(const sw::CrossbarSwitch& sim) {
  std::uint64_t g = 0;
  for (OutputId o = 0; o < sim.config().radix; ++o) {
    g += sim.channel_usage(o).arbitration_cycles;
  }
  return g / std::max<std::uint64_t>(1, sim.config().arbitration_cycles);
}

void run_bare(const check::Scenario& s, BarePass& b) {
  const auto t0 = Clock::now();
  {
    check::ScenarioRun rig = check::instantiate(s);
    b.instantiate_s += seconds_since(t0);
    sw::CrossbarSwitch& sim = *rig.sim;
    sim.warmup(0);  // opens the measurement window, so grants are counted
    const std::uint64_t a0 = allocations();
    sim.run(s.cycles);
    b.run_allocs += allocations() - a0;
    b.cycles += s.cycles;
    b.idle += sim.ff_idle_stepped_cycles();
    b.jumped += sim.ff_skipped_cycles();
    b.grants += grants_of(sim);
    for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
      b.delivered += sim.delivered_packets(f);
      b.max_backlog =
          std::max<std::uint64_t>(b.max_backlog, sim.max_source_backlog(f));
    }
  }
  b.total_s += seconds_since(t0);
}

/// The checker legs split by ablation: each scenario is rerun with one
/// CheckOptions leg turned off at a time, and a leg's cost is the difference
/// of two variants. Variants: the workload's options with spans around each
/// call (`traced`, only when a span log is given), the same without spans
/// (`monitored`, only when the options attach the monitor), monitor off
/// (`full`), no state compare, no circuit, invariants only, and the bare
/// switch. They run back to back per scenario, in an order rotated from one
/// scenario to the next, so a change in host speed hits every variant alike.
enum Variant { kTraced, kMonitored, kFull, kNoState, kNoCircuit, kInvariants, kBare };

struct Ablation {
  std::array<double, kBare> seconds{};
  std::array<ScenarioTotals, kBare> totals;
  BarePass bare;
  std::uint64_t allocs_full = 0;
  [[nodiscard]] double at(int v) const { return seconds[static_cast<std::size_t>(v)]; }
};

Ablation ablate(Outcome& out, const std::vector<check::Scenario>& inputs,
                const check::CheckOptions& workload, SpanLog* spans) {
  std::array<check::CheckOptions, kBare> opts;
  opts.fill(workload);
  for (int v = kFull; v <= kInvariants; ++v) {
    check::CheckOptions& o = opts[static_cast<std::size_t>(v)];
    o.monitor = false;
    o.flight_recorder = 0;
    o.state_compare = v < kNoState;
    o.circuit = v < kNoCircuit;
    o.differential = v < kInvariants;
  }
  const int first = spans != nullptr ? kTraced : workload.monitor ? kMonitored : kFull;
  const auto n = static_cast<std::size_t>(kBare - first + 1);
  Ablation a;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const int v = first + static_cast<int>((i + k) % n);
      if (v == kBare) {
        run_bare(inputs[i], a.bare);
        continue;
      }
      const auto vi = static_cast<std::size_t>(v);
      const std::uint64_t a0 = allocations();
      check::RunResult r;
      a.seconds[vi] += timed([&] {
        r = run_checked(out, inputs[i], opts[vi], v == kTraced ? spans : nullptr);
      });
      if (v == kFull) a.allocs_full += allocations() - a0;
      a.totals[vi].add(r);
    }
  }
  return a;
}

void sample_ablation(LayerTable& t, const Ablation& a, std::uint64_t n) {
  const BarePass& b = a.bare;
  const double run_s = b.total_s - b.instantiate_s;
  const std::uint64_t grants = a.totals[kFull].grants;
  if (a.at(kMonitored) > 0.0) {
    t.sample("obs.monitor_s", a.at(kMonitored) - a.at(kFull));
  }
  t.sample("check.state_compare_s", a.at(kFull) - a.at(kNoState));
  t.sample("check.circuit_s", a.at(kNoState) - a.at(kNoCircuit));
  t.sample("check.reference_s", a.at(kNoCircuit) - a.at(kInvariants));
  t.sample("check.invariants_s", a.at(kInvariants) - b.total_s);
  t.sample("check.instantiate_s", b.instantiate_s);
  t.sample("switch.run_s", run_s);
  t.sample("switch.ns_per_stepped_cycle",
           run_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(1, b.stepped())));
  t.sample("check.ns_per_grant_checked",
           (a.at(kFull) - b.total_s) * 1e9 /
               static_cast<double>(std::max<std::uint64_t>(1, grants)));
  t.set("check.allocs_per_scenario",
        static_cast<double>(a.allocs_full) / static_cast<double>(n));
  t.set("check.grants_checked", static_cast<double>(grants));
  t.set("switch.cycles_stepped", static_cast<double>(b.stepped()));
  t.set("switch.cycles_idle", static_cast<double>(b.idle));
  t.set("switch.cycles_jumped", static_cast<double>(b.jumped));
  t.set("switch.ff_ratio", static_cast<double>(b.idle + b.jumped) /
                               static_cast<double>(std::max<std::uint64_t>(1, b.cycles)));
  t.set("switch.grants", static_cast<double>(b.grants));
  t.set("switch.delivered", static_cast<double>(b.delivered));
  t.set("switch.max_source_backlog", static_cast<double>(b.max_backlog));
  t.set("switch.allocs_per_cycle",
        static_cast<double>(b.run_allocs) /
            static_cast<double>(std::max<std::uint64_t>(1, b.stepped())));
}

// ---- campaign_dense ---------------------------------------------------------

/// Base seed of campaign k of a run: the run's seed for campaign 0 (the
/// digest prefix), then a splitmix64 stream of it.
std::uint64_t campaign_seed(std::uint64_t seed, std::uint64_t k) {
  Draw d(seed);
  std::uint64_t base = seed;
  for (std::uint64_t j = 0; j < k; ++j) base = d.next();
  return base;
}

campaign::Manifest campaign_manifest(std::uint64_t base_seed) {
  campaign::Manifest m;
  m.base_seed = base_seed;
  m.scenarios = kCampaignScenarios;
  m.shards = kCampaignScenarios / kUnitsPerShard;
  return m;
}

struct CampaignRound {
  double init_s = 0.0, shards_s = 0.0, report_s = 0.0;
  double total_s = 0.0;         // init, shards and report
  std::vector<double> unit_ms;  // mean unit time of each shard
  bool all_completed = true;
  campaign::Report report;
  std::string digest;
  std::uint64_t journal_bytes = 0, journal_records = 0;
  int root_span = -1;
};

/// One campaign end to end in a fresh directory: init_campaign_dir, every
/// shard claimed lowest-first and run with the default hooks except that the
/// journal is not fsync'd, then write_reports.
CampaignRound run_campaign(const std::string& dir, const campaign::Manifest& m,
                           SpanLog& spans) {
  CampaignRound r;
  fs::remove_all(dir);
  const auto t_round = Clock::now();
  {
    ScopedSpan root(spans, "bench.campaign_round");
    r.root_span = root.id();
    r.init_s = timed([&] {
      ScopedSpan s(spans, "campaign.init");
      campaign::init_campaign_dir(dir, m);
    });
    campaign::RunnerHooks hooks;
    hooks.durable = false;
    campaign::ShardClaim claim;
    const auto t_shards = Clock::now();
    while (const auto k = campaign::claim_lowest_undone(dir, m, claim)) {
      campaign::ShardOutcome outcome{};
      const double dt = timed([&] {
        ScopedSpan s(spans, "campaign.shard");
        outcome = campaign::run_shard(dir, m, *k, hooks);
      });
      claim.release();
      if (outcome != campaign::ShardOutcome::Completed) {
        r.all_completed = false;
        break;
      }
      r.unit_ms.push_back(dt * 1e3 /
                          static_cast<double>(m.shard_end(*k) - m.shard_begin(*k)));
    }
    r.shards_s = seconds_since(t_shards);
    r.report_s = timed([&] {
      ScopedSpan s(spans, "campaign.report");
      r.report = campaign::write_reports(dir, m, campaign::ExecutionStats{});
    });
  }
  r.total_s = seconds_since(t_round);
  for (std::uint64_t k = 0; k < m.shards; ++k) {
    const std::string j = read_file(campaign::ckpt_path(dir, k));
    r.journal_bytes += j.size();
    r.journal_records += static_cast<std::uint64_t>(std::count(j.begin(), j.end(), '\n'));
  }
  Digest d;
  d.add(read_file(dir + "/report.json"));
  const campaign::Report& p = r.report;
  std::ostringstream os;
  os << "verdicts ok=" << p.ok << " failed=" << p.failed
     << " quarantined=" << p.quarantined << " grants=" << p.grants
     << " delivered=" << p.delivered << " violations gb=" << p.violations_gb
     << " gl=" << p.violations_gl << " be=" << p.violations_be
     << " windows=" << p.windows << " faulted=" << p.faulted
     << " report.json=" << hex(d.value());
  r.digest = os.str();
  return r;
}

/// Every shard Completed, every unit done with an ok verdict.
void check_campaign(Outcome& out, const CampaignRound& r,
                    const campaign::Manifest& m) {
  out.attempted += m.scenarios;
  out.failed += m.scenarios - std::min(m.scenarios, r.report.ok);
  out.check(r.all_completed, "a campaign shard did not finish Completed");
  out.check(r.report.complete() && r.report.ok == m.scenarios &&
                r.report.failed == 0 && r.report.quarantined == 0,
            "campaign report: " + r.digest);
}

Outcome campaign_untraced(const Args& a) {
  Outcome out;
  SpanLog off(false);
  const std::string dir = a.work_dir + "/campaign";
  const campaign::Manifest m0 = campaign_manifest(a.seed);
  std::vector<double> setup_s;
  std::vector<check::Scenario> inputs;
  for (int k = 0; k < kSetupRepeats; ++k) {
    fs::remove_all(dir);
    setup_s.push_back(timed([&] {
      inputs = scenario_inputs(Kind::CampaignDense, m0.base_seed, 0, m0.scenarios);
      campaign::init_campaign_dir(dir, m0);
    }));
  }
  Windows w;
  std::uint64_t campaigns = 0;
  std::string digest0;
  const auto start = Clock::now();
  while (campaigns == 0 || seconds_since(start) < a.seconds) {
    const campaign::Manifest m = campaign_manifest(campaign_seed(a.seed, campaigns));
    double generate_s = 0.0;
    if (campaigns > 0) {
      generate_s = timed([&] {
        inputs = scenario_inputs(Kind::CampaignDense, m.base_seed, 0, m.scenarios);
      });
    }
    const CampaignRound r = run_campaign(dir, m, off);
    if (campaigns > 0) setup_s.push_back(generate_s + r.init_s);
    w.add(static_cast<double>(m.scenarios), total_cycles(inputs),
          r.shards_s + r.report_s, r.unit_ms);
    check_campaign(out, r, m);
    if (campaigns == 0) digest0 = r.digest;
    ++campaigns;
  }
  const CampaignRound again = run_campaign(dir, m0, off);
  fs::remove_all(dir);
  Outcome::note("digest: " + digest0);
  out.check(again.digest == digest0,
            "digest differs between repeats of campaign 0: " + again.digest);
  Outcome::note("measured: " + std::to_string(campaigns) + " campaigns of " +
                std::to_string(kCampaignScenarios) + " scenarios in " +
                std::to_string(m0.shards) + " shards; campaign 0 rerun for the digest");
  emit_end_to_end(out, w, setup_s);
  return out;
}

Outcome campaign_traced(const Args& a) {
  Outcome out;
  LayerTable t;
  SpanLog spans(true);
  SpanLog off(false);
  const campaign::Manifest m = campaign_manifest(a.seed);
  const campaign::GridPoint grid = campaign::parse_grid_point("default");
  const std::string dir = a.work_dir + "/campaign";
  const std::vector<check::Scenario> inputs =
      traced_inputs(t, Kind::CampaignDense, m.base_seed, m.scenarios);
  const auto start = Clock::now();
  std::string digest0;
  for (int rep = 0; more_reps(rep, start, a.seconds); ++rep) {
    // Untraced (u) and traced (r) rounds alternate which runs first, so an
    // order effect does not pass for trace overhead.
    CampaignRound u, r;
    if (rep % 2 == 0) {
      u = run_campaign(dir, m, off);
      r = run_campaign(dir, m, spans);
    } else {
      r = run_campaign(dir, m, spans);
      u = run_campaign(dir, m, off);
    }
    check_campaign(out, u, m);
    check_campaign(out, r, m);
    if (rep == 0) {
      digest0 = r.digest;
      Outcome::note("digest: " + r.digest);
      t.set("campaign.journal_bytes", static_cast<double>(r.journal_bytes));
      t.set("campaign.journal_records", static_cast<double>(r.journal_records));
    }
    out.check(u.digest == digest0 && r.digest == digest0,
              "digest differs between repeats: " + r.digest);
    const Ablation ab = ablate(out, inputs, grid.opts, nullptr);
    out.check(ab.totals[kFull].grants == r.report.grants,
              "serial run_scenario grants differ from the campaign report");
    sample_ablation(t, ab, m.scenarios);
    const double untraced = u.total_s;
    const double traced = r.total_s;
    const auto layers = spans.layer_self(r.root_span);
    t.sample("campaign.init_s", r.init_s);
    t.sample("campaign.shard_s", r.shards_s);
    t.sample("campaign.report_s", r.report_s);
    t.sample("campaign.overhead_s", r.shards_s - ab.at(kFull));
    t.sample("bench.glue_s", layers.count("bench") ? layers.at("bench") : 0.0);
    t.sample("trace.untraced_pass_s", untraced);
    t.sample("trace.traced_pass_s", traced);
    t.sample("trace.overhead_frac", traced / untraced - 1.0);
  }
  fs::remove_all(dir);
  spans.write_jsonl(a.work_dir + "/campaign_dense-seed" + std::to_string(a.seed) +
                    ".spans.jsonl");
  layer_sum(t, {"campaign.init_s", "campaign.report_s", "campaign.overhead_s",
                "check.instantiate_s", "check.invariants_s", "check.reference_s",
                "check.circuit_s", "check.state_compare_s", "switch.run_s",
                "bench.glue_s"});
  Outcome::note("per-layer (traced; seconds per pass over " +
                std::to_string(m.scenarios) + " scenarios in " +
                std::to_string(m.shards) + " shards):");
  t.emit(out);
  return out;
}

// ---- fuzz_sparse_monitor ---------------------------------------------------

Outcome fuzz_untraced(const Args& a) {
  Outcome out;
  const check::CheckOptions opts = fuzz_options();
  std::vector<double> setup_s;
  std::vector<check::Scenario> chunk;
  for (int k = 0; k < kSetupRepeats; ++k) {
    setup_s.push_back(timed([&] {
      chunk = scenario_inputs(Kind::FuzzSparseMonitor, a.seed, 0, kFuzzChunk);
    }));
  }
  const std::vector<check::Scenario> prefix(
      chunk.begin(), chunk.begin() + kFuzzDigestScenarios);
  ScenarioTotals all, digest;
  Windows w;
  std::vector<double> window_ms;
  double window_s = 0.0, window_cycles = 0.0;
  std::uint64_t i = 0;
  const auto start = Clock::now();
  while (i < kFuzzDigestScenarios || i % kFuzzWindow != 0 ||
         seconds_since(start) < a.seconds) {
    if (i > 0 && i % kFuzzChunk == 0) {
      setup_s.push_back(timed([&] {
        chunk = scenario_inputs(Kind::FuzzSparseMonitor, a.seed, i, kFuzzChunk);
      }));
    }
    const check::Scenario& s = chunk[i % kFuzzChunk];
    check::RunResult r;
    const double dt = timed([&] { r = run_checked(out, s, opts, nullptr); });
    window_ms.push_back(dt * 1e3);
    window_s += dt;
    window_cycles += static_cast<double>(s.cycles);
    all.add(r);
    if (i < kFuzzDigestScenarios) digest.add(r);
    if (++i % kFuzzWindow == 0) {
      w.add(static_cast<double>(kFuzzWindow), window_cycles, window_s, window_ms);
      window_ms.clear();
      window_s = window_cycles = 0.0;
    }
  }
  out.attempted = all.ok + all.failed;
  out.failed = all.failed;
  const ScenarioTotals again = scenario_pass(out, prefix, opts);
  Outcome::note("digest: first " + std::to_string(kFuzzDigestScenarios) +
                " scenarios: " + digest.line());
  out.check(again.line() == digest.line(),
            "digest differs between repeats: " + again.line());
  Outcome::note("measured: " + std::to_string(i) + " scenarios: " + all.line());
  emit_end_to_end(out, w, setup_s);
  return out;
}

/// The traced and untraced passes are the first two ablation variants, so
/// trace overhead and the layer split are measured in one interleaved pass.
Outcome fuzz_traced(const Args& a) {
  Outcome out;
  LayerTable t;
  SpanLog spans(true);
  const check::CheckOptions opts = fuzz_options();
  const std::vector<check::Scenario> inputs =
      traced_inputs(t, Kind::FuzzSparseMonitor, a.seed, kFuzzDigestScenarios);
  const auto start = Clock::now();
  std::string digest0;
  for (int rep = 0; more_reps(rep, start, a.seconds); ++rep) {
    const Ablation ab = ablate(out, inputs, opts, &spans);
    const ScenarioTotals& traced = ab.totals[kTraced];
    const ScenarioTotals& untraced = ab.totals[kMonitored];
    out.attempted += 2 * inputs.size();
    out.failed += traced.failed + untraced.failed;
    if (rep == 0) {
      digest0 = traced.line();
      Outcome::note("digest: " + digest0);
      t.set("obs.windows_checked", static_cast<double>(traced.windows));
      t.set("obs.violations", static_cast<double>(traced.gb + traced.gl + traced.be));
    }
    out.check(traced.line() == digest0 && untraced.line() == digest0,
              "digest differs between repeats: " + traced.line());
    sample_ablation(t, ab, inputs.size());
    t.sample("trace.untraced_pass_s", ab.at(kMonitored));
    t.sample("trace.traced_pass_s", ab.at(kTraced));
    t.sample("trace.overhead_frac", ab.at(kTraced) / ab.at(kMonitored) - 1.0);
  }
  spans.write_jsonl(a.work_dir + "/fuzz_sparse_monitor-seed" +
                    std::to_string(a.seed) + ".spans.jsonl");
  layer_sum(t, {"obs.monitor_s", "check.instantiate_s", "check.invariants_s",
                "check.reference_s", "check.circuit_s", "check.state_compare_s",
                "switch.run_s"});
  Outcome::note("per-layer (traced; seconds per pass over " +
                std::to_string(inputs.size()) + " scenarios):");
  t.emit(out);
  return out;
}

// ---- sim_radix64 -----------------------------------------------------------

/// The paper's SSVC parameters at the radix-64 bus budget (four GB lanes):
/// 2 level bits, 8 LSBs, 8-bit Vtick shifted by 2.
sw::SwitchConfig radix64_config(std::uint64_t seed) {
  sw::SwitchConfig c;
  c.radix = 64;
  c.ssvc.level_bits = 2;
  c.ssvc.lsb_bits = 8;
  c.ssvc.vtick_bits = 8;
  c.ssvc.vtick_shift = 2;
  c.buffers.be_flits = 16;
  c.buffers.gb_flits_per_output = 16;
  c.buffers.gl_flits = 4;
  c.seed = seed;
  return c;
}

/// sim_radix64's flows, drawn from the seed. Every flow is periodic, with a
/// seeded phase: Bernoulli arrivals have unbounded bursts, so over millions
/// of cycles any source-backlog maximum keeps creeping up, while periodic
/// arrivals below each output's capacity keep every backlog bounded and the
/// stepping rate independent of run length.
///   - GB: 32 inputs to a hotspot output, reserving 0.88 of it in equal
///     shares and offering 70% of their share (an 8-flit packet every 416
///     cycles).
///   - GL: 4 inputs to the hotspot, a 2-flit packet every 416 cycles, under
///     a 0.06 GL reservation.
///   - BE: the other 28 inputs in pairs onto 14 other outputs; each pair
///     sends 8-flit packets every 24, 27 or 30 cycles (60-75% of the output).
/// Inputs and outputs are permuted by the seed.
traffic::Workload radix64_workload(std::uint64_t seed) {
  constexpr std::uint32_t kRadix = 64, kGb = 32, kGl = 4;
  constexpr Cycle kHotPeriod = 416;
  constexpr std::array<Cycle, 3> kBePeriods = {24, 27, 30};
  Draw draw(seed ^ 0x7261646978363400ULL);
  std::array<InputId, kRadix> in{};
  std::array<OutputId, kRadix> out{};
  std::iota(in.begin(), in.end(), InputId{0});
  std::iota(out.begin(), out.end(), OutputId{0});
  draw.shuffle(in);
  draw.shuffle(out);
  const OutputId hot = out[0];
  traffic::Workload w(kRadix);
  const auto periodic = [&](InputId src, OutputId dst, TrafficClass cls,
                            std::uint32_t len, Cycle period) {
    traffic::FlowSpec f;
    f.src = src;
    f.dst = dst;
    f.cls = cls;
    f.len_min = f.len_max = len;
    f.inject = traffic::InjectKind::Periodic;
    f.inject_rate = static_cast<double>(len) / static_cast<double>(period);
    f.start_cycle = draw.below(period);
    if (cls == TrafficClass::GuaranteedBandwidth) f.reserved_rate = 0.88 / kGb;
    w.add_flow(f);
  };
  for (std::uint32_t k = 0; k < kGb; ++k) {
    periodic(in[k], hot, TrafficClass::GuaranteedBandwidth, 8, kHotPeriod);
  }
  for (std::uint32_t k = 0; k < kGl; ++k) {
    periodic(in[kGb + k], hot, TrafficClass::GuaranteedLatency, 2, kHotPeriod);
  }
  w.set_gl_reservation(hot, 0.06, 2);
  Cycle be_period = 0;
  for (std::uint32_t k = 0; k < kRadix - kGb - kGl; ++k) {
    if (k % 2 == 0) be_period = kBePeriods[draw.below(kBePeriods.size())];
    periodic(in[kGb + kGl + k], out[1 + k / 2], TrafficClass::BestEffort, 8,
             be_period);
  }
  return w;
}

/// Outcome digest of a switch: grants in the measurement window, and
/// created/delivered packets and source-backlog maximum per flow.
std::string switch_digest(const sw::CrossbarSwitch& sim) {
  Digest d;
  std::uint64_t created = 0, delivered = 0;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    d.add(sim.created_packets(f));
    d.add(sim.delivered_packets(f));
    d.add(sim.max_source_backlog(f));
    created += sim.created_packets(f);
    delivered += sim.delivered_packets(f);
  }
  const std::uint64_t grants = grants_of(sim);
  d.add(grants);
  std::ostringstream os;
  os << "cycle=" << sim.now() << " grants=" << grants << " created=" << created
     << " delivered=" << delivered << " per-flow hash=" << hex(d.value());
  return os.str();
}

std::uint64_t max_backlog(const sw::CrossbarSwitch& sim) {
  std::uint64_t m = 0;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    m = std::max<std::uint64_t>(m, sim.max_source_backlog(f));
  }
  return m;
}

/// Every flow progresses and none falls ever further behind.
bool check_switch(Outcome& out, const sw::CrossbarSwitch& sim) {
  bool ok = true;
  for (FlowId f = 0; f < sim.workload().num_flows(); ++f) {
    const std::uint64_t c = sim.created_packets(f), d = sim.delivered_packets(f);
    const bool flow_ok = d > 0 && d <= c && c - d <= 64;
    out.check(flow_ok, "flow " + std::to_string(f) + ": created " +
                           std::to_string(c) + ", delivered " + std::to_string(d));
    ok = ok && flow_ok;
  }
  return ok;
}

struct Radix64Rig {
  std::unique_ptr<sw::CrossbarSwitch> sim;
  double generate_s = 0.0, construct_s = 0.0, warmup_s = 0.0;
};

Radix64Rig build_radix64(std::uint64_t seed, SpanLog& spans) {
  Radix64Rig r;
  traffic::Workload w(1);
  r.generate_s = timed([&] {
    ScopedSpan s(spans, "traffic.generate");
    w = radix64_workload(seed);
  });
  r.construct_s = timed([&] {
    ScopedSpan s(spans, "switch.construct");
    r.sim = std::make_unique<sw::CrossbarSwitch>(radix64_config(seed), std::move(w));
  });
  r.warmup_s = timed([&] {
    ScopedSpan s(spans, "switch.warmup");
    r.sim->warmup(kRadixWarmup);
  });
  return r;
}

/// Shared by both modes: set up three instances (A and B are kept), then
/// step A and B alternately, one segment at a time, for whole passes; after
/// each of the first kRadixLateSetups passes one more instance is set up and
/// dropped, so set-up time is sampled across the run. In traced mode A's
/// segments carry spans and count allocations and B's do not, so B is the
/// untraced reference.
Outcome radix64_run(const Args& a) {
  Outcome out;
  SpanLog spans(a.trace);
  LayerTable t;
  std::vector<double> setup_s;
  std::string digest0;
  const auto set_up = [&] {
    Radix64Rig r = build_radix64(a.seed, spans);
    setup_s.push_back(r.generate_s + r.construct_s + r.warmup_s);
    t.sample("traffic.generate_s", r.generate_s);
    t.sample("switch.construct_s", r.construct_s);
    const std::string d = switch_digest(*r.sim);
    if (digest0.empty()) digest0 = d;
    out.check(d == digest0, "warmup digest differs between set-ups: " + d);
    return r;
  };
  const Radix64Rig rig_a = set_up();
  const Radix64Rig rig_b = set_up();
  (void)set_up();
  sw::CrossbarSwitch& A = *rig_a.sim;
  sw::CrossbarSwitch& B = *rig_b.sim;

  Windows w;
  std::uint64_t backlog_first = 0;
  double rss_first = 0.0;
  std::uint64_t a_allocs = 0;
  const std::uint64_t a_idle0 = A.ff_idle_stepped_cycles();
  const std::uint64_t a_jump0 = A.ff_skipped_cycles();
  int passes = 0;
  const auto start = Clock::now();
  for (int p = 0; p < 2 || more_reps(p, start, a.seconds); ++p) {
    passes = p + 1;
    double pass_a = 0.0, pass_b = 0.0;
    int root = -1;
    {
      ScopedSpan pass(spans, "bench.sim_pass");
      root = pass.id();
      for (int s = 0; s < kSegmentsPerPass; ++s) {
        // A and B alternate which steps first.
        double ta = 0.0, tb = 0.0;
        const auto step_a = [&] {
          const std::uint64_t a0 = allocations();
          ta = timed([&] {
            ScopedSpan span(spans, "switch.run");
            A.run(kSegmentCycles);
          });
          a_allocs += allocations() - a0;
        };
        const auto step_b = [&] { tb = timed([&] { B.run(kSegmentCycles); }); };
        if (s % 2 == 0) {
          step_a();
          step_b();
        } else {
          step_b();
          step_a();
        }
        pass_a += ta;
        pass_b += tb;
        w.add(1.0, static_cast<double>(kSegmentCycles), ta, {ta * 1e3});
        w.add(1.0, static_cast<double>(kSegmentCycles), tb, {tb * 1e3});
        if (p == 0 && s == 0) {
          backlog_first = max_backlog(A);
          rss_first = rss_mb();
        }
      }
    }
    out.attempted += 2 * kSegmentsPerPass;
    const std::string da = switch_digest(A), db = switch_digest(B);
    out.check(da == db, "digest differs between the two instances: " + da +
                            " vs " + db);
    if (!check_switch(out, A) || da != db) out.failed += 2 * kSegmentsPerPass;
    if (p == 0) {
      Outcome::note("digest: " + da);
      const double cycles = static_cast<double>(kSegmentsPerPass) *
                            static_cast<double>(kSegmentCycles);
      const double stepped = cycles -
                             static_cast<double>(A.ff_idle_stepped_cycles() - a_idle0) -
                             static_cast<double>(A.ff_skipped_cycles() - a_jump0);
      t.set("switch.cycles_stepped", stepped);
      t.set("switch.cycles_idle", static_cast<double>(A.ff_idle_stepped_cycles() - a_idle0));
      t.set("switch.cycles_jumped", static_cast<double>(A.ff_skipped_cycles() - a_jump0));
      t.set("switch.ff_ratio", 1.0 - stepped / cycles);
      t.set("switch.grants", static_cast<double>(grants_of(A)));
      std::uint64_t delivered = 0;
      for (FlowId f = 0; f < A.workload().num_flows(); ++f) {
        delivered += A.delivered_packets(f);
      }
      t.set("switch.delivered", static_cast<double>(delivered));
    }
    if (p < kRadixLateSetups) (void)set_up();
    t.sample("switch.run_s", pass_a);
    t.sample("switch.ns_per_stepped_cycle",
             pass_a * 1e9 / (t.value("switch.cycles_stepped")));
    t.sample("bench.glue_s", a.trace ? spans.layer_self(root)["bench"] - pass_b : 0.0);
    t.sample("trace.untraced_pass_s", pass_b);
    t.sample("trace.traced_pass_s", pass_a);
    t.sample("trace.overhead_frac", pass_a / pass_b - 1.0);
  }
  // Stationarity: a bounded workload reached its backlog and memory peaks
  // during warmup; growth while measuring means a queue is growing.
  const std::uint64_t backlog_last = max_backlog(A);
  const double rss_last = rss_mb();
  Outcome::note("stationarity: max source backlog " + std::to_string(backlog_first) +
                " -> " + std::to_string(backlog_last) + " packets, RSS " +
                std::to_string(rss_first) + " -> " + std::to_string(rss_last) +
                " MB over " + std::to_string(passes * kSegmentsPerPass) +
                " segments");
  out.check(backlog_last <= backlog_first,
            "max source backlog grew while measuring: not stationary");
  out.check(rss_last <= rss_first + kRssSlackMb,
            "RSS grew while measuring: not stationary");
  Outcome::note("passes: " + std::to_string(passes) + " x 2 instances x " +
                std::to_string(kSegmentsPerPass) + " segments of " +
                std::to_string(kSegmentCycles) + " cycles");
  if (!a.trace) {
    emit_end_to_end(out, w, setup_s);
    return out;
  }
  const double per_cycle = static_cast<double>(a_allocs) /
                           (static_cast<double>(passes) * kSegmentsPerPass *
                            static_cast<double>(kSegmentCycles));
  t.set("switch.allocs_per_cycle", per_cycle);
  t.set("switch.max_source_backlog", static_cast<double>(backlog_last));
  out.check(per_cycle == 0.0, "stepping allocated on the heap");
  spans.write_jsonl(a.work_dir + "/sim_radix64-seed" + std::to_string(a.seed) +
                    ".spans.jsonl");
  layer_sum(t, {"switch.run_s", "bench.glue_s"});
  Outcome::note("per-layer (traced; seconds per pass of " +
                std::to_string(kSegmentsPerPass) + " segments):");
  t.emit(out);
  return out;
}

// ---- main ------------------------------------------------------------------

void print_result(const Outcome& out) {
  std::string s = "{\"correct\": ";
  s += out.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(out.attempted);
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

constexpr const char* kUsage =
    "usage: perfbench --workload campaign_dense|fuzz_sparse_monitor|sim_radix64\n"
    "                 --seed N --seconds S --trace 0|1 [--work-dir DIR]\n";

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      return false;
    }
  }
  return a.workload == "campaign_dense" || a.workload == "fuzz_sparse_monitor" ||
         a.workload == "sim_radix64";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (a.trace != static_cast<bool>(PERFBENCH_TRACED)) {
    std::fprintf(stderr, "perfbench: --trace %d needs the %s binary\n",
                 a.trace ? 1 : 0, a.trace ? "perfbench_traced" : "perfbench");
    return 2;
  }
  try {
    fs::create_directories(a.work_dir);
    Outcome::note(host_line());
    Outcome::note("workload=" + a.workload + " seed=" + std::to_string(a.seed) +
                  " seconds=" + std::to_string(a.seconds) +
                  " trace=" + (a.trace ? "1" : "0"));
    Outcome out;
    if (a.workload == "campaign_dense") {
      out = a.trace ? campaign_traced(a) : campaign_untraced(a);
    } else if (a.workload == "fuzz_sparse_monitor") {
      out = a.trace ? fuzz_traced(a) : fuzz_untraced(a);
    } else {
      out = radix64_run(a);
    }
    std::fflush(stdout);
    print_result(out);
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 3;
  }
}
