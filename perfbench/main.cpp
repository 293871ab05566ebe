// natle-sim benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//
// --trace 0 is the end-to-end pass: untraced set-up and runs of every point
// of the workload, repeated until S seconds are used (at least twice, so
// each point's simulated digest is compared across two runs), reporting
// host speed, set-up time, memory and paper fidelity; host times are scaled
// to the defining host's speed by the reference work in hostref.hpp, timed
// between the calls. --trace 1 is the
// traced pass: each point runs untraced and then traced (digests must
// match), the layer probes run, and per-layer numbers plus the span file
// come out. The last stdout line is one JSON object; the exit code is 1
// when a correctness check failed and 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "hostref.hpp"
#include "paper.hpp"
#include "points.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

using natle::htm::AbortReason;

// Set-up rounds over the workload's points. The end-to-end pass makes
// kSetupRoundsPerRep before each timed repetition, so the set-ups sample the
// host over the whole run as the timed runs do; the traced pass, which only
// needs the set-up to split its run calls' wall time, makes
// kTracedSetupRounds.
constexpr int kSetupRoundsPerRep = 7;
constexpr int kTracedSetupRounds = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload {avl-2s,mesh-1024,service-mix} "
               "--seed N --seconds S --trace {0,1} [--spans FILE]\n",
               why);
  std::exit(2);
}

bool parseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      if (!parseU64(v, &a.seed)) usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (k == "--seconds") {
      if (!parseU64(v, &n) || n < 1 || n > 3600) {
        usage("--seconds takes an integer in [1, 3600]");
      }
      a.seconds = static_cast<double>(n);
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] - '0';
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds == 0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Metrics in output order, each with its unit. Each name is set once.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, unit, value});
  }
  void print(const std::string& workload) const {
    for (const Row& r : rows_) {
      std::printf("%-12s %-34s %.6g %s\n", workload.c_str(), r.name.c_str(),
                  r.value, r.unit);
    }
  }
  std::string json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < rows_.size(); ++i) {
      const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0;
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", rows_[i].name.c_str(), v,
                    rows_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    const char* unit;
    double value;
  };
  std::vector<Row> rows_;
};

// Correctness bookkeeping: a point fails when a run throws, trips the
// watchdog, retires zero operations, or its simulated digest differs from
// the point's first run.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w), ref_(w.points.size(), 0),
        have_ref_(w.points.size(), false), failed_(w.points.size(), false) {}

  void check(size_t i, const PointRun& r, const char* what) {
    if (!r.ok) {
      fail(i, std::string(what) + ": " + r.error);
      return;
    }
    if (!have_ref_[i]) {
      ref_[i] = r.digest;
      have_ref_[i] = true;
    } else if (r.digest != ref_[i]) {
      char buf[128];
      std::snprintf(buf, sizeof buf, "%s: digest %016llx != first run %016llx",
                    what, static_cast<unsigned long long>(r.digest),
                    static_cast<unsigned long long>(ref_[i]));
      fail(i, buf);
    }
  }
  void fail(size_t i, const std::string& why) {
    std::printf("FAILED %s/%s: %s\n", w_.name.c_str(),
                w_.points[i].name.c_str(), why.c_str());
    failed_[i] = true;
  }
  size_t failed() const {
    return static_cast<size_t>(std::count(failed_.begin(), failed_.end(), true));
  }

 private:
  const Workload& w_;
  std::vector<uint64_t> ref_;
  std::vector<bool> have_ref_;
  std::vector<bool> failed_;
};

const PointRun* findRun(const Workload& w, const std::vector<PointRun>& runs,
                        const char* name) {
  for (size_t i = 0; i < w.points.size(); ++i) {
    if (w.points[i].name == name) return &runs[i];
  }
  return nullptr;
}

// Mean absolute error, in percentage points, of the avl-2s points against
// the paper table. Negative when a point it needs is missing or failed.
double paperGap(const Workload& w, const std::vector<PointRun>& runs) {
  double sum = 0;
  for (const PaperValue& pv : kPaperTable) {
    const PointRun* a = findRun(w, runs, pv.a);
    const PointRun* b = pv.b != nullptr ? findRun(w, runs, pv.b) : nullptr;
    if (a == nullptr || !a->ok) return -1;
    double sim = 0;
    if (pv.stat == PaperStat::kAbortRatePct) {
      sim = 100.0 * a->abort_rate;
    } else {
      if (b == nullptr || !b->ok || a->mops <= 0) return -1;
      sim = 100.0 * (b->mops / a->mops - 1.0);
    }
    std::printf("paper %-7s %-46s paper %+6.1f%%  sim %+6.1f%%\n", pv.figure,
                pv.what, pv.paper_pct, sim);
    sum += std::fabs(sim - pv.paper_pct);
  }
  return sum / static_cast<double>(std::size(kPaperTable));
}

void printPoints(const Workload& w, const std::vector<PointRun>& runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    const PointRun& r = runs[i];
    std::printf("point %-12s %-12s wall %7.3f s  cpu %7.3f s  %9.3f Mops/s"
                "  abort rate %.3f  ops %llu\n",
                w.name.c_str(), w.points[i].name.c_str(), r.wall_s, r.cpu_s,
                r.mops, r.abort_rate,
                static_cast<unsigned long long>(r.stats.ops));
  }
}

struct Outcome {
  Metrics metrics;
  size_t attempted = 0;
  size_t failed = 0;
};

// The avl-2s points the paper table reads, run once untraced at the run's
// seed. avl-2s reads them from its own first repetition; the other
// workloads run them after their timed repetitions, outside every host-time
// metric, so paper_gap is the same model figure on every workload.
double fidelity(const Workload& w, const std::vector<PointRun>& first,
                uint64_t seed, Outcome* out) {
  if (w.name == "avl-2s") return paperGap(w, first);
  Workload full;
  makeWorkload("avl-2s", seed, &full);
  Workload ref;
  ref.name = "avl-2s";
  for (const Point& p : full.points) {
    for (const PaperValue& pv : kPaperTable) {
      if (p.name == pv.a || (pv.b != nullptr && p.name == pv.b)) {
        ref.points.push_back(p);
        break;
      }
    }
  }
  Checker check(ref);
  std::vector<PointRun> runs;
  for (size_t i = 0; i < ref.points.size(); ++i) {
    runs.push_back(runPoint(ref.points[i], false));
    check.check(i, runs.back(), "paper reference run");
  }
  out->attempted += ref.points.size();
  out->failed += check.failed();
  return paperGap(ref, runs);
}

// Sets every point up `rounds` times, in rounds over the points, through
// its entry point with an empty simulated window (setupPoint), and appends
// the host seconds of each set-up to secs[point]. A set-up that throws
// fails its point.
void setUp(const Workload& w, int rounds, Checker& check, SpanRecorder* spans,
           std::vector<std::vector<double>>* secs) {
  secs->resize(w.points.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < w.points.size(); ++i) {
      ScopedSpan span(spans, "setup " + w.points[i].name, "setup");
      std::string error;
      (*secs)[i].push_back(setupPoint(w.points[i], &error));
      if (!error.empty()) check.fail(i, "set-up: " + error);
    }
  }
}

// Each point's median set-up seconds.
std::vector<double> medians(const std::vector<std::vector<double>>& secs) {
  std::vector<double> out;
  for (const std::vector<double>& v : secs) out.push_back(median(v));
  return out;
}

// --trace 0: the end-to-end pass.
Outcome endToEnd(const Workload& w, const Args& args) {
  Outcome out;
  Checker check(w);

  // Every host time below is divided by the host slowdown measured around
  // its call (hostref.hpp), giving seconds of the defining host.
  std::vector<std::vector<double>> setup_secs(w.points.size());
  std::vector<double> slowdowns;
  HostRef host;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> rate, cpu, critical;
  std::vector<PointRun> first;
  double peak_rss = 0;
  double rep_s = 0;
  for (int rep = 0; rep < 2 || secondsSince(t0) + rep_s <= args.seconds; ++rep) {
    const auto r0 = std::chrono::steady_clock::now();
    for (int round = 0; round < kSetupRoundsPerRep; ++round) {
      std::vector<std::vector<double>> secs;
      setUp(w, 1, check, nullptr, &secs);
      slowdowns.push_back(host.next());
      for (size_t i = 0; i < secs.size(); ++i) {
        setup_secs[i].push_back(secs[i][0] / slowdowns.back());
      }
    }
    double wall = 0, cpu_sum = 0, worst = 0, cycles = 0;
    std::vector<PointRun> runs;
    for (size_t i = 0; i < w.points.size(); ++i) {
      runs.push_back(runPoint(w.points[i], false));
      slowdowns.push_back(host.next());
      const PointRun& r = runs.back();
      check.check(i, r, rep == 0 ? "run 1" : "repeat run");
      wall += r.wall_s / slowdowns.back();
      cpu_sum += r.cpu_s / slowdowns.back();
      worst = std::max(worst, r.wall_s / slowdowns.back());
      cycles += w.points[i].threadCycles();
    }
    if (rep == 0) printPoints(w, runs);
    rate.push_back(wall > 0 ? cycles / wall / 1e6 : 0);
    cpu.push_back(cpu_sum);
    critical.push_back(worst);
    std::printf("repetition %d: sim_rate %.4g Mthreadcycles/s, cpu %.4g s, "
                "critical point %.4g s (scaled; host slowdown %.4g)\n",
                rep + 1, rate.back(), cpu_sum, worst, slowdowns.back());
    if (rep == 0) {
      first = std::move(runs);
      // Read after a fixed amount of work: set-up and one pass over the
      // points. The heap keeps growing for a few more passes, and how many
      // fit in --seconds depends on the host's speed.
      peak_rss = peakRssMb();
    }
    rep_s = secondsSince(r0);
  }

  out.attempted = w.points.size();
  out.failed = check.failed();
  const double gap = fidelity(w, first, args.seed, &out);
  std::printf("host slowdown %.4g (median over %zu timed calls; reference "
              "%.4g s nominal)\n",
              median(slowdowns), slowdowns.size(), HostRef::kNominalSeconds);
  Metrics& m = out.metrics;
  m.set("sim_rate", median(rate), "Mthreadcycles/s");
  m.set("cpu_s", median(cpu), "s");
  m.set("critical_point_s", median(critical), "s");
  const std::vector<double> setup = medians(setup_secs);
  m.set("setup_s", std::accumulate(setup.begin(), setup.end(), 0.0), "s");
  m.set("peak_rss_mb", peak_rss, "MB");
  m.set("paper_gap", gap, "pp");
  // A negative gap means a paper-table point failed (already counted) or is
  // missing from the workload definition.
  if (gap < 0 && out.failed == 0) ++out.failed;
  std::printf("%-12s %-34s %.6g (%zu / %zu points; %zu timed repetitions)\n",
              w.name.c_str(), "fail_frac",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted),
              out.failed, out.attempted, rate.size());
  return out;
}

// Simulated statistics of one pass over the workload's points, summed.
struct PassTotals {
  natle::htm::TxStats stats;
  double mops = 0;
  double thread_cycles = 0;
  natle::obs::Attribution attribution;
};

PassTotals totalsOf(const Workload& w, const std::vector<PointRun>& runs) {
  PassTotals t;
  for (size_t i = 0; i < runs.size(); ++i) {
    t.stats += runs[i].stats;
    t.mops += runs[i].mops;
    t.thread_cycles += w.points[i].threadCycles();
    if (runs[i].has_attribution) t.attribution += runs[i].attribution;
  }
  return t;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Per-layer metrics. Every workload reports every name (zero where the
// workload does not run the layer) so the set of metrics is fixed.
void layerMetrics(const Workload& w, const std::vector<PointRun>& untraced,
                  const std::vector<PointRun>& traced,
                  const std::vector<double>& setup,
                  double trace_overhead, const std::vector<ProbeResult>& probes,
                  const std::map<std::string, double>& self_s, Metrics& m) {
  const PassTotals t = totalsOf(w, traced);
  // Host seconds of the untraced measurement windows, the base of the host
  // ratios below (their counts start after the warm-up). Each run call's
  // wall time, less the point's set-up, is split between warm-up and
  // measurement in proportion to simulated time.
  double window_s = 0;
  for (size_t i = 0; i < untraced.size(); ++i) {
    window_s += std::max(0.0, untraced[i].wall_s - setup[i]) *
                w.points[i].measuredShare();
  }
  const natle::htm::TxStats& s = t.stats;
  auto probe = [&](const std::string& name) {
    for (const ProbeResult& p : probes) {
      if (p.name == name) m.set(p.name, p.value, p.unit);
    }
  };

  m.set("sim.thread_cycles", t.thread_cycles, "cycles");
  probe("sim.yield_ns.t36");
  probe("sim.yield_ns.t1024");
  probe("sim.spawn_us");

  const double accesses = static_cast<double>(s.l1_hits + s.local_hits +
                                              s.remote_transfers + s.dram_misses);
  m.set("mem.l1_hits", static_cast<double>(s.l1_hits), "count");
  m.set("mem.local_hits", static_cast<double>(s.local_hits), "count");
  m.set("mem.remote_transfers", static_cast<double>(s.remote_transfers), "count");
  m.set("mem.dram_misses", static_cast<double>(s.dram_misses), "count");
  m.set("mem.accesses", accesses, "count");
  m.set("mem.remote_frac", ratio(static_cast<double>(s.remote_transfers), accesses),
        "ratio");
  m.set("mem.host_ns_per_access", ratio(window_s * 1e9, accesses), "ns");
  probe("mem.l1_hit_ns");
  probe("mem.fill_ns");
  probe("mem.pingpong_ns.2s");
  probe("mem.pingpong_ns.mesh");

  const double aborts = static_cast<double>(s.totalAborts());
  m.set("htm.tx_begins", static_cast<double>(s.tx_begins), "count");
  m.set("htm.tx_commits", static_cast<double>(s.tx_commits), "count");
  for (AbortReason r : {AbortReason::kConflict, AbortReason::kCapacity,
                        AbortReason::kExplicit, AbortReason::kSpurious}) {
    m.set(std::string("htm.aborts.") + natle::htm::toString(r),
          static_cast<double>(s.tx_aborts[static_cast<int>(r)]), "count");
  }
  m.set("htm.commit_ratio",
        ratio(static_cast<double>(s.tx_commits), static_cast<double>(s.tx_begins)),
        "ratio");
  m.set("htm.host_ns_per_tx_begin",
        ratio(window_s * 1e9, static_cast<double>(s.tx_begins)), "ns");
  // Conservation residue, reported against its base htm.tx_begins.
  m.set("htm.unbalanced_tx",
        static_cast<double>(s.tx_commits) + aborts - static_cast<double>(s.tx_begins),
        "count");
  probe("htm.tx_ns");
  probe("htm.abort_ns");

  m.set("sync.lock_acquires", static_cast<double>(s.lock_acquires), "count");
  m.set("sync.fallback_frac",
        ratio(static_cast<double>(s.lock_acquires), static_cast<double>(s.ops)),
        "ratio");
  probe("sync.execute_ns.tle");
  probe("sync.execute_ns.natle");
  probe("sync.execute_ns.backoff");

  probe("ds.avl_insert_ns.setup");
  probe("ds.avl_op_ns.run");

  m.set("workload.ops", static_cast<double>(s.ops), "count");
  m.set("workload.mops", t.mops, "Mops/s");
  m.set("workload.host_us_per_op", ratio(window_s * 1e6, static_cast<double>(s.ops)),
        "us");
  m.set("workload.setup_ms",
        std::accumulate(setup.begin(), setup.end(), 0.0) * 1e3, "ms");

  // traffic: per class summed over the workload's service points (latency:
  // the worst point), per point backlog and peak queue.
  Workload svc;
  makeWorkload("service-mix", 0, &svc);
  double unaccounted = 0;
  for (const char* cls : {"point", "scan", "bulk"}) {
    double offered = 0, completed = 0, shed = 0, expired = 0, gave_up = 0,
           retried = 0, p50 = 0, p99 = 0;
    for (const PointRun& r : traced) {
      for (const natle::traffic::ClassMetrics& c : r.service.classes) {
        if (c.name != cls) continue;
        offered += static_cast<double>(c.offered);
        completed += static_cast<double>(c.completed);
        shed += static_cast<double>(c.shed);
        expired += static_cast<double>(c.expired);
        gave_up += static_cast<double>(c.deadline_giveups);
        retried += static_cast<double>(c.retried);
        p50 = std::max(p50, c.latency.p50_us);
        p99 = std::max(p99, c.latency.p99_us);
      }
    }
    const std::string k = std::string("traffic.") + cls;
    m.set(k + ".offered", offered, "count");
    m.set(k + ".completed", completed, "count");
    m.set(k + ".shed", shed, "count");
    m.set(k + ".expired", expired, "count");
    m.set(k + ".gave_up", gave_up, "count");
    m.set(k + ".retried", retried, "count");
    m.set(k + ".goodput_frac", ratio(completed, offered), "ratio");
    m.set(k + ".p50_us", p50, "us");
    m.set(k + ".p99_us", p99, "us");
    unaccounted += offered - completed - shed - expired - gave_up;
  }
  for (const Point& sp : svc.points) {
    double backlog = 0, peak = 0;
    for (size_t i = 0; i < traced.size(); ++i) {
      if (w.points[i].service && w.points[i].name == sp.name) {
        backlog = static_cast<double>(traced[i].service.backlog_end);
        peak = static_cast<double>(traced[i].service.peak_queue);
        unaccounted -= backlog;
      }
    }
    m.set("traffic.backlog_end." + sp.name, backlog, "count");
    m.set("traffic.peak_queue." + sp.name, peak, "count");
  }
  // Conservation residue: offered - completed - shed - expired - gave_up -
  // backlog, reported against its base traffic.<class>.offered.
  m.set("traffic.unaccounted", unaccounted, "count");
  probe("traffic.arrival_ns");
  probe("traffic.latency_add_ns");
  probe("traffic.admission_ns");

  const natle::obs::Attribution& a = t.attribution;
  m.set("obs.trace_overhead", trace_overhead, "ratio");
  m.set("obs.cross_socket_aborts", static_cast<double>(a.crossSocketAborts()), "count");
  m.set("obs.intra_socket_aborts", static_cast<double>(a.intraSocketAborts()), "count");
  m.set("obs.self_aborts", static_cast<double>(a.selfOrUnknownAborts()), "count");
  m.set("obs.capacity_evictions", static_cast<double>(a.capacityEvictions()), "count");
  m.set("obs.fallback_episodes", static_cast<double>(a.fallbackEpisodes()), "count");
  m.set("obs.longest_episode", static_cast<double>(a.longestFallbackEpisode()),
        "count");

  for (const char* layer :
       {"bench", "setup", "run.workload", "run.traffic", "probe.sim", "probe.mem",
        "probe.htm", "probe.sync", "probe.ds", "probe.traffic"}) {
    const auto it = self_s.find(layer);
    m.set(std::string("span.self_s.") + layer, it != self_s.end() ? it->second : 0,
          "s");
  }
}

// --trace 1: the traced pass.
Outcome tracedPass(const Workload& w, const Args& args) {
  Outcome out;
  Checker check(w);
  SpanRecorder spans;
  std::vector<PointRun> untraced, traced;
  std::vector<ProbeResult> probes;
  std::vector<double> overhead;
  std::vector<double> setup;
  {
    ScopedSpan root(&spans, "perfbench " + w.name, "bench");
    std::vector<std::vector<double>> setup_secs;
    setUp(w, kTracedSetupRounds, check, &spans, &setup_secs);
    setup = medians(setup_secs);
    const auto t0 = std::chrono::steady_clock::now();
    double rep_s = 0;
    for (int rep = 0; rep < 1 || secondsSince(t0) + rep_s <= args.seconds; ++rep) {
      const auto r0 = std::chrono::steady_clock::now();
      double wall_u = 0, wall_t = 0;
      for (size_t i = 0; i < w.points.size(); ++i) {
        const Point& p = w.points[i];
        const char* layer = p.service ? "run.traffic" : "run.workload";
        const std::string entry = p.service ? "runService " : "runSetBench ";
        ScopedSpan point_span(&spans, "point " + p.name, "bench");
        PointRun u, t;
        {
          ScopedSpan span(&spans, entry + p.name + " untraced", layer);
          u = runPoint(p, false);
        }
        check.check(i, u, "untraced run");
        {
          ScopedSpan span(&spans, entry + p.name + " traced", layer);
          t = runPoint(p, true);
        }
        check.check(i, t, "traced run");
        wall_u += u.wall_s;
        wall_t += t.wall_s;
        if (rep == 0) {
          untraced.push_back(std::move(u));
          traced.push_back(std::move(t));
        }
      }
      overhead.push_back(ratio(wall_t, wall_u));
      rep_s = secondsSince(r0);
    }
    if (!untraced.empty()) printPoints(w, untraced);
    ScopedSpan span(&spans, "probes", "bench");
    probes = runProbes(&spans);
  }
  for (const ProbeResult& p : probes) {
    if (p.error.empty()) continue;
    std::printf("FAILED %s/%s: %s\n", w.name.c_str(), p.name.c_str(),
                p.error.c_str());
    ++out.failed;
  }
  // Attempted: the points, each probe, and writing the span file.
  out.attempted = w.points.size() + probes.size() + (args.spans.empty() ? 0 : 1);
  out.failed += check.failed();
  layerMetrics(w, untraced, traced, setup, median(overhead), probes,
               spans.selfSecondsByLayer(), out.metrics);
  if (!args.spans.empty() && !spans.write(args.spans)) {
    std::printf("FAILED %s: cannot write span file %s\n", w.name.c_str(),
                args.spans.c_str());
    ++out.failed;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parseArgs(argc, argv);
  Workload w;
  if (!makeWorkload(args.workload, args.seed, &w)) {
    usage(("unknown workload " + args.workload).c_str());
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  const Outcome o = args.trace == 0 ? endToEnd(w, args) : tracedPass(w, args);
  o.metrics.print(w.name);
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
      o.failed == 0 ? "true" : "false", o.attempted, o.failed,
      o.metrics.json().c_str());
  return o.failed == 0 ? 0 : 1;
}
