#include "points.hpp"

#include <chrono>
#include <cstring>
#include <ctime>
#include <exception>
#include <type_traits>
#include <utility>

#include "util.hpp"

namespace perfbench {

using namespace natle;

namespace {

// Simulated windows (ms). Statistics start after the warm-up, so the
// modelled L1 filters and directory are warm when counting begins.
constexpr double kAvlWarmupMs = 0.5;
constexpr double kAvlMeasureMs = 1.5;
constexpr double kMeshWarmupMs = 0.1;
constexpr double kMeshMeasureMs = 0.25;
constexpr double kMeshWatchdogMs = 2.0;
constexpr double kSvcWarmupMs = 0.5;
constexpr double kSvcMeasureMs = 2.0;

// service-mix class mix, by request count: the point:scan:bulk arrival
// rates of the repository's service_multitenant experiment (10000:300:40
// requests per simulated ms), with every class Poisson.
constexpr double kSvcPointRate = 10000;
constexpr double kSvcScanRate = 300;
constexpr double kSvcBulkRate = 40;
constexpr double kSvcMixRate = kSvcPointRate + kSvcScanRate + kSvcBulkRate;

// service-mix offered load, requests per simulated ms summed over the three
// classes. Saturation of the TLE service was located once by sweeping this
// rate with overload controls off; the points sit at about half of it and
// about 1.5x it.
constexpr double kSvcSaturationRate = 27000;

Point setPoint(std::string name, const workload::SetBenchConfig& cfg) {
  Point p;
  p.name = std::move(name);
  p.set = cfg;
  return p;
}

Workload avl2s(uint64_t seed) {
  Workload w;
  w.name = "avl-2s";
  workload::SetBenchConfig base;
  base.machine = sim::LargeMachine();
  base.seed = seed;
  base.warmup_ms = kAvlWarmupMs;
  base.measure_ms = kAvlMeasureMs;

  // Figures 4 and 5: search-and-replace on keys [0, 4096).
  workload::SetBenchConfig sr = base;
  sr.key_range = 4096;
  sr.search_replace = true;
  for (int n : {36, 42, 72}) {
    sr.nthreads = n;
    sr.sync = workload::SyncKind::kTle;
    w.points.push_back(setPoint("sr-tle-" + std::to_string(n), sr));
  }
  for (int n : {36, 72}) {
    sr.nthreads = n;
    sr.sync = workload::SyncKind::kNone;
    w.points.push_back(setPoint("sr-nosync-" + std::to_string(n), sr));
  }
  // Figure 12's hardest panel: 100% updates on keys [0, 2048).
  workload::SetBenchConfig upd = base;
  upd.key_range = 2048;
  upd.update_pct = 100;
  upd.tle = sync::Tle20();
  for (workload::SyncKind k :
       {workload::SyncKind::kTle, workload::SyncKind::kNatle}) {
    for (int n : {36, 72}) {
      upd.nthreads = n;
      upd.sync = k;
      w.points.push_back(setPoint(std::string("upd-") +
                                      (k == workload::SyncKind::kTle
                                           ? "tle20-"
                                           : "natle-") +
                                      std::to_string(n),
                                  upd));
    }
  }
  return w;
}

Workload mesh1024(uint64_t seed) {
  Workload w;
  w.name = "mesh-1024";
  workload::SetBenchConfig base;
  base.machine = sim::Mesh2D(8, 8, 8);  // 64 tiles, 1024 hardware threads
  base.pin = sim::PinPolicy::kAlternateSockets;  // round-robin over tiles
  base.key_range = 2048;
  base.update_pct = 100;
  base.seed = seed;
  base.warmup_ms = kMeshWarmupMs;
  base.measure_ms = kMeshMeasureMs;
  base.watchdog_ms = kMeshWatchdogMs;
  for (int n : {256, 1024}) {
    base.nthreads = n;
    base.sync = workload::SyncKind::kTle;
    w.points.push_back(setPoint("tle-" + std::to_string(n), base));
  }
  base.nthreads = 1024;
  base.sync = workload::SyncKind::kNatle;
  // As manycore_scaling does: one profile -> decide -> quanta round (10x the
  // profiling phase) must fit inside the measurement window.
  base.natle.profiling_ms = kMeshMeasureMs / 10;
  w.points.push_back(setPoint("natle-1024", base));
  return w;
}

Workload serviceMix(uint64_t seed) {
  Workload w;
  w.name = "service-mix";
  traffic::ServiceConfig base;
  base.machine = sim::LargeMachine();
  base.model = traffic::ClientModel::kOpen;
  base.nthreads = 36;
  base.key_range = 65536;
  base.seed = seed;
  base.warmup_ms = kSvcWarmupMs;
  base.measure_ms = kSvcMeasureMs;

  traffic::ClassSpec point;
  point.name = "point";
  point.kind = traffic::RequestKind::kPoint;
  point.update_pct = 10;
  point.slo_us = 100;
  point.deadline_us = 60;
  traffic::ClassSpec scan;
  scan.name = "scan";
  scan.kind = traffic::RequestKind::kScan;
  scan.scan_len = 64;
  scan.slo_us = 400;
  scan.deadline_us = 240;
  traffic::ClassSpec bulk;
  bulk.name = "bulk";
  bulk.kind = traffic::RequestKind::kBulk;
  bulk.bulk_n = 24;
  bulk.slo_us = 400;
  bulk.deadline_us = 240;
  base.admission.kind = traffic::AdmissionKind::kCodel;
  base.admission.target_us = 50;
  base.admission.window_us = 100;
  base.degrade = true;
  base.retry.max_attempts = 2;
  base.retry.base_backoff_us = 20;
  base.retry.max_backoff_us = 80;

  struct Load {
    const char* name;
    workload::SyncKind sync;
    double factor;  // of kSvcSaturationRate
  };
  for (const Load& l : {Load{"tle-0.5x", workload::SyncKind::kTle, 0.5},
                        Load{"tle-1.5x", workload::SyncKind::kTle, 1.5},
                        Load{"natle-1.5x", workload::SyncKind::kNatle, 1.5}}) {
    traffic::ServiceConfig cfg = base;
    cfg.sync = l.sync;
    const double rate = kSvcSaturationRate * l.factor;
    point.arrival.rate = rate * kSvcPointRate / kSvcMixRate;
    scan.arrival.rate = rate * kSvcScanRate / kSvcMixRate;
    bulk.arrival.rate = rate * kSvcBulkRate / kSvcMixRate;
    cfg.classes = {point, scan, bulk};
    Point p;
    p.name = l.name;
    p.service = true;
    p.svc = cfg;
    w.points.push_back(std::move(p));
  }
  return w;
}

double cpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// FNV-1a over the raw bytes of simulated statistics.
class Digest {
 public:
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t digestOf(const PointRun& r) {
  Digest d;
  const htm::TxStats& s = r.stats;
  d.add(s.tx_begins);
  d.add(s.tx_commits);
  for (uint64_t a : s.tx_aborts) d.add(a);
  d.add(s.commits_after_hintclear_fail);
  d.add(s.lock_acquires);
  d.add(s.l1_hits);
  d.add(s.local_hits);
  d.add(s.remote_transfers);
  d.add(s.dram_misses);
  d.add(s.ops);
  if (r.has_service) {
    const traffic::ServiceResult& sv = r.service;
    d.add(sv.backlog_end);
    d.add(sv.peak_queue);
    for (const traffic::ClassMetrics& c : sv.classes) {
      d.add(c.offered);
      d.add(c.completed);
      d.add(c.shed);
      d.add(c.expired);
      d.add(c.deadline_giveups);
      d.add(c.retried);
      d.add(c.retry_dropped);
      d.add(c.slo_violations);
      d.add(c.latency.count);
      d.add(c.latency.p50_us);
      d.add(c.latency.p99_us);
      d.add(c.latency.max_us);
      d.add(c.goodput_krps);
    }
  }
  return d.value();
}

}  // namespace

double Point::threadCycles() const {
  const double window_ms = service ? svc.warmup_ms + svc.measure_ms
                                   : set.warmup_ms + set.measure_ms;
  return static_cast<double>(machine().msToCycles(window_ms)) * nthreads();
}

double Point::measuredShare() const {
  const double warmup = service ? svc.warmup_ms : set.warmup_ms;
  const double measure = service ? svc.measure_ms : set.measure_ms;
  return measure / (warmup + measure);
}

bool makeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  if (name == "avl-2s") {
    *out = avl2s(seed);
  } else if (name == "mesh-1024") {
    *out = mesh1024(seed);
  } else if (name == "service-mix") {
    *out = serviceMix(seed);
  } else {
    return false;
  }
  return true;
}

PointRun runPoint(const Point& p, bool trace) {
  PointRun r;
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = cpuSeconds();
  try {
    if (p.service) {
      traffic::ServiceConfig cfg = p.svc;
      cfg.trace = trace;
      r.service = traffic::runService(cfg);
      r.has_service = true;
      r.stats = r.service.stats;
      r.abort_rate = r.service.abort_rate;
      r.mops = r.service.total_krps / 1e3;
      r.has_attribution = r.service.has_attribution;
      r.attribution = r.service.attribution;
    } else {
      workload::SetBenchConfig cfg = p.set;
      cfg.trace = trace;
      const workload::SetBenchResult res = workload::runSetBench(cfg);
      r.stats = res.stats;
      r.abort_rate = res.abort_rate;
      r.mops = res.mops;
      r.has_attribution = res.has_attribution;
      r.attribution = res.attribution;
    }
    r.ok = r.stats.ops > 0;
    if (!r.ok) r.error = "retired zero operations";
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  r.cpu_s = cpuSeconds() - c0;
  r.wall_s = secondsSince(t0);
  r.digest = digestOf(r);
  return r;
}

double setupPoint(const Point& p, std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (p.service) {
      traffic::ServiceConfig cfg = p.svc;
      cfg.warmup_ms = 0;
      cfg.measure_ms = 0;
      traffic::runService(cfg);
    } else {
      workload::SetBenchConfig cfg = p.set;
      cfg.warmup_ms = 0;
      cfg.measure_ms = 0;
      workload::runSetBench(cfg);
    }
  } catch (const std::exception& e) {
    *error = e.what();
  }
  return secondsSince(t0);
}

}  // namespace perfbench
