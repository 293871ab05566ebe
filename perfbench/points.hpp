// The benchmark's workloads: named lists of simulator points, each a
// configuration for one public entry point (workload::runSetBench or
// traffic::runService), plus the code that sets a point up, runs it and
// checks its simulated output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "htm/stats.hpp"
#include "obs/attribution.hpp"
#include "traffic/service.hpp"
#include "workload/setbench.hpp"

namespace perfbench {

struct Point {
  std::string name;
  bool service = false;              // runService (else runSetBench)
  natle::workload::SetBenchConfig set;  // used when !service
  natle::traffic::ServiceConfig svc;    // used when service

  const natle::sim::MachineConfig& machine() const {
    return service ? svc.machine : set.machine;
  }
  int nthreads() const { return service ? svc.nthreads : set.nthreads; }
  // Simulated thread-cycles the point retires: every simulated thread runs
  // through the full warm-up + measurement window (the unit of
  // bench/BENCH_simthroughput.json).
  double threadCycles() const;
  // The measurement window's share of the simulated time the point runs.
  double measuredShare() const;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
};

// Builds a workload's points with `seed` in every point's config. Returns
// false for an unknown name.
bool makeWorkload(const std::string& name, uint64_t seed, Workload* out);

// The outcome of one run of a point.
struct PointRun {
  bool ok = false;
  std::string error;  // why the point failed (exception, watchdog, 0 ops)
  double wall_s = 0;  // host wall time of the run call
  double cpu_s = 0;   // host user+sys time of the run call
  uint64_t digest = 0;  // hash of every simulated statistic
  double mops = 0;
  double abort_rate = 0;
  natle::htm::TxStats stats;
  bool has_service = false;
  natle::traffic::ServiceResult service;
  bool has_attribution = false;
  natle::obs::Attribution attribution;
};

// Runs one point through its public entry point; `trace` attaches the
// observability tracer. Never throws: failures come back in PointRun.
PointRun runPoint(const Point& p, bool trace);

// The point's set-up: its entry point called with an empty simulated window
// (warm-up and measurement 0 ms), so the call is the program's own htm::Env
// construction, AVL prefill through setupCtx(), lock construction, worker
// spawn and tear-down. Returns the host seconds of the call; an exception's
// message goes to `error`.
double setupPoint(const Point& p, std::string* error);

}  // namespace perfbench
