#include "probes.hpp"

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ds/avl.hpp"
#include "htm/env.hpp"
#include "mem/line.hpp"
#include "sim/machine.hpp"
#include "sim/rng.hpp"
#include "sim/topology.hpp"
#include "sync/backoff_tle.hpp"
#include "sync/natle.hpp"
#include "sync/tle.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrival.hpp"
#include "traffic/latency.hpp"
#include "util.hpp"

namespace perfbench {

using namespace natle;

namespace {

constexpr int kProbeReps = 5;

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Results the probes compute are folded in here so the optimiser cannot
// drop the probed calls.
volatile uint64_t g_sink = 0;

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("probe check failed: ") + what);
}

// A machine without spurious aborts, so transaction probes retire exactly
// the transactions they start.
sim::MachineConfig quietTwoSocket() {
  sim::MachineConfig mc = sim::LargeMachine();
  mc.spurious_abort_per_cycle = 0;
  return mc;
}

// Runs `body` as the only simulated thread of `env` (so the scheduler never
// switches away from it) and returns the host ns `body` reports.
double inOneFiber(htm::Env& env, const std::function<double(htm::ThreadCtx&)>& body) {
  double ns = 0;
  env.spawnWorker([&](htm::ThreadCtx& ctx) { ns = body(ctx); },
                  sim::placeThread(env.cfg(), sim::PinPolicy::kFillSocketFirst, 0));
  env.run();
  return ns;
}

// --- sim --------------------------------------------------------------------

// N fibers that only charge 10 cycles and call maybeYield, in lock step, so
// every call switches to the next fiber: ns per charge + yield + switch.
double yieldNs(const sim::MachineConfig& mc, int nthreads, int iters) {
  sim::Machine m(mc);
  for (int i = 0; i < nthreads; ++i) {
    m.spawn(
        [iters](sim::SimThread& t) {
          for (int k = 0; k < iters; ++k) {
            t.machine->charge(t, 10);
            t.machine->maybeYield(t);
          }
        },
        sim::placeThread(mc, sim::PinPolicy::kAlternateSockets, i));
  }
  const auto t0 = Clock::now();
  m.run();
  return nsSince(t0) / (static_cast<double>(nthreads) * iters);
}

// Machine::spawn of 1024 empty fibers on the 64-tile mesh: us per spawn.
double spawnUs() {
  const sim::MachineConfig mc = sim::Mesh2D(8, 8, 8);
  sim::Machine m(mc);
  constexpr int kN = 1024;
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    m.spawn([](sim::SimThread&) {},
            sim::placeThread(mc, sim::PinPolicy::kAlternateSockets, i));
  }
  const double us = nsSince(t0) / 1e3 / kN;
  m.run();  // untimed: lets the fibers finish before tear-down
  return us;
}

// --- mem --------------------------------------------------------------------

std::vector<uint64_t> linesOf(htm::Env& env, size_t n) {
  char* base = static_cast<char*>(env.allocShared(n * 64));
  std::vector<uint64_t> lines(n);
  for (size_t i = 0; i < n; ++i) lines[i] = mem::lineOf(base + i * 64);
  return lines;
}

// L1-filter probes of 256 resident lines (half the 512-line filter, four
// per set): ns per hit.
double l1HitNs() {
  htm::Env env(sim::LargeMachine());
  mem::MemorySystem& ms = env.memory();
  const std::vector<uint64_t> lines = linesOf(env, 256);
  uint64_t now = 0;
  for (uint64_t line : lines) {
    mem::LineState& s = ms.lookup(line);
    now += ms.fillRead(line, s, 0, now).latency;
    ms.install(line, s, 0, nullptr, 0);
  }
  constexpr int kIters = 4000;
  mem::L1Cache& l1 = env.l1(0);
  uint64_t hits = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kIters; ++k) {
    for (uint64_t line : lines) hits += l1.probe(line) != nullptr;
  }
  const double ns = nsSince(t0) / (static_cast<double>(kIters) * lines.size());
  require(hits == static_cast<uint64_t>(kIters) * lines.size(), "l1 hits");
  g_sink = g_sink + hits;
  return ns;
}

// Directory lookup + fillRead + L1 install over a stream of 8192 lines
// (16x the L1 filter, so every access misses it) from one core: ns per fill.
double fillNs() {
  htm::Env env(sim::LargeMachine());
  mem::MemorySystem& ms = env.memory();
  const std::vector<uint64_t> lines = linesOf(env, 8192);
  constexpr int kPasses = 40;
  uint64_t now = 0;
  const auto t0 = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (uint64_t line : lines) {
      mem::LineState& s = ms.lookup(line);
      now += ms.fillRead(line, s, 0, now).latency;
      ms.install(line, s, 0, nullptr, 0);
    }
  }
  const double ns = nsSince(t0) / (static_cast<double>(kPasses) * lines.size());
  g_sink = g_sink + now;
  return ns;
}

// One line written alternately from two domains (lookup + fillWrite +
// install each time): ns per cross-domain ownership transfer.
double pingPongNs(const sim::MachineConfig& mc, int domain_b) {
  htm::Env env(mc);
  mem::MemorySystem& ms = env.memory();
  const uint64_t line = linesOf(env, 1)[0];
  const int core_b = domain_b * mc.cores_per_socket;
  constexpr int kIters = 400000;
  uint64_t now = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kIters; ++k) {
    const bool b = (k & 1) != 0;
    mem::LineState& s = ms.lookup(line);
    now += ms.fillWrite(line, s, b ? domain_b : 0, b ? core_b : 0, now).latency;
    ms.install(line, s, b ? core_b : 0, nullptr, 0);
  }
  const double ns = nsSince(t0) / kIters;
  g_sink = g_sink + now;
  return ns;
}

// --- htm --------------------------------------------------------------------

constexpr int kTxLines = 4;

// Begin, four line-sized stores, commit: ns per transaction. Checks run
// after the fiber returns, outside simulated code.
double txNs() {
  htm::Env env(quietTwoSocket());
  auto* data = static_cast<uint64_t*>(env.allocShared(kTxLines * 64));
  constexpr int kIters = 200000;
  int commits = 0;
  const double ns = inOneFiber(env, [data, &commits](htm::ThreadCtx& ctx) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kIters; ++k) {
      unsigned status;
      NATLE_TX_BEGIN(ctx, status);
      if (status == htm::kTxStarted) {
        for (int l = 0; l < kTxLines; ++l) ctx.store(data[l * 8], uint64_t(k));
        ctx.txCommit();
        ++commits;
      }
    }
    return nsSince(t0) / kIters;
  });
  require(commits == kIters, "every probe transaction commits");
  return ns;
}

// Begin, four stores, explicit abort (rollback + landing): ns per abort.
double abortNs() {
  htm::Env env(quietTwoSocket());
  auto* data = static_cast<uint64_t*>(env.allocShared(kTxLines * 64));
  constexpr int kIters = 200000;
  int aborts = 0;
  const double ns = inOneFiber(env, [data, &aborts](htm::ThreadCtx& ctx) {
    // volatile: live across the abort's longjmp back into this frame.
    volatile int k = 0;
    const auto t0 = Clock::now();
    while (k < kIters) {
      unsigned status;
      NATLE_TX_BEGIN(ctx, status);
      if (status == htm::kTxStarted) {
        for (int l = 0; l < kTxLines; ++l) ctx.store(data[l * 8], uint64_t(l));
        ctx.txAbort(1);
      }
      ++aborts;
      k = k + 1;
    }
    return nsSince(t0) / kIters;
  });
  require(aborts == kIters, "every probe transaction aborts");
  return ns;
}

// --- sync -------------------------------------------------------------------

// An empty critical section through `lock.execute`, one thread, no
// contention: ns per execute.
template <typename Lock>
double executeNs(htm::Env& env, Lock& lock) {
  return inOneFiber(env, [&lock](htm::ThreadCtx& ctx) {
    constexpr int kIters = 100000;
    const auto t0 = Clock::now();
    for (int k = 0; k < kIters; ++k) lock.execute(ctx, [] {});
    return nsSince(t0) / kIters;
  });
}

double tleExecuteNs() {
  htm::Env env(quietTwoSocket());
  sync::TleLock lock(env);
  return executeNs(env, lock);
}

double natleExecuteNs() {
  htm::Env env(quietTwoSocket());
  sync::NatleLock lock(env);
  return executeNs(env, lock);
}

double backoffExecuteNs() {
  htm::Env env(quietTwoSocket());
  sync::BackoffTleLock lock(env, 10000);
  return executeNs(env, lock);
}

// --- ds ---------------------------------------------------------------------

// The prefill path: 32768 setup-mode inserts of shuffled keys from
// [0, 65536) (service-mix's prefill): ns per insert.
double avlInsertSetupNs() {
  htm::Env env(sim::LargeMachine());
  ds::AvlTree tree(env);
  htm::ThreadCtx& sc = env.setupCtx();
  std::vector<int64_t> keys(65536);
  for (size_t k = 0; k < keys.size(); ++k) keys[k] = static_cast<int64_t>(k);
  sim::Rng rng(7);
  for (size_t i = keys.size(); i > 1; --i) std::swap(keys[i - 1], keys[rng.below(i)]);
  const size_t n = keys.size() / 2;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < n; ++i) tree.insert(sc, keys[i]);
  return nsSince(t0) / static_cast<double>(n);
}

// One simulated thread on a tree of half of [0, 2048): 50% lookups, 25%
// inserts, 25% erases, through real (charged, coherence-tracked) accesses
// outside any transaction: ns per operation.
double avlOpRunNs() {
  htm::Env env(quietTwoSocket());
  ds::AvlTree tree(env);
  htm::ThreadCtx& sc = env.setupCtx();
  for (int64_t k = 0; k < 2048; k += 2) tree.insert(sc, k);
  return inOneFiber(env, [&tree](htm::ThreadCtx& ctx) {
    constexpr int kIters = 200000;
    sim::Rng rng(11);
    const auto t0 = Clock::now();
    for (int k = 0; k < kIters; ++k) {
      const int64_t key = static_cast<int64_t>(rng.below(2048));
      switch (rng.below(4)) {
        case 0: tree.insert(ctx, key); break;
        case 1: tree.erase(ctx, key); break;
        default: tree.contains(ctx, key); break;
      }
    }
    return nsSince(t0) / kIters;
  });
}

// --- traffic ----------------------------------------------------------------

// Poisson ArrivalProcess::next at service-mix's saturated rate: ns per
// arrival.
double arrivalNs() {
  traffic::ArrivalSpec spec;
  spec.kind = traffic::ArrivalKind::kPoisson;
  spec.rate = 60000;
  traffic::ArrivalProcess ap(spec, 2.3, sim::streamSeed(1, sim::kStreamArrival, 0));
  constexpr int kIters = 1000000;
  uint64_t last = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kIters; ++k) last = ap.next();
  const double ns = nsSince(t0) / kIters;
  g_sink = g_sink + last;
  return ns;
}

// LatencyAccum::add of pseudo-random samples: ns per add.
double latencyAddNs() {
  traffic::LatencyAccum acc(2.3);
  constexpr int kIters = 1000000;
  sim::Rng rng(3);
  const auto t0 = Clock::now();
  for (int k = 0; k < kIters; ++k) acc.add(rng.below(200000));
  const double ns = nsSince(t0) / kIters;
  g_sink = g_sink + acc.quantileCycles(990);
  return ns;
}

// CoDel AdmissionController: level() for an arrival, then observe() for a
// dequeue, with sojourns crossing the 50 us target: ns per pair.
double admissionNs() {
  traffic::AdmissionSpec spec;
  spec.kind = traffic::AdmissionKind::kCodel;
  spec.target_us = 50;
  spec.window_us = 100;
  traffic::AdmissionController ac(spec, 2.3);
  constexpr int kIters = 1000000;
  sim::Rng rng(5);
  uint64_t now = 0;
  uint64_t levels = 0;
  const auto t0 = Clock::now();
  for (int k = 0; k < kIters; ++k) {
    now += 50 + rng.below(100);
    levels += static_cast<uint64_t>(ac.level(now, static_cast<size_t>(k & 63)));
    ac.observe(now, rng.below(2 * 50 * 2300));
  }
  const double ns = nsSince(t0) / kIters;
  g_sink = g_sink + levels;
  return ns;
}

struct ProbeDef {
  const char* name;
  const char* layer;
  const char* unit;
  std::function<double()> fn;
};

}  // namespace

std::vector<ProbeResult> runProbes(SpanRecorder* spans) {
  const std::vector<ProbeDef> defs = {
      {"sim.yield_ns.t36", "sim", "ns",
       [] { return yieldNs(sim::LargeMachine(), 36, 20000); }},
      {"sim.yield_ns.t1024", "sim", "ns",
       [] { return yieldNs(sim::Mesh2D(8, 8, 8), 1024, 700); }},
      {"sim.spawn_us", "sim", "us", spawnUs},
      {"mem.l1_hit_ns", "mem", "ns", l1HitNs},
      {"mem.fill_ns", "mem", "ns", fillNs},
      {"mem.pingpong_ns.2s", "mem", "ns",
       [] { return pingPongNs(sim::LargeMachine(), 1); }},
      {"mem.pingpong_ns.mesh", "mem", "ns",
       [] { return pingPongNs(sim::Mesh2D(8, 8, 8), 63); }},
      {"htm.tx_ns", "htm", "ns", txNs},
      {"htm.abort_ns", "htm", "ns", abortNs},
      {"sync.execute_ns.tle", "sync", "ns", tleExecuteNs},
      {"sync.execute_ns.natle", "sync", "ns", natleExecuteNs},
      {"sync.execute_ns.backoff", "sync", "ns", backoffExecuteNs},
      {"ds.avl_insert_ns.setup", "ds", "ns", avlInsertSetupNs},
      {"ds.avl_op_ns.run", "ds", "ns", avlOpRunNs},
      {"traffic.arrival_ns", "traffic", "ns", arrivalNs},
      {"traffic.latency_add_ns", "traffic", "ns", latencyAddNs},
      {"traffic.admission_ns", "traffic", "ns", admissionNs},
  };
  std::vector<ProbeResult> out;
  for (const ProbeDef& d : defs) {
    ScopedSpan span(spans, std::string("probe ") + d.name,
                    std::string("probe.") + d.layer);
    ProbeResult r{d.name, 0, d.unit, ""};
    try {
      std::vector<double> samples;
      for (int rep = 0; rep < kProbeReps; ++rep) samples.push_back(d.fn());
      r.value = median(samples);
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace perfbench
