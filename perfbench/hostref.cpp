#include "hostref.hpp"

#include <chrono>
#include <cstdint>

#include "util.hpp"

namespace perfbench {

namespace {

// Iterations of the reference work: about 20 ms on the defining host.
constexpr int kSteps = 2'500'000;

volatile uint64_t g_sink = 0;

// Integer mixing with a data-dependent branch the predictor cannot learn.
// It is bound by dependent integer work and branch recovery and touches no
// memory beyond registers, so nothing the simulator leaves in the heap or
// the caches changes its speed. NOTES.md says why this work and not a
// memory-bound one is the reference.
double referenceWork() {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t x = 1, y = 2;
  for (int i = 0; i < kSteps; ++i) {
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    if (x & 1) {
      y += x >> 3;
    } else {
      y ^= x << 1;
    }
    x += y;
  }
  g_sink = x + y;
  return secondsSince(t0);
}

}  // namespace

HostRef::HostRef() : last_(referenceWork()) {}

double HostRef::next() {
  const double before = last_;
  last_ = referenceWork();
  return 0.5 * (before + last_) / kNominalSeconds;
}

}  // namespace perfbench
