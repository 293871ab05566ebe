// Host speed reference for the end-to-end pass.
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over seconds to minutes, more than the bounds a regression is judged by.
// So the end-to-end pass times a fixed piece of the benchmark's own work
// (no simulator code) between every two of its timed calls, and divides
// each call's host time by how slow the reference ran around it, against
// its time on the host the benchmark was defined on. A change to the
// simulator cannot move the reference, so it moves the scaled times exactly
// as it moves the raw ones; a host slowdown that hits the simulator and the
// reference alike cancels.
#pragma once

namespace perfbench {

class HostRef {
 public:
  // Host seconds of one run of the reference work on the host the benchmark
  // was defined on (median of its samples over many runs).
  static constexpr double kNominalSeconds = 0.020;

  // Times the reference work once, as the sample before the first call.
  HostRef();

  // Call after each timed call. Times the reference work again and returns
  // the host slowdown around the call: the mean of this sample and the one
  // before the call, over kNominalSeconds (above 1 when the host ran slower
  // than when the benchmark was defined).
  double next();

 private:
  double last_;
};

}  // namespace perfbench
