// The paper's published values the simulator is compared against. The paper
// is the model's only reference data, so the mean absolute error over this
// table (paper_gap, in percentage points) is the simulator's stated error.
// Each entry names its figure and the avl-2s points its simulated value is
// computed from.
#pragma once

namespace perfbench {

enum class PaperStat {
  kAbortRatePct,        // aborts / transaction begins of point `a`, in %
  kThroughputChangePct  // (Mops(b) / Mops(a) - 1), in %
};

struct PaperValue {
  const char* figure;
  const char* what;
  PaperStat stat;
  const char* a;  // avl-2s point names
  const char* b;
  double paper_pct;
};

inline constexpr PaperValue kPaperTable[] = {
    {"Fig. 5", "TLE abort rate, search-replace, 36 threads",
     PaperStat::kAbortRatePct, "sr-tle-36", nullptr, 10},
    {"Fig. 5", "TLE abort rate, search-replace, 42 threads",
     PaperStat::kAbortRatePct, "sr-tle-42", nullptr, 33},
    {"Fig. 4", "TLE throughput change, 36 -> 72 threads",
     PaperStat::kThroughputChangePct, "sr-tle-36", "sr-tle-72", -75},
    {"Fig. 4", "no-sync throughput change, 36 -> 72 threads",
     PaperStat::kThroughputChangePct, "sr-nosync-36", "sr-nosync-72", -26},
};

}  // namespace perfbench
