// In-memory span recorder for the traced pass. The benchmark opens a span
// around each call it makes into a layer's public function (a point, its
// set-up, its run call, each probe); spans are kept in memory and written
// once, when the run ends, in Chrome trace-event format so the timeline
// opens in an off-the-shelf viewer (Perfetto, chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::string layer;  // category: "setup", "run.<layer>", "probe.<layer>", "bench"
  int parent = -1;    // index into the recorder's span list; -1 = root
  double start_s = 0;
  double end_s = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::string layer);
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer: each span's duration minus the time its direct
  // children cover, summed over the spans of that layer.
  std::map<std::string, double> selfSecondsByLayer() const;

  // Writes the spans as a Chrome trace-event JSON document. Returns false
  // when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null recorder (the untraced pass) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, std::string layer)
      : rec_(rec),
        id_(rec != nullptr ? rec->open(std::move(name), std::move(layer)) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
