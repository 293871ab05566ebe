#include "spans.hpp"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::open(std::string name, std::string layer) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<size_t>(id)].end_s = now();
  // Spans nest strictly (ScopedSpan), so the closing span is innermost.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> SpanRecorder::selfSecondsByLayer() const {
  std::vector<double> child_s(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += (s.end_s - s.start_s) - child_s[i];
  }
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
