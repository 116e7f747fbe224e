#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), origin_(Clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

SpanRecorder::Guard::Guard(SpanRecorder* recorder, std::string name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  index_ = static_cast<int>(recorder_->spans_.size());
  recorder_->spans_.push_back(
      {std::move(name), recorder_->now_us(), 0.0, recorder_->open_});
  recorder_->open_ = index_;
}

SpanRecorder::Guard::~Guard() {
  if (recorder_ == nullptr) return;
  Span& s = recorder_->spans_[static_cast<std::size_t>(index_)];
  s.end_us = recorder_->now_us();
  recorder_->open_ = s.parent;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += 1e-6 * (s.end_us - s.start_us - child_us[i]);
  }
  return self;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"workload\": \"%s\"}}%s\n",
                  s.name.c_str(), s.start_us, s.end_us - s.start_us, i,
                  s.parent, workload_.c_str(),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
