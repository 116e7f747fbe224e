#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace impact::obs {

TraceSession::TraceSession(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceSession::push(TraceEvent&& ev) {
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void TraceSession::span(std::string_view cat, std::string_view name,
                        util::Cycle start, util::Cycle end,
                        std::uint32_t track) {
  push(TraceEvent{std::string(cat), std::string(name), start, end, track,
                  Phase::kSpan});
}

void TraceSession::instant(std::string_view cat, std::string_view name,
                           util::Cycle at, std::uint32_t track) {
  push(TraceEvent{std::string(cat), std::string(name), at, at, track,
                  Phase::kInstant});
}

const TraceEvent& TraceSession::event(std::size_t i) const {
  util::check(i < ring_.size(), "TraceSession::event out of range");
  return ring_[(head_ + i) % ring_.size()];
}

void TraceSession::clear() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

void TraceSession::write_chrome_json(std::ostream& out) const {
  // One simulated cycle maps to one "microsecond" of trace time; the
  // viewer's absolute units are meaningless for a simulator, only the
  // relative layout matters.
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < size(); ++i) {
    const TraceEvent& ev = event(i);
    if (i > 0) out << ",";
    out << "\n{\"name\":\"" << util::json_escape(ev.name) << "\",\"cat\":\""
        << util::json_escape(ev.cat) << "\",\"pid\":0,\"tid\":" << ev.track
        << ",\"ts\":" << ev.start;
    if (ev.phase == Phase::kSpan) {
      out << ",\"ph\":\"X\",\"dur\":" << (ev.end - ev.start);
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool TraceSession::export_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_json(out);
  return static_cast<bool>(out);
}

void TraceSession::write_csv(const std::string& dir,
                             const std::string& name) const {
  util::CsvWriter csv(dir, name,
                      {"cat", "name", "phase", "start", "end", "track"});
  for (std::size_t i = 0; i < size(); ++i) {
    const TraceEvent& ev = event(i);
    csv.add_row({ev.cat, ev.name,
                 ev.phase == Phase::kSpan ? "span" : "instant",
                 std::to_string(ev.start), std::to_string(ev.end),
                 std::to_string(ev.track)});
  }
}

}  // namespace impact::obs
