#include "trace.hpp"

#include <fstream>
#include <iomanip>

#include "bench.hpp"

namespace e2ebench {

Tracer::Tracer(bool on, std::size_t reserve_spans) : on_(on) {
  spans_.reserve(reserve_spans);
  open_.reserve(64);
}

std::uint32_t Tracer::open(const char* name, std::uint64_t op) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span s;
  s.name = name;
  s.parent = open_.empty() ? kNoSpan : open_.back();
  s.op = op;
  open_.push_back(index);
  s.start_ns = now_ns();
  spans_.push_back(s);
  return index;
}

void Tracer::close(std::uint32_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent != kNoSpan) {
      self[spans_[i].parent] -= spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  return self;
}

std::map<std::string, SpanTotals> Tracer::totals() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[spans_[i].name];
    t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.self_ns += static_cast<double>(self[i]);
  }
  return out;
}

std::vector<double> Tracer::per_op_ms(std::string_view name) const {
  std::map<std::uint64_t, double> by_op;
  for (const Span& s : spans_) {
    if (name == s.name) {
      by_op[s.op] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    }
  }
  std::vector<double> out;
  out.reserve(by_op.size());
  for (const auto& [op, ms] : by_op) out.push_back(ms);
  return out;
}

double Tracer::layer_self_ns(std::string_view layer) const {
  const std::vector<std::int64_t> self = self_times();
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    if (name.size() > layer.size() && name.substr(0, layer.size()) == layer &&
        name[layer.size()] == '.') {
      sum += static_cast<double>(self[i]);
    }
  }
  return sum;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);  // microseconds, to the ns
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << std::string_view(s.name).substr(
                                   0, std::string_view(s.name).find('.'))
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
        << ",\"parent\":"
        << (s.parent == kNoSpan ? -1 : static_cast<std::int64_t>(s.parent))
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2ebench
