#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// The benchmark times the repository's layers from outside: every call
/// into a layer's public function is wrapped in a `Scope`, which records
/// one span (name, start, end, parent span, operation id). Span names are
/// "<layer>.<call>", the layer being the module under src/ the call
/// belongs to. Spans stay in a vector reserved up front and are written
/// out once, after the measured work, as Chrome trace-event JSON.
///
/// A disabled tracer records nothing, so the same instrumented code path
/// runs with tracing off to measure the tracing overhead.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2ebench {

struct Span {
  const char* name = "";
  std::uint32_t parent = 0;    ///< index of the enclosing span, or kNoSpan
  std::uint64_t op = 0;        ///< operation id: request id or repetition
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFU;

/// Per-name totals over all spans of one name.
struct SpanTotals {
  double total_ns = 0;  ///< summed durations
  double self_ns = 0;   ///< summed durations minus time covered by children
};

class Tracer {
 public:
  /// Reserves room for `reserve_spans` spans, so recording does not
  /// reallocate in the measured loop.
  explicit Tracer(bool on, std::size_t reserve_spans = 0);

  [[nodiscard]] bool on() const noexcept { return on_; }
  /// Turns recording on or off between operations.
  void set_on(bool on) noexcept { on_ = on; }
  /// Opens a span nested in the innermost open one; returns its index.
  std::uint32_t open(const char* name, std::uint64_t op);
  void close(std::uint32_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Self time of every span (duration minus its children's durations).
  [[nodiscard]] std::vector<std::int64_t> self_times() const;
  /// Totals per span name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// Summed duration of spans named `name`, per operation id, in ms.
  [[nodiscard]] std::vector<double> per_op_ms(std::string_view name) const;
  /// Summed self time of all spans whose name starts with "<layer>.".
  [[nodiscard]] double layer_self_ns(std::string_view layer) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: opens on construction, closes on destruction; costs one
/// branch when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer),
        index_(tracer.on() ? tracer.open(name, op) : kNoSpan) {}
  ~Scope() {
    if (index_ != kNoSpan) tracer_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

}  // namespace e2ebench
