#pragma once

// Shared pieces of the benchmark driver: the spans it records around every
// call into the library, a minimal JSON writer for the raw-results document
// run.py reads, and the layer probes.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample (the upper median for even sizes). Precondition:
/// `v` is not empty.
inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Keeps `value` observable so the optimizer cannot drop the work that
/// produced it.
template <class T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// RAII span of the benchmark's own, recorded into `trace` (the library's
/// Chrome trace-event recorder, used here as a plain span store: it is never
/// installed process-wide, so the program's own tracing is unaffected).
/// Nesting follows from the time intervals: workload > pass > scenario.
class ScopedSpan {
 public:
  ScopedSpan(mram::obs::TraceRecorder& trace, const char* category,
             std::string name)
      : trace_(trace),
        category_(category),
        name_(std::move(name)),
        start_ns_(trace.now_ns()) {}
  ~ScopedSpan() {
    if (!closed_) close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span now and returns its duration in seconds.
  double close() {
    closed_ = true;
    const std::uint64_t dur = trace_.now_ns() - start_ns_;
    trace_.add_span(category_, std::move(name_), start_ns_, dur);
    return 1e-9 * static_cast<double>(dur);
  }

 private:
  mram::obs::TraceRecorder& trace_;
  const char* category_;  ///< a string literal (the recorder keeps the pointer)
  std::string name_;
  std::uint64_t start_ns_;
  bool closed_ = false;
};

/// Streaming JSON writer: objects and arrays nest, commas are automatic.
/// Keys are passed for object members and omitted (nullptr) for array
/// elements.
class JsonOut {
 public:
  JsonOut& begin_object(const char* key = nullptr);
  JsonOut& end_object();
  JsonOut& begin_array(const char* key = nullptr);
  JsonOut& end_array();
  JsonOut& number(const char* key, double v);
  JsonOut& integer(const char* key, std::uint64_t v);
  JsonOut& string(const char* key, const std::string& v);
  JsonOut& boolean(const char* key, bool v);
  JsonOut& null(const char* key);

  const std::string& str() const { return out_; }

 private:
  void prefix(const char* key);
  std::string out_;
  std::vector<bool> first_;
};

/// One named probe result, already in the unit its metric name states.
using ProbeResult = std::pair<std::string, double>;

/// Times each layer entry point on the inputs the workloads send (see
/// probes.cpp), each warmed before it is timed and wrapped in its own span.
std::vector<ProbeResult> run_probes(mram::obs::TraceRecorder& trace,
                                    std::uint64_t seed);

}  // namespace perfbench
