// Spans around the benchmark's calls into each layer's public functions.
//
// A span records name, start, end, parent span and request id.  Spans are
// kept in per-thread buffers (no lock on the hot path; a mutex only when a
// thread first records) and gathered when the run ends.  When tracing is
// off a Span costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/clock.hpp"

namespace pb::trace {

struct Record {
  const char* name = "";  ///< string literal: "<layer>.<call>"
  pmove::TimeNs start = 0;
  pmove::TimeNs end = 0;
  std::uint64_t id = 0;       ///< unique within the run, never 0
  std::uint64_t parent = 0;   ///< enclosing span on this thread, 0 = root
  std::uint64_t request = 0;  ///< request (batch, query, probe) id
};

extern std::atomic<bool> g_enabled;

void enable(bool on);
[[nodiscard]] inline bool enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds (steady clock).
pmove::TimeNs now_ns();

/// Starts a new request id for the spans this thread records next.
std::uint64_t begin_request();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_;
  pmove::TimeNs start_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// Records an already-timed span under this thread's innermost open span
/// (for intervals no scope brackets, such as "scan called → callback
/// entered").  No-op when tracing is off.
void record(const char* name, pmove::TimeNs start, pmove::TimeNs end);

/// Every span recorded so far, from every thread; clears the buffers.
/// Call only while no thread is recording.
std::vector<Record> drain();

/// Totals per span name and per "<parent name>/<name>" path: spans, total
/// and self nanoseconds (self = duration minus the part covered by child
/// spans).  Root spans appear under their name only.
struct NameTotals {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};
std::map<std::string, NameTotals> summarize(const std::vector<Record>& spans);

/// Writes spans as CSV (name,start_ns,end_ns,id,parent,request).
bool write_csv(const std::vector<Record>& spans, const std::string& path);

}  // namespace pb::trace
