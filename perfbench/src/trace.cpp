#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace pb::trace {

std::atomic<bool> g_enabled{false};

namespace {

struct ThreadBuffer {
  std::vector<Record> spans;
  std::uint64_t current = 0;  ///< innermost open span
  std::uint64_t request = 0;
};

std::mutex g_mutex;  // guards g_buffers
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_request{1};

ThreadBuffer& local() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

pmove::TimeNs now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t begin_request() {
  const std::uint64_t id = g_next_request.fetch_add(1);
  if (enabled()) local().request = id;
  return id;
}

Span::Span(const char* name) : name_(name), on_(enabled()) {
  if (!on_) return;
  ThreadBuffer& b = local();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = b.current;
  b.current = id_;
  start_ = now_ns();
}

Span::~Span() {
  if (!on_) return;
  const pmove::TimeNs end = now_ns();
  ThreadBuffer& b = local();
  b.current = parent_;
  b.spans.push_back({name_, start_, end, id_, parent_, b.request});
}

void record(const char* name, pmove::TimeNs start, pmove::TimeNs end) {
  if (!enabled()) return;
  ThreadBuffer& b = local();
  b.spans.push_back({name, start, end,
                     g_next_id.fetch_add(1, std::memory_order_relaxed),
                     b.current, b.request});
}

std::vector<Record> drain() {
  std::vector<Record> out;
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

std::map<std::string, NameTotals> summarize(const std::vector<Record>& spans) {
  // Children of one parent run on the parent's thread, nested inside it,
  // so they never overlap each other: covered time is the sum of their
  // durations.
  std::unordered_map<std::uint64_t, double> child_ns;
  std::unordered_map<std::uint64_t, const char*> names;
  for (const Record& r : spans) {
    names[r.id] = r.name;
    if (r.parent != 0) child_ns[r.parent] += static_cast<double>(r.end - r.start);
  }
  std::map<std::string, NameTotals> out;
  for (const Record& r : spans) {
    const double d = static_cast<double>(r.end - r.start);
    auto it = child_ns.find(r.id);
    const double self = d - (it == child_ns.end() ? 0.0 : it->second);
    auto parent = names.find(r.parent);
    const std::string path = parent == names.end()
                                 ? std::string(r.name)
                                 : std::string(parent->second) + "/" + r.name;
    auto add = [&](NameTotals& t) {
      t.count += 1;
      t.total_ns += d;
      t.self_ns += self;
    };
    add(out[r.name]);
    if (path != r.name) add(out[path]);
  }
  return out;
}

bool write_csv(const std::vector<Record>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request\n");
  for (const Record& r : spans) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu\n", r.name,
                 static_cast<long long>(r.start), static_cast<long long>(r.end),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace pb::trace
