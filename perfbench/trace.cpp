#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

struct Record {
  std::uint32_t id;
  std::uint32_t parent;
  std::int64_t trial;
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t count;
};

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<Record>>> g_buffers;  // guarded

struct ThreadState {
  std::vector<Record>* buffer = nullptr;
  std::vector<std::uint32_t> open;
  std::int64_t trial = -1;
};
thread_local ThreadState t_state;

std::int64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::vector<Record>& thread_buffer() {
  if (t_state.buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Record>>();
    buffer->reserve(1 << 14);
    t_state.buffer = buffer.get();
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::move(buffer));
  }
  return *t_state.buffer;
}

bool tracing() noexcept { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace

void set_tracing(bool enabled) noexcept { g_enabled.store(enabled); }
void set_thread_trial(std::int64_t trial) noexcept { t_state.trial = trial; }
std::int64_t thread_trial() noexcept { return t_state.trial; }

Span::Span(const char* name, std::int64_t count) noexcept : name_(name), count_(count) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_state.open.empty() ? 0 : t_state.open.back();
  trial_ = t_state.trial;
  t_state.open.push_back(id_);
  pushed_ = true;
  start_ns_ = now_ns();
}

Span::Span(const char* name, std::uint32_t parent, std::int64_t trial) noexcept
    : name_(name), parent_(parent), trial_(trial) {
  if (!tracing()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::int64_t end_ns = now_ns();
  if (pushed_) t_state.open.pop_back();
  thread_buffer().push_back({id_, parent_, trial_, name_, start_ns_, end_ns, count_});
}

bool write_spans(const std::string& path) {
  std::vector<Record> all;
  {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    for (const auto& buffer : g_buffers) all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Record& a, const Record& b) { return a.id < b.id; });
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Record& r : all) {
    std::fprintf(out, "%u\t%u\t%lld\t%s\t%lld\t%lld\t%lld\n", r.id, r.parent,
                 static_cast<long long>(r.trial), r.name,
                 static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns),
                 static_cast<long long>(r.count));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
