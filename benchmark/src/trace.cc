#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace fedbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder recorder;
  return recorder;
}

void SpanRecorder::Reset(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  generation_.fetch_add(1);
  enabled_.store(enabled);
}

SpanRecorder::Buffer* SpanRecorder::ThreadBuffer() {
  // A thread's buffer belongs to one Reset generation; a stale pointer
  // from an earlier generation is never dereferenced.
  thread_local uint64_t generation = 0;
  thread_local Buffer* buffer = nullptr;
  const uint64_t current = generation_.load(std::memory_order_acquire);
  if (generation != current) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = static_cast<int>(buffers_.size());
    generation = current;
  }
  return buffer;
}

void SpanRecorder::Open(Scope* scope, const char* name, const char* layer,
                        int64_t key) {
  if (!enabled()) return;
  Buffer* buffer = ThreadBuffer();
  Span& span = scope->span_;
  span.name = name;
  span.layer = layer;
  span.key = key;
  span.tid = buffer->tid;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer->open.empty() ? -1 : buffer->open.back();
  buffer->open.push_back(span.id);
  scope->active_ = true;
  span.start = NowSeconds();
}

void SpanRecorder::Close(Scope* scope) {
  scope->span_.end = NowSeconds();
  Buffer* buffer = ThreadBuffer();
  if (!buffer->open.empty()) buffer->open.pop_back();
  buffer->spans.push_back(scope->span_);
}

SpanRecorder::Scope::~Scope() {
  if (active_) SpanRecorder::Global().Close(this);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start < b.start || (a.start == b.start && a.id < b.id);
  });
  return all;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"key\":%lld}}%s\n",
                 s.name, s.layer, s.start * 1e6, s.duration() * 1e6, s.tid,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.key),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace fedbench
