/// \file trace.h
/// \brief In-memory span recorder for the outside-in benchmark trace.
///
/// Spans are recorded by the benchmark's own decorators around calls into
/// the library's public seams; nothing inside `src/` is instrumented. Each
/// thread appends to its own buffer (no lock on the hot path); buffers are
/// merged when an episode ends and written out as a chrome-trace file.
/// obs::TraceRecorder is not reused: starting it also records the engine's
/// own spans, and its events carry no parent link.

#ifndef FEDBENCH_TRACE_H_
#define FEDBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fedbench {

/// Seconds on the steady clock since the first call in this process.
double NowSeconds();

/// \brief One closed span. `key` is the shared identifier of the request
/// the span serves: the round (training) or the update id (serve).
struct Span {
  const char* name = "";
  const char* layer = "";
  double start = 0.0;
  double end = 0.0;
  int tid = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t key = -1;

  double duration() const { return end - start; }
};

/// \brief Process-wide span sink. Disabled, `Open` returns an inert scope
/// and records nothing.
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  /// Drops all spans and turns recording on or off. Call only while no
  /// other thread records (between episodes).
  void Reset(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// RAII span: closed (and recorded) on destruction.
  class Scope {
   public:
    Scope() = default;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class SpanRecorder;
    bool active_ = false;
    Span span_;
  };

  /// Opens `scope` as a span on the calling thread; its parent is the
  /// innermost span still open on the same thread. `name` and `layer` must
  /// be string literals (spans keep the pointers).
  void Open(Scope* scope, const char* name, const char* layer, int64_t key);

  /// All spans recorded since the last Reset, sorted by start.
  std::vector<Span> Collect() const;

 private:
  struct Buffer {
    int tid = 0;
    std::vector<Span> spans;
    std::vector<int64_t> open;  // ids of spans open on this thread
  };
  Buffer* ThreadBuffer();
  void Close(Scope* scope);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> generation_{1};
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mutex_;  // guards buffers_
  std::deque<std::unique_ptr<Buffer>> buffers_;
};

/// Writes `spans` as a chrome://tracing JSON array of complete events
/// (timestamps in microseconds). Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace fedbench

#endif  // FEDBENCH_TRACE_H_
