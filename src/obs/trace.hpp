#pragma once
// Scoped tracer: RAII obs::Span instances record B/E (begin/end) event pairs
// into per-thread buffers owned by the active obs::TraceSession, which
// flushes them as Chrome trace_event JSON — load the file at ui.perfetto.dev
// or chrome://tracing. Span categories form a fixed taxonomy (`round`,
// `client.train`, `client.cvae`, `serialize`, `net.frame`, `agg.<strategy>`,
// `kernel.gemm`, `pool.task`) documented in docs/OBSERVABILITY.md;
// fedguard-lint (rule span-category-docs) keeps code and doc in sync.
//
// Cost model: with no session installed a span is one relaxed atomic load.
// With a session active, an append is a short critical section on the
// calling thread's own buffer mutex (contended only while flush() drains).
// Hot kernels use the FEDGUARD_TRACE_SPAN macro, which compiles to nothing
// when the FEDGUARD_TRACE CMake option is OFF — a disabled build carries
// zero tracing instructions (tests/obs_trace_off_probe.cpp pins this).
//
// Threading contract: install at most one session at a time, and destroy it
// only after every instrumented thread has quiesced (worker pools joined or
// idle). Both servers satisfy this by construction — the exporter outlives
// the run loop.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace fedguard::obs {

/// Monotonic (steady_clock) timestamp in nanoseconds. The single time source
/// for span durations AND RoundRecord::round_seconds, so Table V timing and
/// trace spans can never disagree by clock domain.
[[nodiscard]] std::uint64_t now_ns() noexcept;

class Span;

/// Cross-process trace correlation context. The round driver (root server)
/// derives trace_id from (run seed, round) via make_trace_id, installs the
/// context process-wide for the duration of the round, and carries it to
/// remote processes inside RoundRequest frames; every Span recorded while a
/// context is installed is stamped with it (emitted as Perfetto args), which
/// is what lets one round's client/shard/root spans be correlated across
/// process boundaries. trace_id == 0 means "no context".
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t round = 0;
};

/// Install the process-wide trace context. Fields are stored as independent
/// relaxed atomics: the round loop runs one round at a time, so a racing
/// reader at a round boundary sees a harmless mix of two adjacent contexts at
/// worst, never a torn value.
void set_trace_context(const TraceContext& context) noexcept;

/// Deterministic nonzero trace id for (seed, round): splitmix64 finalizer
/// over the pair, so every process in the federation derives the same id for
/// the same round without coordination.
[[nodiscard]] std::uint64_t make_trace_id(std::uint64_t seed,
                                          std::uint64_t round) noexcept;

/// One drained trace event in wire-friendly form: absolute ts_ns in the
/// recording process's clock domain (relay code rebases across hosts), pid 0
/// meaning "the owning session's lane". Produced by TraceSession::take_events
/// and consumed by TraceSession::ingest on the receiving side.
struct TraceEventRecord {
  std::string name;
  std::string category;
  std::uint64_t ts_ns = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t round = 0;
  int pid = 0;
  int tid = 0;
  char phase = 'B';
};

/// Owns the per-thread trace buffers and the output file for one recording.
/// Constructing installs the session process-wide (spans start recording);
/// destruction flushes and uninstalls.
class TraceSession {
 public:
  /// `events_per_thread` bounds each thread's buffer between flushes; a span
  /// that would overflow its thread's buffer is dropped whole (both B and E,
  /// so the written trace always stays balanced) and counted.
  explicit TraceSession(std::string path, std::size_t events_per_thread = 1 << 16);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Drain every thread buffer and rewrite the trace file with all events
  /// recorded so far. Safe to call while spans are being recorded, and safe
  /// to call from concurrent threads (flush_mutex_ serializes whole flushes).
  /// A session constructed with an empty path collects events without writing
  /// a file (relay-only mode: take_events is the sole consumer).
  void flush() FEDGUARD_EXCLUDES(flush_mutex_);

  /// Drain the thread buffers and move out every event accumulated since the
  /// previous take_events()/flush() — the telemetry-relay producer side.
  /// Taken events will NOT appear in this session's own trace file; use a
  /// relay-only (empty-path) session when the process also wants a local
  /// trace.
  [[nodiscard]] std::vector<TraceEventRecord> take_events()
      FEDGUARD_EXCLUDES(flush_mutex_);

  /// Append foreign events (already rebased into this process's now_ns()
  /// clock domain by the caller) to the merged timeline. Each event's pid
  /// lane is kept verbatim, which is how one root trace file shows client /
  /// shard / root lanes side by side.
  void ingest(std::span<const TraceEventRecord> events)
      FEDGUARD_EXCLUDES(flush_mutex_);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Perfetto pid lane for locally recorded events (default 1; the
  /// distributed demo sets the real process id so merged traces keep one
  /// lane per process).
  void set_pid(int pid) noexcept { pid_ = pid; }
  [[nodiscard]] int pid() const noexcept { return pid_; }
  /// Spans dropped to buffer overflow since construction (0 in healthy runs;
  /// raise events_per_thread or flush more often otherwise).
  [[nodiscard]] std::uint64_t dropped_spans() const noexcept;
  /// True when some session is currently installed process-wide.
  [[nodiscard]] static bool active() noexcept;

 private:
  friend class Span;

  struct Event {
    std::string name;
    std::string category;
    std::uint64_t ts_ns = 0;
    std::uint64_t trace_id = 0;  // stamped from the installed TraceContext
    std::uint64_t round = 0;
    char phase = 'B';
    int pid = 0;  // 0 = this session's lane; ingested events carry their own
    int tid = 0;  // stamped from the owning buffer when drained
  };
  struct ThreadBuffer {
    // mutable: dropped_spans() aggregates over const sessions; the mutex is
    // synchronization state, not logical state.
    mutable util::Mutex mutex;
    std::vector<Event> events FEDGUARD_GUARDED_BY(mutex);
    // E slots reserved by not-yet-closed spans.
    std::size_t open_spans FEDGUARD_GUARDED_BY(mutex) = 0;
    std::uint64_t dropped FEDGUARD_GUARDED_BY(mutex) = 0;
    int tid FEDGUARD_GUARDED_BY(mutex) = 0;
  };

  [[nodiscard]] ThreadBuffer* buffer_for_current_thread()
      FEDGUARD_EXCLUDES(buffers_mutex_);
  void drain_buffers_locked() FEDGUARD_REQUIRES(flush_mutex_)
      FEDGUARD_EXCLUDES(buffers_mutex_);
  void write_file() FEDGUARD_REQUIRES(flush_mutex_);

  // Per-thread buffer cache, keyed by session epoch so a pointer from a
  // previous (destroyed) session can never be reused.
  static thread_local std::uint64_t t_buffer_epoch;
  static thread_local ThreadBuffer* t_buffer;

  std::string path_;
  std::size_t events_per_thread_;
  std::uint64_t epoch_ = 0;     // unique per session; keys thread-local caches
  std::uint64_t start_ns_ = 0;  // trace timestamps are relative to this
  int pid_ = 1;                 // Perfetto lane for locally recorded events
  bool installed_ = false;
  // Lock order: flush_mutex_ -> buffers_mutex_ -> ThreadBuffer::mutex.
  // mutable: dropped_spans() is a const observer that must still lock.
  mutable util::Mutex buffers_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      FEDGUARD_GUARDED_BY(buffers_mutex_);
  util::Mutex flush_mutex_;
  // Drained events, in flush order.
  std::vector<Event> flushed_ FEDGUARD_GUARDED_BY(flush_mutex_);
};

/// Ingest foreign (relayed) events into the currently installed session, if
/// any; returns false when no session is active. Same quiescence contract as
/// Span: callers must not outlive the session (both servers tear down their
/// reactors before the exporter).
bool ingest_into_active_session(std::span<const TraceEventRecord> events);

/// RAII span: records a B event at construction and the matching E event at
/// destruction on the same thread. Near-free when no session is installed.
/// Categories must come from the documented taxonomy; prefer the
/// FEDGUARD_TRACE_SPAN macro so disabled builds compile the span away.
class Span {
 public:
  Span(std::string category, std::string name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSession::ThreadBuffer* buffer_ = nullptr;
  std::string category_;
  std::string name_;
};

}  // namespace fedguard::obs

// Compile-time tracing switch (CMake option FEDGUARD_TRACE, default ON; the
// obs target publishes FEDGUARD_TRACE_ENABLED). When OFF the macro expands to
// a no-op expression: no Span object, no obs symbol references, bit-for-bit
// identical science (pinned by tests/test_update_pipeline.cpp goldens).
#if defined(FEDGUARD_TRACE_ENABLED)
#define FEDGUARD_TRACE_CONCAT_IMPL(a, b) a##b
#define FEDGUARD_TRACE_CONCAT(a, b) FEDGUARD_TRACE_CONCAT_IMPL(a, b)
#define FEDGUARD_TRACE_SPAN(category, name)                 \
  const ::fedguard::obs::Span FEDGUARD_TRACE_CONCAT(        \
      fedguard_trace_span_, __COUNTER__) {                  \
    (category), (name)                                      \
  }
#else
#define FEDGUARD_TRACE_SPAN(category, name) static_cast<void>(0)
#endif
