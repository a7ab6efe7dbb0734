#include "obs/trace.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace fedguard::obs {

namespace {

// Installed session + a monotonically increasing epoch. Thread-local buffer
// caches are keyed by epoch, not pointer, so a recycled heap address can
// never resurrect a stale cache entry (classic ABA).
std::atomic<TraceSession*> g_session{nullptr};
std::atomic<std::uint64_t> g_epoch_source{0};

// Process-wide trace context, one relaxed atomic per field (see the header
// note on why tearing across fields is benign here).
std::atomic<std::uint64_t> g_ctx_trace_id{0};
std::atomic<std::uint64_t> g_ctx_round{0};

void append_hex16(std::string& out, std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += digits[(value >> shift) & 0xF];
  }
}

void json_escape_into(std::string& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

thread_local std::uint64_t TraceSession::t_buffer_epoch = 0;
thread_local TraceSession::ThreadBuffer* TraceSession::t_buffer = nullptr;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_trace_context(const TraceContext& context) noexcept {
  g_ctx_trace_id.store(context.trace_id, std::memory_order_relaxed);
  g_ctx_round.store(context.round, std::memory_order_relaxed);
}

std::uint64_t make_trace_id(std::uint64_t seed, std::uint64_t round) noexcept {
  // splitmix64 finalizer over the mixed pair; forced nonzero because 0 is the
  // "no context" sentinel.
  std::uint64_t x =
      seed ^ ((round + 1) * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

TraceSession::TraceSession(std::string path, std::size_t events_per_thread)
    : path_{std::move(path)},
      events_per_thread_{events_per_thread < 4 ? 4 : events_per_thread},
      epoch_{g_epoch_source.fetch_add(1, std::memory_order_relaxed) + 1},
      start_ns_{now_ns()} {
  TraceSession* expected = nullptr;
  installed_ =
      g_session.compare_exchange_strong(expected, this, std::memory_order_release,
                                        std::memory_order_relaxed);
  if (!installed_) {
    util::log_warn(
        "obs: a TraceSession is already active; '%s' will record nothing",
        path_.c_str());
  }
}

TraceSession::~TraceSession() {
  if (installed_) {
    // Uninstall first so no new span can pick this session up, then drain.
    // Callers must have quiesced instrumented threads (see header contract).
    g_session.store(nullptr, std::memory_order_release);
  }
  try {
    flush();
  } catch (const std::exception& e) {
    util::log_warn("obs: final trace flush failed: %s", e.what());
  }
}

bool TraceSession::active() noexcept {
  return g_session.load(std::memory_order_acquire) != nullptr;
}

TraceSession::ThreadBuffer* TraceSession::buffer_for_current_thread() {
  if (t_buffer_epoch == epoch_ && t_buffer != nullptr) return t_buffer;
  auto buffer = std::make_unique<ThreadBuffer>();
  ThreadBuffer* raw = buffer.get();
  {
    const util::MutexLock lock{buffers_mutex_};
    // The buffer is not yet published, but tid/events are guarded by its own
    // mutex; taking it here is uncontended and keeps the annotations exact.
    const util::MutexLock buffer_lock{raw->mutex};
    raw->events.reserve(events_per_thread_);
    raw->tid = static_cast<int>(buffers_.size());
    buffers_.push_back(std::move(buffer));
  }
  t_buffer = raw;
  t_buffer_epoch = epoch_;
  return raw;
}

std::uint64_t TraceSession::dropped_spans() const noexcept {
  std::uint64_t dropped = 0;
  const util::MutexLock lock{buffers_mutex_};
  for (const auto& buffer : buffers_) {
    const util::MutexLock buffer_lock{buffer->mutex};
    dropped += buffer->dropped;
  }
  return dropped;
}

void TraceSession::flush() {
  // flush_mutex_ serializes whole flushes (concurrent callers would otherwise
  // interleave on flushed_ and the output file) and is released only after
  // the file is rewritten. Lock order: flush -> buffers -> per-thread buffer.
  const util::MutexLock flush_lock{flush_mutex_};
  drain_buffers_locked();
  write_file();
}

void TraceSession::drain_buffers_locked() {
  const util::MutexLock lock{buffers_mutex_};
  for (const auto& buffer : buffers_) {
    const util::MutexLock buffer_lock{buffer->mutex};
    for (Event& event : buffer->events) {
      event.tid = buffer->tid;
      flushed_.push_back(std::move(event));
    }
    buffer->events.clear();
  }
}

std::vector<TraceEventRecord> TraceSession::take_events() {
  const util::MutexLock flush_lock{flush_mutex_};
  drain_buffers_locked();
  std::vector<TraceEventRecord> out;
  out.reserve(flushed_.size());
  for (Event& event : flushed_) {
    TraceEventRecord record;
    record.name = std::move(event.name);
    record.category = std::move(event.category);
    record.ts_ns = event.ts_ns;
    record.trace_id = event.trace_id;
    record.round = event.round;
    record.pid = event.pid == 0 ? pid_ : event.pid;
    record.tid = event.tid;
    record.phase = event.phase;
    out.push_back(std::move(record));
  }
  flushed_.clear();
  return out;
}

void TraceSession::ingest(std::span<const TraceEventRecord> events) {
  const util::MutexLock flush_lock{flush_mutex_};
  for (const TraceEventRecord& record : events) {
    Event event;
    event.name = record.name;
    event.category = record.category;
    event.ts_ns = record.ts_ns;
    event.trace_id = record.trace_id;
    event.round = record.round;
    event.phase = record.phase;
    event.pid = record.pid == 0 ? pid_ : record.pid;
    event.tid = record.tid;
    flushed_.push_back(std::move(event));
  }
}

void TraceSession::write_file() {
  if (path_.empty()) return;  // relay-only session: take_events is the output
  std::ofstream file{path_, std::ios::trunc};
  if (!file) throw std::runtime_error{"obs: cannot write trace file " + path_};
  // One event object per line so tests (and grep) can parse the file without
  // a JSON library. Timestamps are microseconds relative to session start,
  // with sub-µs kept as a fraction so close-together spans stay ordered.
  file << "{\"traceEvents\":[\n";
  std::string line;
  for (std::size_t i = 0; i < flushed_.size(); ++i) {
    const Event& event = flushed_[i];
    // Ingested foreign events are rebased by the caller and can land a hair
    // before session start; clamp instead of wrapping the unsigned delta.
    const std::uint64_t rel_ns =
        event.ts_ns < start_ns_ ? 0 : event.ts_ns - start_ns_;
    line.clear();
    line += "{\"name\":\"";
    json_escape_into(line, event.name);
    line += "\",\"cat\":\"";
    json_escape_into(line, event.category);
    line += "\",\"ph\":\"";
    line += event.phase;
    line += "\",\"ts\":";
    line += std::to_string(rel_ns / 1000);
    line += '.';
    const std::uint64_t frac = rel_ns % 1000;
    line += static_cast<char>('0' + frac / 100);
    line += static_cast<char>('0' + frac / 10 % 10);
    line += static_cast<char>('0' + frac % 10);
    line += ",\"pid\":";
    line += std::to_string(event.pid == 0 ? pid_ : event.pid);
    line += ",\"tid\":";
    line += std::to_string(event.tid);
    if (event.trace_id != 0) {
      // Correlation args: same trace_id across root / shard / client lanes
      // groups one round's spans (hex so Perfetto shows it verbatim).
      line += ",\"args\":{\"trace_id\":\"";
      append_hex16(line, event.trace_id);
      line += "\",\"round\":";
      line += std::to_string(event.round);
      line += "}";
    }
    line += "}";
    if (i + 1 < flushed_.size()) line += ',';
    line += '\n';
    file << line;
  }
  file << "]}\n";
}

bool ingest_into_active_session(std::span<const TraceEventRecord> events) {
  TraceSession* session = g_session.load(std::memory_order_acquire);
  if (session == nullptr) return false;
  session->ingest(events);
  return true;
}

Span::Span(std::string category, std::string name) {
  TraceSession* session = g_session.load(std::memory_order_acquire);
  if (session == nullptr) return;
  TraceSession::ThreadBuffer* buffer = session->buffer_for_current_thread();
  const util::MutexLock lock{buffer->mutex};
  // Reserve this span's E slot up front: a B is only recorded when both its
  // own slot and the eventual E slot fit, so the trace can never hold an
  // unmatched B from overflow.
  if (buffer->events.size() + buffer->open_spans + 2 >
      buffer->events.capacity()) {
    ++buffer->dropped;
    return;
  }
  TraceSession::Event event;
  event.name = name;
  event.category = category;
  event.ts_ns = now_ns();
  event.trace_id = g_ctx_trace_id.load(std::memory_order_relaxed);
  event.round = g_ctx_round.load(std::memory_order_relaxed);
  event.phase = 'B';
  buffer->events.push_back(std::move(event));
  ++buffer->open_spans;
  buffer_ = buffer;
  category_ = std::move(category);
  name_ = std::move(name);
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  const util::MutexLock lock{buffer_->mutex};
  TraceSession::Event event;
  event.name = std::move(name_);
  event.category = std::move(category_);
  event.ts_ns = now_ns();
  event.trace_id = g_ctx_trace_id.load(std::memory_order_relaxed);
  event.round = g_ctx_round.load(std::memory_order_relaxed);
  event.phase = 'E';
  buffer_->events.push_back(std::move(event));
  --buffer_->open_spans;
}

}  // namespace fedguard::obs
