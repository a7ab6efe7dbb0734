#include "util/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "util/thread_annotations.hpp"

namespace fedguard::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Info};
// Guards the stderr stream: emission is one fprintf per message, serialized
// so concurrent log lines never interleave mid-line.
Mutex g_emit_mutex;

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    default: return "?????";
  }
}

// The REQUIRES contract makes the serialization point explicit: only
// log_message's critical section may write the stream.
void emit_line(LogLevel level, long long ms, std::string_view message)
    FEDGUARD_REQUIRES(g_emit_mutex) {
  std::fprintf(stderr, "[%lld.%03lld] [%s] %.*s\n", ms / 1000, ms % 1000,
               level_name(level), static_cast<int>(message.size()),
               message.data());
}

void vlog(LogLevel level, const char* fmt, va_list args) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  char buffer[1024];
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  log_message(level, buffer);
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() noexcept { return g_level.load(std::memory_order_relaxed); }

void log_message(LogLevel level, std::string_view message) {
  if (level < log_level()) return;
  const auto now = std::chrono::system_clock::now();
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now.time_since_epoch()).count();
  const MutexLock lock{g_emit_mutex};
  emit_line(level, static_cast<long long>(ms), message);
}

#define FEDGUARD_DEFINE_LOG_FN(fn_name, level)   \
  void fn_name(const char* fmt, ...) {           \
    va_list args;                                \
    va_start(args, fmt);                         \
    vlog(level, fmt, args);                      \
    va_end(args);                                \
  }

FEDGUARD_DEFINE_LOG_FN(log_debug, LogLevel::Debug)
FEDGUARD_DEFINE_LOG_FN(log_info, LogLevel::Info)
FEDGUARD_DEFINE_LOG_FN(log_warn, LogLevel::Warn)

#undef FEDGUARD_DEFINE_LOG_FN

}  // namespace fedguard::util
