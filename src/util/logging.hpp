#pragma once
// Minimal leveled logger. Thread-safe (single global mutex around emission).
// The simulator logs one line per federated round at Info level; module
// internals log at Debug. printf-style formatting (GCC 12 lacks <format>).

#include <string_view>

namespace fedguard::util {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Global minimum level; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Emit a preformatted message (used by the log_* helpers below).
void log_message(LogLevel level, std::string_view message);

void log_debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_info(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
void log_warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace fedguard::util
