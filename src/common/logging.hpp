// Minimal leveled logger.
//
// The library itself logs sparingly (planner progress, OOM diagnostics),
// at a fixed threshold of kWarn. Output goes to stderr so bench CSV on
// stdout stays machine-readable.
#pragma once

#include <sstream>
#include <string>

namespace pooch {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold (kWarn); messages below it are dropped.
LogLevel log_level();

namespace detail {
void log_message(LogLevel level, const std::string& msg);
}  // namespace detail

}  // namespace pooch

#define POOCH_LOG(level, stream_expr)                                \
  do {                                                               \
    if (static_cast<int>(level) >=                                   \
        static_cast<int>(::pooch::log_level())) {                    \
      std::ostringstream pooch_log_os_;                              \
      pooch_log_os_ << stream_expr;                                  \
      ::pooch::detail::log_message(level, pooch_log_os_.str());      \
    }                                                                \
  } while (false)

#define POOCH_LOG_DEBUG(s) POOCH_LOG(::pooch::LogLevel::kDebug, s)
#define POOCH_LOG_INFO(s) POOCH_LOG(::pooch::LogLevel::kInfo, s)
#define POOCH_LOG_WARN(s) POOCH_LOG(::pooch::LogLevel::kWarn, s)
#define POOCH_LOG_ERROR(s) POOCH_LOG(::pooch::LogLevel::kError, s)
