// Error-handling helpers: precondition checks that throw rather than abort,
// so library misuse is reportable and testable.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dsn {

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Thrown when an internal invariant is violated (a library bug).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Refuse a configuration value: throws "<field>: <value> is not <rule>",
/// e.g. "flow min_epoch_cycles: 0 is not in [1, 1048576] cycles", naming
/// neither the C++ check nor its source file.
template <typename T>
[[noreturn]] void refuse_field(const std::string& field, const T& value,
                               const std::string& rule) {
  std::ostringstream os;
  os << field << ": " << value << " is not " << rule;
  throw PreconditionError(os.str());
}

namespace detail {

[[noreturn]] inline void throw_precondition(const char* expr, const char* file, int line,
                                            const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}

[[noreturn]] inline void throw_internal(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "internal invariant failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw InternalError(os.str());
}

}  // namespace detail
}  // namespace dsn

// The msg operand is wrapped in a lambda that is only invoked on failure, so
// hot loops never pay for message construction (string concatenation,
// std::to_string, ...) when the check passes.

/// Check a documented caller-facing precondition; throws dsn::PreconditionError.
#define DSN_REQUIRE(expr, msg)                                                 \
  do {                                                                         \
    if (!(expr)) [[unlikely]] {                                                \
      ::dsn::detail::throw_precondition(                                       \
          #expr, __FILE__, __LINE__,                                           \
          [&]() -> ::std::string { return (msg); }());                         \
    }                                                                          \
  } while (false)

/// Check an internal invariant; throws dsn::InternalError.
#define DSN_ASSERT(expr, msg)                                                  \
  do {                                                                         \
    if (!(expr)) [[unlikely]] {                                                \
      ::dsn::detail::throw_internal(                                           \
          #expr, __FILE__, __LINE__,                                           \
          [&]() -> ::std::string { return (msg); }());                         \
    }                                                                          \
  } while (false)
