// check.hpp - error-handling primitives for the EDEA library.
//
// Follows the C++ Core Guidelines (E.*): exceptions for violated
// preconditions on public APIs, assert-like checks that cannot be disabled
// for invariants whose violation would silently corrupt simulation results.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace edea {

/// Exception thrown when a precondition of a public EDEA API is violated.
class PreconditionError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Exception thrown when an internal invariant of the simulator is violated.
/// Seeing this exception always indicates a bug in the library itself.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Exception thrown when a modeled hardware resource is exceeded
/// (e.g. writing past an SRAM buffer's capacity or overflowing the 24-bit
/// accumulator range the silicon provides).
class ResourceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

/// Throws E with "<file>:<line>: <label>: (<expr>)", plus " - <msg>" when
/// a message is given.
template <class E>
[[noreturn]] void throw_check(std::string_view label, std::string_view expr,
                              std::string_view msg,
                              const std::source_location& loc) {
  std::string what = loc.file_name();
  what += ':';
  what += std::to_string(loc.line());
  what += ": ";
  what += label;
  what += ": (";
  what += expr;
  what += ')';
  if (!msg.empty()) {
    what += " - ";
    what += msg;
  }
  throw E(what);
}

}  // namespace detail

}  // namespace edea

/// Validates a precondition of a public API. Throws edea::PreconditionError.
#define EDEA_REQUIRE(expr, msg)                                          \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::edea::detail::throw_check<::edea::PreconditionError>(            \
          "precondition failed", #expr, (msg),                           \
          std::source_location::current());                              \
    }                                                                    \
  } while (false)

/// Validates an internal invariant. Throws edea::InvariantError.
/// Never compiled out: a wrong simulation result is worse than a slow one.
#define EDEA_ASSERT(expr, msg)                                           \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::edea::detail::throw_check<::edea::InvariantError>(               \
          "invariant violated", #expr, (msg),                            \
          std::source_location::current());                              \
    }                                                                    \
  } while (false)
