#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

namespace rtsm {

/// Base exception for all errors raised by the rtsm library.
///
/// Thrown for contract violations and malformed models (e.g. inconsistent
/// CSDF phase vectors, unknown tile names). Expected run-time failures such
/// as "no feasible mapping exists" are reported through result types, not
/// exceptions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws rtsm::Error with @p message when @p condition is false.
///
/// A failure message is either a string literal (this overload) or a
/// callable that builds it (the one below), which runs only once the check
/// has failed. There is deliberately no std::string overload: contract
/// checks sit on the mapper's hot path (step 2 probes every candidate
/// through them), and a message concatenated eagerly costs a heap
/// allocation on every passing call.
inline void require(bool condition, const char* message) {
  if (!condition) throw Error(message);
}

/// Lazy-message overload: @p make_message is invoked, and its string
/// allocated, only when @p condition is false.
template <class MakeMessage>
  requires std::is_invocable_r_v<std::string, MakeMessage&>
inline void require(bool condition, MakeMessage&& make_message) {
  if (!condition) throw Error(make_message());
}

}  // namespace rtsm
