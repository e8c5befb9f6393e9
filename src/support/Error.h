//===- support/Error.h - Assertions and unreachable markers ----*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `halo_unreachable` marks code paths that must never execute; in debug
/// builds it aborts with a message, in release builds it is an optimizer
/// hint. `support::Diag` / `support::ValidationError` are the structured
/// diagnostics the front door (`ir::validateLoop`, `Session::prepare`)
/// raises for malformed untrusted input instead of tripping asserts or UB;
/// `support::OutOfBoundsError` is what execution raises when a loop body
/// indexes outside an array at run time.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_SUPPORT_ERROR_H
#define HALO_SUPPORT_ERROR_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace halo {

[[noreturn]] inline void unreachableInternal(const char *Msg, const char *File,
                                             unsigned Line) {
  std::fprintf(stderr, "UNREACHABLE executed at %s:%u: %s\n", File, Line, Msg);
  std::abort();
}

namespace support {

/// One structured validation finding about an untrusted `ir::Program`.
/// Collected by `ir::validateLoop` / `ir::validateBindings` and carried by
/// `ValidationError` out of `Session::prepare`.
struct Diag {
  /// What went wrong. Every code corresponds to an input shape that would
  /// otherwise reach an assert or undefined behavior deeper in the
  /// pipeline.
  enum class Code {
    UndeclaredArray,  ///< Array referenced but never declared in scope.
    UnboundScalar,    ///< Free scalar with no binding at execute time.
    NonPositiveTrip,  ///< Constant loop bounds with Hi < Lo.
    OobSubscript,     ///< Subscript provably outside a constant-size array.
    DuplicateLoopVar, ///< Nested loop reuses an enclosing loop's variable.
    CivIsLoopVar,     ///< CIV increment targets a loop variable.
    NegativeCivStep,  ///< CIV increment amount is a negative constant.
    MissingCallee,    ///< Call statement without a resolvable subroutine.
    CallCycle,        ///< Recursive call chain (unsupported).
    ExprTooDeep,      ///< Expression nesting beyond the structural cap.
    PredTooDeep,      ///< Predicate nesting beyond the structural cap.
    MalformedAccess,  ///< Array access with a null offset expression.
    PlanBadMagic,     ///< Plan-cache stream does not start with "HPLN".
    PlanVersionSkew,  ///< Plan-cache format version differs from ours.
    PlanCorrupt,      ///< Plan-cache CRC/length/index integrity failure.
    PlanKeyMismatch,  ///< Serialized plan key does not match the live loop.
  };

  Code Kind;
  /// Human-readable one-liner naming the offending symbol/statement.
  std::string Message;

  Diag(Code K, std::string Msg) : Kind(K), Message(std::move(Msg)) {}
};

/// Returns the stable mnemonic for a diagnostic code ("UndeclaredArray",
/// "NonPositiveTrip", ...), used in error text and fuzz-corpus files.
const char *diagCodeName(Diag::Code C);

/// Thrown by `Session::prepare` (and usable directly via
/// `ir::validateLoop`) when an untrusted program fails structural
/// validation. Carries every finding, not just the first; `what()` joins
/// them into one message.
class ValidationError : public std::runtime_error {
public:
  explicit ValidationError(std::vector<Diag> Ds)
      : std::runtime_error(joinMessage(Ds)), Diags(std::move(Ds)) {}

  /// All findings, in program order.
  const std::vector<Diag> &diags() const { return Diags; }

  /// True if any finding has code \p C.
  bool has(Diag::Code C) const {
    for (const Diag &D : Diags)
      if (D.Kind == C)
        return true;
    return false;
  }

private:
  static std::string joinMessage(const std::vector<Diag> &Ds);

  std::vector<Diag> Diags;
};

/// Thrown by the execution entry points (`rt::interpSequential`,
/// `rt::Executor::runPlanned` and the session/serving paths built on them)
/// when a loop body accessed a data array outside its bounds or an array
/// that was never allocated. The interpreter skips the access and raises
/// a flag (pool workers never throw); the entry point throws this after
/// the workers join. No memory outside an array was touched; the arrays'
/// contents are unspecified.
class OutOfBoundsError : public std::runtime_error {
public:
  OutOfBoundsError(uint32_t ArrayId, int64_t Index)
      : std::runtime_error("array access out of bounds: symbol #" +
                           std::to_string(ArrayId) + ", element " +
                           std::to_string(Index)),
        ArrayId(ArrayId), Index(Index) {}

  /// The sym::SymbolId of the accessed (alias-resolved) array.
  uint32_t arrayId() const { return ArrayId; }
  /// The zero-based element index of the first offending access.
  int64_t index() const { return Index; }

private:
  uint32_t ArrayId;
  int64_t Index;
};

} // namespace support
} // namespace halo

#ifndef NDEBUG
#define halo_unreachable(msg)                                                  \
  ::halo::unreachableInternal(msg, __FILE__, __LINE__)
#elif defined(__GNUC__)
#define halo_unreachable(msg) __builtin_unreachable()
#else
#define halo_unreachable(msg) ::std::abort()
#endif

#endif // HALO_SUPPORT_ERROR_H
