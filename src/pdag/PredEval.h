//===- pdag/PredEval.h - Runtime interpretation of predicates --*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interprets a PDAG predicate against concrete bindings. This is the
/// "dynamic evaluation" half of the hybrid analysis: the cascade of
/// sufficient conditions extracted at compile time is executed here against
/// the loop's live-in values (Sec. 3.5 / Sec. 5 of the paper).
///
/// Evaluation is short-circuiting; LoopAll nodes iterate their range with
/// early exit on a false body. The rt module layers parallel and-reduction
/// on top for O(N) predicates.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PDAG_PREDEVAL_H
#define HALO_PDAG_PREDEVAL_H

#include "pdag/Pred.h"
#include "sym/Eval.h"

#include <cstdint>
#include <optional>

namespace halo {
namespace pdag {

/// Statistics of one predicate evaluation (for the paper's RTov metric).
/// Shared between the tree-walking interpreter below and the bytecode
/// evaluator in PredCompile.h so callers can aggregate either path.
struct EvalStats {
  uint64_t LeafEvals = 0;
  uint64_t LoopIters = 0;
  /// Loop-invariant sub-predicate results served from the per-evaluation
  /// memo table (bytecode evaluator only).
  uint64_t MemoHits = 0;
  /// Whole-predicate evaluations routed through compiled bytecode.
  uint64_t CompiledEvals = 0;
  /// Whole-predicate evaluations routed through this tree interpreter by
  /// a caller that had the compiled path available (governor fallback).
  uint64_t InterpEvals = 0;
  /// Symbol-slot binds performed by the *pooled* entry points (one per
  /// evaluation; the scratch-frame eval/evalWithSlots paths do not count
  /// theirs).
  uint64_t FrameBinds = 0;

  EvalStats &operator+=(const EvalStats &O) {
    LeafEvals += O.LeafEvals;
    LoopIters += O.LoopIters;
    MemoHits += O.MemoHits;
    CompiledEvals += O.CompiledEvals;
    InterpEvals += O.InterpEvals;
    FrameBinds += O.FrameBinds;
    return *this;
  }
};

/// Evaluates \p P under \p B. Returns nullopt if a symbol is unbound or an
/// array access goes out of bounds (the conservative answer is then "test
/// failed", i.e. treat as false).
std::optional<bool> tryEvalPred(const Pred *P, sym::Bindings &B,
                                EvalStats *Stats = nullptr);

/// Evaluates \p P under \p B, asserting that evaluation succeeds.
bool evalPred(const Pred *P, sym::Bindings &B, EvalStats *Stats = nullptr);

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_PREDEVAL_H
