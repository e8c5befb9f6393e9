//===- pdag/PredSimplify.h - Predicate simplification & cascade -*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The predicate-program optimizations of Sec. 3.5:
///
///  - `simplify`   : semantics-preserving rewrites — and/or flattening
///    (done by the constructors), common-factor extraction
///    `(B1 or A) and ... and (Bp or A)  ==  (B1 and ... and Bp) or A`,
///    distribution of LoopAll over And, and hoisting of loop-invariant
///    disjuncts outside LoopAll nodes:
///    `ALL_i (A_inv or B_i)  ==  A_inv or ALL_i B_i`.
///    These are equivalences, verified by the property tests.
///
///  - `strengthenToDepth` : extracts the O(N^d)-bounded sufficient
///    condition from a predicate by replacing deeper loop nodes with their
///    invariant-sufficient parts (inner loop nodes become `false` exactly
///    as in Fig. 9a). The result implies the input.
///
///  - `buildCascade` : orders the extracted conditions by estimated
///    complexity, producing the paper's cascade of increasingly expensive
///    runtime tests (first success wins).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PDAG_PREDSIMPLIFY_H
#define HALO_PDAG_PREDSIMPLIFY_H

#include "pdag/Pred.h"

#include <vector>

namespace halo {
namespace pdag {

/// Applies the semantics-preserving simplifications of Sec. 3.5 until a
/// fixpoint (bounded). The result is logically equivalent to \p P.
const Pred *simplify(PredContext &Ctx, const Pred *P);

/// Returns a predicate that implies \p P and whose loop-nest depth is at
/// most \p MaxDepth (0 = an O(1) test). May return false when nothing
/// useful survives at that complexity.
const Pred *strengthenToDepth(PredContext &Ctx, const Pred *P, int MaxDepth);

/// One stage of the runtime test cascade.
struct CascadeStage {
  const Pred *P = nullptr;
  /// Loop-nest depth of the test: 0 = O(1), 1 = O(N), ...
  int Depth = 0;
};

/// Builds the cascade of sufficient independence conditions for \p Full,
/// ordered by increasing complexity; the last stage is \p Full itself.
/// Stages that fold to false or duplicate a cheaper stage are dropped. An
/// empty result means \p Full is the false predicate. \p Full must be the
/// output of simplify(), which the caller needs anyway to tell a
/// statically true or false predicate.
///
/// Cost: strengthening and simplification are memoized on interned
/// identity across all depths, so each DAG node is visited once per
/// (remaining budget, set of eliminated loop variables) it is reached
/// with: linear in the DAG size for each depth, not in its tree size.
std::vector<CascadeStage> buildCascade(PredContext &Ctx, const Pred *Full);

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_PREDSIMPLIFY_H
