//===- rt/CompiledCascade.cpp - Plan-time cascade compilation -------------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//

#include "rt/CompiledCascade.h"

#include "support/FaultInjection.h"
#include "usr/USREval.h"

#include <algorithm>
#include <limits>

using namespace halo;
using namespace halo::rt;

const pdag::CompiledPred *PredCompileCache::get(const pdag::Pred *P) {
  // Compilation runs under the lock: simple, and write traffic only
  // exists at plan time (config-exclusive under the serving layer), so
  // the serving path pays one uncontended lock per lookup at most.
  support::MutexLock L(M);
  auto It = Cache.find(P);
  if (It != Cache.end())
    return It->second.get();
  support::faultAt("rt.compile.pred");
  auto CP = pdag::CompiledPred::compile(P, Sym);
  return Cache.emplace(P, std::move(CP)).first->second.get();
}

const usr::CompiledUSR *USRCompileCache::get(const usr::USR *S) {
  // Compilation runs under the lock, as in PredCompileCache::get.
  support::MutexLock L(M);
  auto It = Cache.find(S);
  if (It != Cache.end())
    return It->second.get();
  support::faultAt("rt.compile.usr");
  auto Code = usr::CompiledUSR::compile(
      S, Sym, [this](const pdag::Pred *P) { return Preds.get(P); });
  return Cache.emplace(S, std::move(Code)).first->second.get();
}

std::optional<bool> USRCompileCache::emptiness(const usr::USR *S,
                                               const sym::Bindings &B,
                                               ThreadPool *Pool,
                                               usr::USREvalStats *Stats,
                                               USRFramePool *Frames,
                                               const support::CancelToken
                                                   *Cancel) {
  const usr::CompiledUSR *Code = get(S);
  if (!Code) {
    // Lowering tripped a resource guard (CompiledUSR::compile returned
    // null — nesting or bytecode-size cap): demote this exact test to the
    // reference interpreter instead of failing the execution. Correct
    // either way; only slower, and counted.
    if (support::stopRequested(Cancel))
      return std::nullopt;
    if (Stats)
      ++Stats->GuardDemotions;
    sym::Bindings Local(B);
    return usr::evalUSREmpty(S, Local, 1u << 22, Stats);
  }
  if (support::stopRequested(Cancel))
    return std::nullopt; // No answer for an aborted evaluation.
  if (!Frames)
    return Code->evalEmpty(B, 1u << 22, Stats);
  usr::CompiledUSR::PooledFrame &F = Frames->frameFor(Code);
  if (Pool) // Serial unless the root recurrence can fan out.
    return Code->evalEmptyParallel(F, B, *Pool, 1u << 22, Stats, 2048,
                                   Cancel);
  return Code->evalEmptyPooled(F, B, 1u << 22, Stats);
}

CompiledCascade CompiledCascade::build(const analysis::TestCascade &C,
                                       PredCompileCache &Cache) {
  CompiledCascade Out;
  Out.StaticallyTrue = C.StaticallyTrue;
  if (C.StaticallyTrue)
    return Out;
  Out.Stages.reserve(C.Stages.size());
  for (const pdag::CascadeStage &St : C.Stages)
    Out.Stages.push_back(Stage{&St, Cache.get(St.P)});
  // Cheapest-first by compiled cost estimate: buildCascade orders by loop
  // depth alone, the bytecode length refines ties between same-depth
  // stages. Done once here, at plan time. A stage whose predicate tripped
  // a lowering guard (null Code — the governor interprets it instead)
  // sorts last: interpreted evaluation is the most expensive tier.
  if (Out.Stages.size() > 1)
    std::stable_sort(Out.Stages.begin(), Out.Stages.end(),
                     [](const Stage &A, const Stage &B) {
                       uint64_t CA = A.Code ? A.Code->costEstimate()
                                            : std::numeric_limits<uint64_t>::max();
                       uint64_t CB = B.Code ? B.Code->costEstimate()
                                            : std::numeric_limits<uint64_t>::max();
                       return CA < CB;
                     });
  return Out;
}

PlanCascades PlanCascades::build(const analysis::LoopPlan &Plan,
                                 PredCompileCache &Cache) {
  PlanCascades Out;
  Out.Arrays.resize(Plan.Arrays.size());
  for (size_t I = 0; I < Plan.Arrays.size(); ++I) {
    const analysis::ArrayPlan &AP = Plan.Arrays[I];
    if (AP.ReadOnly)
      continue;
    ArrayCascades &AC = Out.Arrays[I];
    AC.Flow = CompiledCascade::build(AP.Flow, Cache);
    AC.Output = CompiledCascade::build(AP.Output, Cache);
    AC.Priv = CompiledCascade::build(AP.Priv, Cache);
    AC.Slv = CompiledCascade::build(AP.Slv, Cache);
    AC.RRed = CompiledCascade::build(AP.RRed, Cache);
    AC.ExtRedFlow = CompiledCascade::build(AP.ExtRedFlow, Cache);
  }
  return Out;
}
