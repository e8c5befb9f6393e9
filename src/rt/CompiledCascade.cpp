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

USRCompileCache::Entry &USRCompileCache::entryForLocked(const usr::USR *S) {
  auto It = Cache.find(S);
  if (It != Cache.end())
    return It->second;
  support::faultAt("rt.compile.usr");
  // Compile before inserting so a throwing compilation leaves no
  // half-made entry; Entry itself is pinned in place (it owns a mutex).
  auto Code = usr::CompiledUSR::compile(
      S, Sym, [this](const pdag::Pred *P) { return Preds.get(P); });
  Entry &E = Cache[S];
  E.Code = std::move(Code);
  return E;
}

const usr::CompiledUSR *USRCompileCache::get(const usr::USR *S) {
  support::MutexLock L(M);
  return entryForLocked(S).Code.get();
}

std::optional<bool> USRCompileCache::emptiness(const usr::USR *S,
                                               const sym::Bindings &B,
                                               ThreadPool *Pool,
                                               usr::USREvalStats *Stats,
                                               USRFramePool *Frames,
                                               const support::CancelToken
                                                   *Cancel) {
  Entry *E;
  {
    // Probe/insert under the cache mutex; everything below (the
    // evaluation) runs outside it. Entry references are stable
    // (node-based map).
    support::MutexLock L(M);
    E = &entryForLocked(S);
  }
  const usr::CompiledUSR *Code = E->Code.get();
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
  auto Eval =
      [&](usr::CompiledUSR::PooledFrame &F) -> std::optional<bool> {
    if (Pool && Pool->numThreads() > 1 && Code->hasParallelRoot())
      return Code->evalEmptyParallel(F, B, *Pool, 1u << 22, Stats, 2048,
                                     Cancel);
    return Code->evalEmptyPooled(F, B, 1u << 22, Stats);
  };
  if (Frames)
    return Eval(Frames->frameFor(Code));
  // Frameless callers share the entry's fallback frame (mutable bound
  // slots and prefix caches): hold its mutex across the whole
  // evaluation so two concurrent frameless callers serialize instead of
  // racing on frame state. Pool-carrying callers never touch this path.
  support::MutexLock FL(E->FallbackM);
  return Eval(E->Frame);
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
