//===- rt/Executor.h - Runtime: the execution governor ---------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime *governor* standing in for the paper's OpenMP runtime
/// (Sec. 5): under a LoopPlan it precomputes CIV values (CIV-COMP),
/// evaluates the predicate cascades cheapest-first, decides per-array
/// strategies (shared / privatized / SLV / DLV / reduction private copies
/// / direct reduction), falls back to exact USR evaluation (optionally
/// memoized — HOIST-USR) or LRPD speculation, and finally executes the
/// loop across a thread pool with the chosen techniques.
///
/// Plain statement interpretation lives in the substrate layer
/// (rt/Interp.h); plan-time cascade compilation and frame pooling in
/// rt/CompiledCascade.h. The session layer (session/Session.h) is the
/// governor's only caller: it hands in pre-built PlanCascades and a
/// leased rt::ExecContext so repeated executions of the same plan do no
/// per-execution setup at all — and so concurrent executions never share
/// mutable frames.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_EXECUTOR_H
#define HALO_RT_EXECUTOR_H

#include "analysis/Analyzer.h"
#include "rt/CompiledCascade.h"
#include "rt/Interp.h"
#include "rt/Memory.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"
#include "sym/Eval.h"

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

namespace halo {
namespace rt {

/// How one loop execution was resolved (for RTov and table reporting).
struct ExecStats {
  /// Whether (and why) the execution was abandoned before producing a
  /// result. A non-None reason means the caller's Memory/Bindings were
  /// either left untouched or reflect only fully-completed repeats —
  /// cancellation only fires *between* units of work, never mid-body.
  enum class AbortReason : uint8_t { None = 0, Cancelled, Expired };
  AbortReason Aborted = AbortReason::None;

  double TotalSeconds = 0;
  /// Cascade evaluation time, plus the TestMemo lookup (and, on a miss,
  /// the key capture and publish).
  double PredicateSeconds = 0;
  double CivSliceSeconds = 0;  ///< CIV-COMP precomputation time.
  double ExactTestSeconds = 0; ///< Inspector (exact USR) time.
  double BoundsCompSeconds = 0;
  bool RanParallel = false;
  bool UsedExactTest = false;
  bool UsedTLS = false;
  bool TLSSucceeded = false;
  int CascadeDepthUsed = -1; ///< Depth of the first successful stage.
  uint64_t PredicateLeafEvals = 0;
  /// Invariant sub-predicate results served from the bytecode evaluator's
  /// per-evaluation memo table.
  uint64_t PredMemoHits = 0;
  /// Cascade stages evaluated through compiled bytecode vs. through the
  /// reference tree interpreter (the compiled/interpreted split the RTov
  /// harness reports). Each stage evaluation is counted exactly once, by
  /// the governor, on whichever path it took — the two columns are
  /// symmetric and cannot double-count.
  uint64_t CompiledPredEvals = 0;
  uint64_t InterpPredEvals = 0;
  /// Pooled-frame symbol binds (one per compiled stage evaluation).
  uint64_t FrameBinds = 0;
  /// Never written; remains only for perfbench's stats export.
  uint64_t FrameRebindsSkipped = 0;
  /// Exact-test (HOIST-USR fallback) evaluations routed through the
  /// compiled interval-run engine vs. the reference interpreter,
  /// governor-counted symmetrically like the predicate split above.
  /// HoistCache hits evaluate nothing and count as neither.
  uint64_t CompiledUSREvals = 0;
  uint64_t InterpUSREvals = 0;
  /// Interval runs produced by compiled exact tests and the point
  /// enumerations they made unnecessary (usr::USREvalStats).
  uint64_t USRRunsProduced = 0;
  uint64_t USRPointsAvoided = 0;
  /// Never written; remains only for perfbench's stats export.
  uint64_t BlockEvals = 0;
  /// Never written; remains only for perfbench's stats export.
  uint64_t ScalarEvals = 0;
  /// Never written; remains only for perfbench's stats export.
  uint64_t LanesPoisoned = 0;
  /// Evaluations demoted from the compiled engines to the reference
  /// interpreters because lowering tripped a resource guard (nesting or
  /// bytecode-size cap — see pdag/ExprCode.h). Covers both cascade stages
  /// whose predicate failed to lower and exact tests whose USR failed to
  /// lower; semantically identical, only slower, and visible here.
  uint64_t GuardDemotions = 0;
  /// Planned executions whose runtime-test verdict came from the prepared
  /// loop's TestMemo (every test skipped) vs. ones that ran the tests.
  /// Executions that bypass the memo (StaticPar plans, and plans that run
  /// no tests) count as neither.
  uint64_t TestMemoHits = 0;
  uint64_t TestMemoMisses = 0;

  /// Accumulates \p O into this: times and event counters sum, the
  /// boolean outcomes OR (e.g. `RanParallel` means "any accumulated
  /// execution ran parallel") and CascadeDepthUsed keeps the deepest
  /// stage. The serving layer folds per-request stats into per-shard
  /// totals with this.
  ExecStats &operator+=(const ExecStats &O) {
    if (Aborted == AbortReason::None)
      Aborted = O.Aborted; // First latched abort reason wins.
    TotalSeconds += O.TotalSeconds;
    PredicateSeconds += O.PredicateSeconds;
    CivSliceSeconds += O.CivSliceSeconds;
    ExactTestSeconds += O.ExactTestSeconds;
    BoundsCompSeconds += O.BoundsCompSeconds;
    RanParallel |= O.RanParallel;
    UsedExactTest |= O.UsedExactTest;
    UsedTLS |= O.UsedTLS;
    TLSSucceeded |= O.TLSSucceeded;
    CascadeDepthUsed = CascadeDepthUsed > O.CascadeDepthUsed
                           ? CascadeDepthUsed
                           : O.CascadeDepthUsed;
    PredicateLeafEvals += O.PredicateLeafEvals;
    PredMemoHits += O.PredMemoHits;
    CompiledPredEvals += O.CompiledPredEvals;
    InterpPredEvals += O.InterpPredEvals;
    FrameBinds += O.FrameBinds;
    CompiledUSREvals += O.CompiledUSREvals;
    InterpUSREvals += O.InterpUSREvals;
    USRRunsProduced += O.USRRunsProduced;
    USRPointsAvoided += O.USRPointsAvoided;
    GuardDemotions += O.GuardDemotions;
    TestMemoHits += O.TestMemoHits;
    TestMemoMisses += O.TestMemoMisses;
    return *this;
  }
};

/// Memoization cache for hoisted exact tests (HOIST-USR, Sec. 5): the
/// emptiness result of an independence USR is reused across repeated
/// executions with identical relevant inputs.
///
/// Keyed by (USR identity, hash of the relevant bindings); every entry
/// additionally stores an independent verification hash of the same
/// inputs, so a primary-hash collision is detected and answered by
/// falling back to exact evaluation instead of silently returning the
/// colliding entry's emptiness answer.
///
/// Internally synchronized: concurrent emptiness() probes are safe, and
/// the memo stays shared across every concurrent execution of a session
/// (the amortization is per loop, not per worker). The lock covers only
/// the map probe/insert; evaluation of a miss runs outside it, so two
/// simultaneous first requests may both evaluate — duplicated work, same
/// inserted answer, never a wrong one.
class HoistCache {
public:
  /// Returns the cached emptiness answer, or evaluates and caches it.
  /// Nullopt when evaluation itself fails. A miss evaluates through the
  /// compiled interval-run engine when \p Compiled is given (chunking a
  /// root recurrence across \p Pool, pooled frames from \p Frames — see
  /// USRCompileCache::emptiness), through the reference interpreter
  /// otherwise.
  /// A fired \p Cancel token makes the evaluation of a miss bail and
  /// return nullopt — a cancelled evaluation has no answer and is never
  /// cached, so an aborted request can never poison the memo.
  std::optional<bool> emptiness(const usr::USR *S, sym::Bindings &B,
                                const sym::Context &Ctx, bool &WasHit,
                                USRCompileCache *Compiled = nullptr,
                                ThreadPool *Pool = nullptr,
                                usr::USREvalStats *Stats = nullptr,
                                USRFramePool *Frames = nullptr,
                                const support::CancelToken *Cancel = nullptr)
      HALO_EXCLUDES(M);

  size_t size() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Cache.size();
  }
  /// Primary-hash collisions detected via the verification hash (the
  /// silent-wrong-answer case before it carried one).
  uint64_t collisions() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Collisions;
  }

private:
  struct Key {
    const usr::USR *S;
    uint64_t Hash;
    bool operator==(const Key &O) const {
      return S == O.S && Hash == O.Hash;
    }
  };
  struct KeyHasher {
    size_t operator()(const Key &K) const {
      size_t H = std::hash<const usr::USR *>{}(K.S);
      hashCombine(H, static_cast<size_t>(K.Hash));
      return H;
    }
  };
  struct Entry {
    uint64_t Verify; ///< Independent hash of the same inputs.
    bool Empty;
  };
  mutable support::Mutex M;
  /// Probe/insert under M; miss evaluation runs outside it (two
  /// simultaneous first requests may both evaluate — duplicated work,
  /// same inserted answer, never a wrong one).
  std::unordered_map<Key, Entry, KeyHasher> Cache HALO_GUARDED_BY(M);
  uint64_t Collisions HALO_GUARDED_BY(M) = 0;
};

/// Runtime decision for one written array.
struct ArrayDecision {
  bool Privatize = false;
  bool UseSLV = false;
  bool UseDLV = false;
  bool ReductionPrivate = false;
};

/// What the runtime tests of one planned execution decided: everything
/// the loop body, the TLS fallback and the merges read from the tests.
struct TestVerdict {
  std::map<sym::SymbolId, ArrayDecision> Decisions;
  bool AllOk = true;
  int CascadeDepthUsed = -1;
  bool UsedExactTest = false;
};

/// Exact-input memo of one prepared loop's runtime-test verdict — the
/// paper's amortization of tests whose inputs do not change across a
/// loop's invocations (Sec. 5), applied to every test at once: CIV-COMP,
/// every cascade, the exact USR test and BOUNDS-COMP.
///
/// The key is the execution's whole sym::Bindings — every scalar and
/// every index array — minus the plan's own CIV entry/join pseudo-arrays,
/// which are outputs of the CIV slice. Every runtime test is a pure
/// function of those bindings under a fixed plan, so a hit is exact (no
/// hashing): scalars compare by value, arrays by pointer first (the
/// shared storage a copied Bindings keeps) and then by value. Key arrays
/// are held zero-copy as the shared_ptrs the Bindings already owns.
///
/// One slot: the most recent inputs win it. Internally synchronized; the
/// lock covers only the copy of the slot's shared_ptr, and the entry is
/// immutable once published, so the key comparison runs outside the lock
/// and concurrent executions never serialize on each other's tests.
class TestMemo {
public:
  /// One published verdict with the inputs it was computed from.
  struct Entry {
    /// Key: every bound scalar, and every bound array except the plan's
    /// CIV pseudo-arrays.
    std::vector<std::pair<sym::SymbolId, int64_t>> Scalars;
    std::vector<std::pair<sym::SymbolId,
                          std::shared_ptr<const sym::ArrayBinding>>>
        Arrays;
    /// The CIV-COMP output a hit republishes into the bindings.
    std::vector<std::pair<sym::SymbolId,
                          std::shared_ptr<const sym::ArrayBinding>>>
        CivArrays;
    TestVerdict Verdict;

    /// True when \p B binds exactly this entry's key (ignoring \p Civ's
    /// pseudo-arrays in \p B).
    bool matches(const sym::Bindings &B, const summary::CivPlan &Civ) const;
  };

  /// Starts an entry keyed by \p B (minus \p Civ's pseudo-arrays); the
  /// caller fills in the outputs and publishes it.
  static std::shared_ptr<Entry> capture(const sym::Bindings &B,
                                        const summary::CivPlan &Civ);

  /// The stored entry when it matches \p B exactly, else null.
  std::shared_ptr<const Entry> lookup(const sym::Bindings &B,
                                      const summary::CivPlan &Civ) const
      HALO_EXCLUDES(M);
  /// Replaces the slot with \p E. Callers never publish the verdict of an
  /// aborted execution.
  void publish(std::shared_ptr<const Entry> E) HALO_EXCLUDES(M);
  /// The current slot (null when empty).
  std::shared_ptr<const Entry> current() const HALO_EXCLUDES(M) {
    support::MutexLock L(M);
    return Slot;
  }

private:
  mutable support::Mutex M;
  std::shared_ptr<const Entry> Slot HALO_GUARDED_BY(M);
};

/// Executes analyzed loops under their plans. session::Session owns the
/// one instance per session and hands every execution its plan-time
/// artifacts (PlanCascades, HoistCache, TestMemo) and a leased
/// ExecContext; the executor itself holds no mutable state.
class Executor {
public:
  /// \p UseCompiledPreds routes cascade stages through compiled bytecode
  /// (else the reference tree interpreter). \p UsrCompile routes exact
  /// tests through the compiled interval-run engine; null selects the
  /// reference interpreter (usr::evalUSREmpty). Both interpreter paths
  /// are the A/B measurement and parity oracles of their compiled tiers.
  Executor(const sym::Context &Sym, bool UseCompiledPreds,
           USRCompileCache *UsrCompile)
      : Sym(Sym), UseCompiledPreds(UseCompiledPreds), UsrCompile(UsrCompile) {
  }

  /// Hybrid execution under a plan: predicate cascades, technique
  /// selection, exact-test / TLS fallback, parallel interpretation.
  /// \p Pre is \p Plan's plan-time compiled cascades (stage vectors
  /// neither rebuilt nor re-sorted per execution); predicate and USR
  /// frames come pooled from \p Ctx, and \p Ctx's token cancels the
  /// execution. \p Hoist memoizes exact tests across executions. Mutates
  /// no executor state, so concurrent calls are safe as long as every
  /// caller brings its own Memory/Bindings/ExecContext (the serving
  /// layer's intra-shard concurrency contract).
  /// \p Memo (the prepared loop's TestMemo) hoists the whole test phase
  /// across executions: a hit skips CIV-COMP, every cascade, the exact
  /// test and BOUNDS-COMP; a miss runs them and publishes the verdict.
  /// StaticPar plans bypass it.
  /// Throws support::OutOfBoundsError when the loop body accesses an
  /// array out of bounds (detected after the workers join; no write lands
  /// outside an array, Memory is otherwise unspecified).
  ExecStats runPlanned(const analysis::LoopPlan &Plan,
                       const PlanCascades &Pre, Memory &M, sym::Bindings &B,
                       ThreadPool &Pool, ExecContext &Ctx, HoistCache &Hoist,
                       TestMemo &Memo) const;

private:
  /// The test phase of runPlanned: CIV-COMP, the per-array cascades with
  /// their exact-test fallbacks, BOUNDS-COMP. Fills \p Verdict and the
  /// timing and evaluation counters of \p Stats; returns false when a
  /// fired cancellation token aborted it (Verdict is then meaningless).
  bool runTests(const analysis::LoopPlan &Plan, const PlanCascades &Pre,
                Memory &M, sym::Bindings &B, ThreadPool &Pool,
                ExecContext &Ctx, HoistCache &Hoist, ExecStats &Stats,
                TestVerdict &Verdict) const;

  bool runSpeculative(const analysis::LoopPlan &Plan, Memory &M,
                      sym::Bindings &B, ThreadPool &Pool,
                      ExecStats &Stats) const;

  /// Evaluates a cascade cheapest-first (\p Pre's plan-time cost order)
  /// and returns the stage depth used (-1 static, -2 all failed). O(N)+
  /// stages run through the chunked parallel and-reduction on pooled
  /// frames from \p Frames. The interpreter path walks \p C in cascade
  /// order instead. \p Cancel adds a poll before every stage: a fired
  /// token aborts the cascade and returns -3 (no stage answer — distinct
  /// from -2 "all stages failed", which routes to fallbacks).
  int runCascade(const analysis::TestCascade &C, const CompiledCascade &Pre,
                 sym::Bindings &B, ThreadPool &Pool, ExecStats &Stats,
                 FramePool &Frames, const support::CancelToken *Cancel) const;

  const sym::Context &Sym;
  const bool UseCompiledPreds;
  /// Null: exact tests run on the reference interpreter.
  USRCompileCache *const UsrCompile;
};

} // namespace rt
} // namespace halo

#endif // HALO_RT_EXECUTOR_H
