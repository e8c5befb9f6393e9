//===- rt/Interp.h - The interpreter substrate -----------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-IR interpreter the runtime executes loops on — split from the
/// governor (rt/Executor.h) so cascade evaluation, technique decisions and
/// fallback policy live in one layer and plain statement interpretation in
/// another. The governor composes these pieces: it prepares an ExecState
/// (privatization redirects, reduction buffers, LRPD shadows), then drives
/// interpStmt over the loop body, sequentially or from pool workers.
///
/// Interpretation cost applies equally to sequential and parallel
/// executions, so normalized timings (Figs. 10-13) retain their shape.
///
//===----------------------------------------------------------------------===//

#ifndef HALO_RT_INTERP_H
#define HALO_RT_INTERP_H

#include "ir/Program.h"
#include "rt/Memory.h"
#include "summary/Summary.h"
#include "support/ThreadPool.h"
#include "sym/Eval.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

namespace halo {
namespace usr {
class USR;
}
namespace rt {

/// LRPD shadow state for one array (Sec. 5 / [25]): last-writer iteration
/// per element plus a global conflict flag.
struct Shadow {
  std::unique_ptr<std::atomic<int64_t>[]> Writer; // -1 none.
  std::unique_ptr<std::atomic<int64_t>[]> Reader; // -1 none (exposed).
  size_t Size = 0;

  explicit Shadow(size_t N) : Size(N) {
    Writer.reset(new std::atomic<int64_t>[N]);
    Reader.reset(new std::atomic<int64_t>[N]);
    for (size_t I = 0; I < N; ++I) {
      Writer[I].store(-1, std::memory_order_relaxed);
      Reader[I].store(-1, std::memory_order_relaxed);
    }
  }
};

/// Mutable state of one interpretation: memory, scalar bindings, the
/// call-site alias chain, and the per-array strategy maps the governor
/// installs (privatization redirects, reduction buffers, SLV masks, DLV
/// tracking, LRPD shadows).
struct ExecState {
  Memory &M;
  sym::Bindings B;

  /// Call-site array aliasing: formal -> (array, offset) at call time.
  std::map<sym::SymbolId, std::pair<sym::SymbolId, int64_t>> Alias;

  /// Privatization redirects: base array -> thread-private buffer.
  std::map<sym::SymbolId, std::vector<double> *> Redirect;
  /// Reduction private buffers (additive, zero-initialized).
  std::map<sym::SymbolId, std::vector<double> *> RedBuf;
  /// Per-element write masks for SLV arrays.
  std::map<sym::SymbolId, std::vector<uint8_t> *> WrittenMask;
  /// DLV tracking: last writing iteration + value per element.
  struct DlvBuf {
    std::vector<int64_t> LastIter;
    std::vector<double> Val;
  };
  std::map<sym::SymbolId, DlvBuf *> Dlv;

  /// LRPD shadows (speculative runs only). A non-null Conflict marks a
  /// speculative run: data-array accesses then use relaxed atomics, since
  /// workers share the unprivatized arrays.
  std::map<sym::SymbolId, Shadow *> Shadows;
  std::atomic<bool> *Conflict = nullptr;

  int64_t CurrentIter = 0;

  /// The first data-array access outside its array (or to an unallocated
  /// one). load/store skip such an access (a load reads 0) and record it
  /// here instead of throwing, so pool workers never throw; the entry
  /// points raise support::OutOfBoundsError after the join.
  struct OobAccess {
    sym::SymbolId Array = 0;
    int64_t Index = 0;
  };
  std::optional<OobAccess> Oob;

  explicit ExecState(Memory &M, const sym::Bindings &Bind) : M(M), B(Bind) {}

  /// Resolves a (possibly formal) array + offset through the alias chain.
  std::pair<sym::SymbolId, int64_t> resolve(sym::SymbolId Arr,
                                            int64_t Off) const;
  double load(sym::SymbolId Arr, int64_t Off);
  void store(sym::SymbolId Arr, int64_t Off, double Val, bool IsReduction);

private:
  /// True when element \p Idx of \p V exists; otherwise records the
  /// access in Oob (first one wins) and returns false.
  bool inBounds(const std::vector<double> *V, sym::SymbolId Base,
                int64_t Idx);
  [[gnu::cold, gnu::noinline]] void recordOob(sym::SymbolId Base,
                                              int64_t Idx);
};

/// Throws support::OutOfBoundsError when \p A holds an access.
void throwIfOutOfBounds(const std::optional<ExecState::OobAccess> &A);

/// Interprets one statement (recursively) under \p St.
void interpStmt(const ir::Stmt *S, ExecState &St);

/// Plain sequential interpretation of a statement list; propagates scalar
/// updates (CIV values etc.) back into \p B. This and interpSequential
/// throw support::OutOfBoundsError after the run when an access fell
/// outside its array (the access itself was skipped).
void interpStmts(const std::vector<const ir::Stmt *> &Stmts, Memory &M,
                 sym::Bindings &B);

/// Sequential execution of one loop (the timing baseline).
void interpSequential(const ir::DoLoop &Loop, Memory &M, sym::Bindings &B);

/// CIV-COMP: precomputes civ@pre / join pseudo-arrays into \p B by a
/// sequential slice of the loop (only control flow and CIV updates).
void interpCivSlice(const ir::DoLoop &Loop, const summary::CivPlan &Plan,
                    Memory &M, sym::Bindings &B);

/// BOUNDS-COMP: evaluates the min/max touched offsets of \p S in
/// parallel (Fig. 7a). Returns false on evaluation failure.
bool interpBounds(const usr::USR *S, sym::Bindings &B, ThreadPool &Pool,
                  int64_t &Lo, int64_t &Hi);

} // namespace rt
} // namespace halo

#endif // HALO_RT_INTERP_H
