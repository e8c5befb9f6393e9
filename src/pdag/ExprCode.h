//===- pdag/ExprCode.h - Shared expression bytecode ------------*- C++ -*-===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slot-resolved expression bytecode shared by the two compile-once
/// runtime engines: the predicate compiler (pdag/PredCompile.h) and the
/// USR interval-run compiler (usr/USRCompile.h). Both lower sym::Expr
/// trees into the same flat stack-machine code so that evaluation never
/// touches a sym::Bindings hash table: every scalar and index-array symbol
/// is resolved to a dense frame slot once per binding, and constants are
/// folded at compile time.
///
///  - ExprCodeBuilder interns symbol slots and emits canonical expressions
///    into a caller-owned code/slot-table triple (each compiled object owns
///    its own tables; the builder is compile-time only). It also tracks the
///    exact peak stack depth across every range it emits, so frames can be
///    sized precisely instead of code-length + 1.
///  - runExprCode executes a [Begin, End) range against bound slot arrays;
///    it returns nullopt when an unbound scalar or out-of-bounds array
///    read decides the value (the same conservative contract as
///    sym::tryEval).
///
//===----------------------------------------------------------------------===//

#ifndef HALO_PDAG_EXPRCODE_H
#define HALO_PDAG_EXPRCODE_H

#include "sym/Eval.h"
#include "sym/Expr.h"

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace halo {
namespace pdag {

/// Lowering resource caps (the compile-tier guards; see docs/FUZZING.md).
/// Expressions or predicates nested deeper than this are not lowered —
/// the compile entry points (`CompiledPred::compile`, `CompiledUSR::compile`)
/// return null and the governor falls back to the reference interpreters,
/// counting the demotion in `rt::ExecStats::GuardDemotions`. Front-door
/// validation (ir/Validate.h) admits deeper structures than this cap, so
/// demotion — not rejection — is the contract for the gap in between.
inline constexpr unsigned LoweringMaxNestDepth = 200;
/// Ceiling on emitted bytecode size (instructions) per compiled object.
inline constexpr size_t LoweringMaxCodeLen = 1u << 20;

/// Nesting depth of \p E (leaves count 1), computed iteratively with an
/// explicit stack so hostile deeply-nested expressions cannot overflow the
/// C++ stack, and saturated at \p Cap + 1.
unsigned exprNestDepth(const sym::Expr *E, unsigned Cap);

/// One expression-bytecode instruction (operates on an int64 value stack).
/// Packed to 16 bytes: ArrayLoadOff is the only op that needs two slots,
/// and its index-scalar slot + small offset share the Imm field (see
/// packLoadOff); offsets outside int32 fall back to the unfused sequence.
struct ExprInstr {
  enum class Op : uint8_t {
    Const,        ///< push Imm
    Scalar,       ///< push scalar slot Slot (fail when unbound)
    ArrayLoad,    ///< pop index, push array slot Slot at index (fail OOB)
    ArrayLoadOff, ///< push array Slot at (scalar + offset), scalar slot and
                  ///< offset packed into Imm — the fused form of the
                  ///< ubiquitous A(i), A(i+1) accesses
    Min,          ///< pop b, a; push min(a, b)
    Max,          ///< pop b, a; push max(a, b)
    FloorDiv,     ///< pop a; push floor(a / Imm)
    Mod,          ///< pop a; push a - Imm * floor(a / Imm)
    Mul,          ///< pop b, a; push a * b
    MulConst,     ///< top *= Imm
    AddConst,     ///< top += Imm
    MulConstAdd,  ///< pop v; top += Imm * v   (monomial accumulate)
  };
  Op Opcode;
  uint32_t Slot = 0;
  int64_t Imm = 0;

  /// Packs an ArrayLoadOff operand pair: index-scalar slot in the high 32
  /// bits, offset (must fit int32) in the low 32.
  static int64_t packLoadOff(uint32_t IdxSlot, int32_t Off) {
    return static_cast<int64_t>((static_cast<uint64_t>(IdxSlot) << 32) |
                                static_cast<uint32_t>(Off));
  }
  uint32_t loadOffIdxSlot() const {
    return static_cast<uint32_t>(static_cast<uint64_t>(Imm) >> 32);
  }
  int64_t loadOffDelta() const {
    return static_cast<int32_t>(static_cast<uint32_t>(Imm));
  }
};
static_assert(sizeof(ExprInstr) == 16,
              "ExprInstr must stay two words; see packLoadOff");

/// Emits canonical sym::Expr trees as expression bytecode into a
/// caller-owned code vector, interning scalar/array symbols into the
/// caller's slot tables (slot index == position in the table). One builder
/// serves one compiled object; evaluation state is bound separately.
class ExprCodeBuilder {
public:
  ExprCodeBuilder(const sym::Context &Ctx, std::vector<ExprInstr> &Code,
                  std::vector<sym::SymbolId> &ScalarSlots,
                  std::vector<sym::SymbolId> &ArraySlots)
      : Ctx(Ctx), Code(Code), ScalarSlots(ScalarSlots),
        ArraySlots(ArraySlots) {}

  /// Emits \p E as a fresh code range; returns [Begin, End).
  std::pair<uint32_t, uint32_t> compile(const sym::Expr *E);

  uint32_t scalarSlot(sym::SymbolId S);
  uint32_t arraySlot(sym::SymbolId S);

  /// Exact peak stack depth over every range compiled so far (each range
  /// starts from an empty stack, so this is the per-object frame bound).
  uint32_t maxStackDepth() const { return MaxDepth; }

  /// True when any compiled range tripped a lowering resource guard
  /// (nesting beyond LoweringMaxNestDepth or code beyond
  /// LoweringMaxCodeLen). The offending range emits a balanced dummy
  /// constant so the code stream stays well-formed; the owning compiler
  /// must discard the object and let callers demote to the interpreter.
  bool exceeded() const { return Exceeded; }

private:
  void emit(ExprInstr::Op Op, uint32_t Slot = 0, int64_t Imm = 0);
  void emitExpr(const sym::Expr *E);
  bool matchAffineIndex(const sym::Expr *E, sym::SymbolId &S,
                        int64_t &Off) const;

  const sym::Context &Ctx;
  std::vector<ExprInstr> &Code;
  std::vector<sym::SymbolId> &ScalarSlots;
  std::vector<sym::SymbolId> &ArraySlots;
  std::unordered_map<sym::SymbolId, uint32_t> ScalarSlotFor;
  std::unordered_map<sym::SymbolId, uint32_t> ArraySlotFor;
  uint32_t Depth = 0;    ///< live stack depth of the range being compiled
  uint32_t MaxDepth = 0; ///< peak over all ranges compiled by this builder
  bool Exceeded = false; ///< a range tripped a lowering resource guard
};

/// Exact peak stack depth of code range [Begin, End), recomputed by static
/// simulation (every opcode has a fixed net stack effect). Used by debug
/// asserts to validate the compile-time bound frames are sized from.
uint32_t exprCodeMaxDepth(const ExprInstr *Code, uint32_t Begin, uint32_t End);

/// Executes expression code [Begin, End) of \p Code against bound slot
/// arrays. \p Stack must have room for the range's exact peak depth (see
/// ExprCodeBuilder::maxStackDepth / exprCodeMaxDepth). Returns nullopt on
/// an unbound scalar or out-of-bounds read.
std::optional<int64_t> runExprCode(const ExprInstr *Code, uint32_t Begin,
                                   uint32_t End, const int64_t *Scalars,
                                   const uint8_t *Bound,
                                   const sym::ArrayBinding *const *Arrays,
                                   int64_t *Stack);

} // namespace pdag
} // namespace halo

#endif // HALO_PDAG_EXPRCODE_H
