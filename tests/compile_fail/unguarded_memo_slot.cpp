//===- compile_fail/unguarded_memo_slot.cpp - TSA negative case -----------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
// Violation class: reading the runtime-test memo's slot without the memo
// mutex. rt::TestMemo copies the slot's shared_ptr out under its mutex and
// compares the (immutable) entry against the execution's bindings outside
// it; an unlocked read of the slot races a concurrent publish. As written
// this file compiles clean; with HALO_EXPECT_TSA_VIOLATION the lookup
// reads the slot without the lock and the analysis must reject it.
//
//===----------------------------------------------------------------------===//

#include "support/Sync.h"

#include <memory>

namespace {

using namespace halo::support;

struct Entry {
  int Key;
};

struct Memo {
  mutable Mutex M;
  std::shared_ptr<const Entry> Slot HALO_GUARDED_BY(M);

  bool lookup(int Key) const HALO_EXCLUDES(M) {
#ifdef HALO_EXPECT_TSA_VIOLATION
    std::shared_ptr<const Entry> E = Slot; // Unlocked read of the slot.
#else
    std::shared_ptr<const Entry> E;
    {
      MutexLock L(M);
      E = Slot;
    }
#endif
    return E && E->Key == Key; // Compared outside the lock.
  }

  void publish(std::shared_ptr<const Entry> E) HALO_EXCLUDES(M) {
    MutexLock L(M);
    Slot = std::move(E);
  }
};

} // namespace

int main() {
  Memo C;
  C.publish(std::make_shared<const Entry>(Entry{7}));
  return C.lookup(7) ? 0 : 1;
}
