//===- tools/halo_fuzz.cpp - Differential loop-nest fuzzer driver ---------===//
//
// Part of HALO, a reproduction of "Logical Inference Techniques for Loop
// Parallelization" (Oancea & Rauchwerger, PLDI 2012).
//
//===----------------------------------------------------------------------===//
//
// Front door of the fuzz subsystem (src/fuzz/, docs/FUZZING.md): generates
// seed-deterministic loop nests, runs the differential oracle stack
// (brute-force dependence, engine parity, front-door validation) on each,
// greedily minimizes failures, and emits corpus repros. Exit status is
// nonzero when any case fails — CI runs a fixed-seed sweep under ASan.
//
//   halo_fuzz --seeds 2000                 # benign sweep
//   halo_fuzz --seeds 500 --hostile        # malformed-input sweep
//   halo_fuzz --replay repro.txt           # re-check one corpus entry
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Minimize.h"
#include "fuzz/Oracle.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace halo;

namespace {

struct DriverOptions {
  uint64_t Seeds = 200;
  uint64_t SeedBase = 1;
  unsigned Body = 6;
  int64_t Trip = 48;
  unsigned Threads = 3;
  bool Hostile = false;
  bool Minimize = true;
  std::string CorpusOut;
  std::string Replay;
};

int usage(const char *Msg) {
  if (Msg)
    std::fprintf(stderr, "halo_fuzz: %s\n", Msg);
  std::fprintf(
      stderr,
      "usage: halo_fuzz [--seeds N] [--seed-base S] [--body N] [--trip N]\n"
      "                 [--threads N] [--hostile] [--no-minimize]\n"
      "                 [--corpus-out DIR] [--replay FILE]\n");
  return 2;
}

void reportFailure(const fuzz::GeneratedCase &Case,
                   const fuzz::OracleResult &Res) {
  std::fprintf(stderr, "=== FAILURE (seed %llu, kind %s) ===\n",
               static_cast<unsigned long long>(Case.Opts.Seed),
               Res.failureKind().c_str());
  for (const std::string &S : Res.Soundness)
    std::fprintf(stderr, "  [soundness] %s\n", S.c_str());
  for (const std::string &S : Res.Parity)
    std::fprintf(stderr, "  [parity] %s\n", S.c_str());
  for (const std::string &S : Res.Other)
    std::fprintf(stderr, "  [front-door] %s\n", S.c_str());
  std::fprintf(stderr, "%s", Case.dump().c_str());
}

/// Re-checks one serialized corpus entry. Returns true when the
/// expectation holds.
bool replayEntry(const fuzz::CorpusEntry &E, const fuzz::OracleOptions &OO) {
  auto Case = fuzz::generate(E.Opts);
  fuzz::OracleResult Res = fuzz::checkCase(*Case, OO);
  if (E.Expect == "validation-error") {
    if (Res.ValidationRejected && Res.ok())
      return true;
    std::fprintf(stderr,
                 "replay: expected structured validation rejection\n");
    reportFailure(*Case, Res);
    return false;
  }
  if (Res.ok())
    return true;
  std::fprintf(stderr, "replay: expected a clean run\n");
  reportFailure(*Case, Res);
  return false;
}

} // namespace

int main(int argc, char **argv) {
  DriverOptions D;
  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (!std::strcmp(A, "--seeds")) {
      const char *V = Next();
      if (!V)
        return usage("--seeds needs a value");
      D.Seeds = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--seed-base")) {
      const char *V = Next();
      if (!V)
        return usage("--seed-base needs a value");
      D.SeedBase = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(A, "--body")) {
      const char *V = Next();
      if (!V)
        return usage("--body needs a value");
      D.Body = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (!std::strcmp(A, "--trip")) {
      const char *V = Next();
      if (!V)
        return usage("--trip needs a value");
      D.Trip = std::strtoll(V, nullptr, 10);
    } else if (!std::strcmp(A, "--threads")) {
      const char *V = Next();
      if (!V)
        return usage("--threads needs a value");
      D.Threads = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    } else if (!std::strcmp(A, "--hostile")) {
      D.Hostile = true;
    } else if (!std::strcmp(A, "--no-minimize")) {
      D.Minimize = false;
    } else if (!std::strcmp(A, "--corpus-out")) {
      const char *V = Next();
      if (!V)
        return usage("--corpus-out needs a value");
      D.CorpusOut = V;
    } else if (!std::strcmp(A, "--replay")) {
      const char *V = Next();
      if (!V)
        return usage("--replay needs a value");
      D.Replay = V;
    } else {
      return usage((std::string("unknown argument: ") + A).c_str());
    }
  }

  fuzz::OracleOptions OO;
  OO.Threads = D.Threads;

  if (!D.Replay.empty()) {
    std::ifstream In(D.Replay);
    if (!In)
      return usage(("cannot open " + D.Replay).c_str());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Error;
    auto E = fuzz::parseEntry(Buf.str(), Error);
    if (!E) {
      std::fprintf(stderr, "halo_fuzz: %s\n", Error.c_str());
      return 2;
    }
    return replayEntry(*E, OO) ? 0 : 1;
  }

  uint64_t Failures = 0, Rejected = 0, Demotions = 0, WriteErrors = 0;
  for (uint64_t S = 0; S < D.Seeds; ++S) {
    fuzz::GenOptions GO;
    GO.Seed = D.SeedBase + S;
    GO.BodyStmts = D.Body;
    GO.Trip = D.Trip;
    GO.Hostile = D.Hostile;
    auto Case = fuzz::generate(GO);
    fuzz::OracleResult Res = fuzz::checkCase(*Case, OO);
    Demotions += Res.GuardDemotions;
    if (Res.ValidationRejected)
      ++Rejected;
    if (Res.ok())
      continue;
    ++Failures;
    std::string Kind = Res.failureKind();
    reportFailure(*Case, Res);
    fuzz::GenOptions Min = GO;
    if (D.Minimize) {
      Min = fuzz::minimizeCase(GO, [&](fuzz::GeneratedCase &Trial) {
        return fuzz::checkCase(Trial, OO).failureKind() == Kind;
      });
      if (Min.Drop.size() > 0) {
        auto MinCase = fuzz::generate(Min);
        std::fprintf(stderr,
                     "--- minimized (%zu of %u slots dropped) ---\n%s",
                     Min.Drop.size(), MinCase->NumSlots,
                     MinCase->dump().c_str());
      }
    }
    if (!D.CorpusOut.empty()) {
      fuzz::CorpusEntry E;
      E.Opts = Min;
      E.Expect = "clean"; // Once fixed, replay must come back clean.
      E.Note = "found by halo_fuzz sweep; failure kind: " + Kind;
      std::string Path = D.CorpusOut + "/seed" +
                         std::to_string(GO.Seed) + "_" + Kind + ".repro";
      std::error_code EC;
      std::filesystem::create_directories(D.CorpusOut, EC);
      std::ofstream Out(Path);
      Out << fuzz::serializeEntry(E);
      Out.close();
      if (EC || !Out) {
        std::fprintf(stderr, "halo_fuzz: cannot write repro %s%s%s\n",
                     Path.c_str(), EC ? ": " : "",
                     EC ? EC.message().c_str() : "");
        ++WriteErrors;
      } else {
        std::fprintf(stderr, "repro written: %s\n", Path.c_str());
      }
    }
  }

  std::printf("halo_fuzz: %llu seeds (%s), %llu rejected by validation, "
              "%llu guard demotions, %llu failures\n",
              static_cast<unsigned long long>(D.Seeds),
              D.Hostile ? "hostile" : "benign",
              static_cast<unsigned long long>(Rejected),
              static_cast<unsigned long long>(Demotions),
              static_cast<unsigned long long>(Failures));
  if (WriteErrors)
    return 2; // A failure whose repro was lost must not read as reported.
  if (D.Hostile && Rejected != D.Seeds) {
    std::fprintf(stderr,
                 "halo_fuzz: %llu hostile cases were not rejected\n",
                 static_cast<unsigned long long>(D.Seeds - Rejected));
    return 1;
  }
  return Failures == 0 ? 0 : 1;
}
