#!/usr/bin/env python3
"""CI sanity check for the machine-readable RTov benchmark record.

bench_rtov_overhead writes BENCH_rtov.json (per-section median ns/exec
plus speedup ratios, and the per-benchmark RTov table) so the perf
trajectory is trackable across PRs. This script fails the job if the
record is malformed, if the compiled bytecode is no faster than the
tree-walking interpreter on the N=1e6 LoopAll section, if a benchmark's
steady-state RTov exceeds its ceiling, or if the RTov table saw no
runtime-test memo hit. Stdlib only.
"""

import json
import sys


# Steady-state RTov ceilings (% of parallel runtime) per benchmark of the
# RTov table: three times the highest of two measurements (4-core x86-64
# VM, RelWithDebInfo; the steady state, where the runtime-test memo turns
# every test into a lookup), rounded up to 0.5, and at least 1.5. Before
# the memo, apsi, gromacs, track, spec77, calculix, dyfesm and trfd sat
# at 5-55%. Only ever tighten these.
RTOV_STEADY_CEILING_PCT = {
    "apsi": 2.5,
    "arc2d": 1.5,
    "bdna": 1.5,
    "calculix": 1.5,
    "dyfesm": 1.5,
    "flo52": 1.5,
    "gromacs": 6.0,
    "mdg": 1.5,
    "nasa7": 1.5,
    "ocean": 1.5,
    "qcd": 1.5,
    "spec77": 3.0,
    "track": 4.0,
    "trfd": 1.5,
    "wupwise": 1.5,
    "zeusmp": 1.5,
}


def fail(msg: str) -> None:
    print(f"BENCH_rtov check FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_rtov.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")

    for sec in ("loopall_n1e6", "session_reuse_n256", "usr_oind_n2048",
                "rtov_steady_pct", "rtov_first_pct", "rtov_test_memo"):
        if sec not in doc:
            fail(f"missing section {sec!r}")

    la = doc["loopall_n1e6"]
    if la["scalar_ns_per_exec"] >= la["interp_ns_per_exec"]:
        fail("compiled bytecode no faster than the interpreter at N=1e6: "
             f"{la['scalar_ns_per_exec']:.0f} vs "
             f"{la['interp_ns_per_exec']:.0f} ns/exec")

    steady = doc["rtov_steady_pct"]
    for bench, ceiling in sorted(RTOV_STEADY_CEILING_PCT.items()):
        if bench not in steady:
            fail(f"RTov table lacks {bench!r}")
        if steady[bench] > ceiling:
            fail(f"{bench}: steady-state RTov {steady[bench]:.2f}% above "
                 f"its {ceiling:.2f}% ceiling")
    if doc["rtov_test_memo"]["hits"] < 1:
        fail("the RTov table saw no runtime-test memo hit")

    print("compiled vs interpreter: "
          f"{la['interp_ns_per_exec'] / la['scalar_ns_per_exec']:.2f}x "
          "(LoopAll N=1e6); steady RTov within every ceiling, "
          f"{doc['rtov_test_memo']['hits']:.0f} test-memo hits")


if __name__ == "__main__":
    main()
