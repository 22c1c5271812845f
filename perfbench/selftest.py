"""Self-tests of the benchmark itself, run as traced benchmark runs.

    python3 perfbench/selftest.py

For each workload it makes three traced runs of the minimum length: two
with seed 1 and one with seed 2.  It checks that

* every run passes its exact checks (failed = 0, so failed_ratio = 0);
* inside each run, consecutive repetitions report identical exact counts,
  so no cache survives between repetitions, and the layer self times
  account for the traced wall time (both checked by run.py itself);
* the same seed reproduces the inputs and every exact count (calls per
  layer, dimino elements, BFS states, products, bigint fallbacks);
* a second seed changes the inputs of the seeded workloads, and for
  enumerate, whose seed only reorders the cold README commands, leaves
  every count unchanged.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("enumerate", "clifford-queries", "synth-bfs")


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    trace = json.loads((HERE / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result, trace


def check_workload(workload: str) -> list[str]:
    failures = []

    def expect(cond, message):
        print(f"{'PASS' if cond else 'FAIL'} {workload}: {message}", flush=True)
        if not cond:
            failures.append(message)

    runs = [traced_run(workload, seed) for seed in (1, 1, 2)]
    for (result, trace), seed in zip(runs, (1, 1, 2)):
        expect(result["failed"] == 0 and result["attempted"] > 0,
               f"seed {seed}: all {result['attempted']} operations pass their exact checks")
        expect(not trace["problems"],
               f"seed {seed}: repetitions agree and self times account for the wall time "
               f"{trace['problems'] or ''}")
    (_, first), (_, again), (_, other) = runs
    counts = [t["repetitions"][0]["counts"] for t in (first, again, other)]
    expect(first["inputs"] == again["inputs"], "the same seed gives the same inputs")
    expect(counts[0] == counts[1], "the same seed reproduces every exact count")
    if workload == "enumerate":
        expect(counts[0] == counts[2], "another command order leaves every count unchanged")
    else:
        expect(first["inputs"] != other["inputs"], "a second seed changes the inputs")
    return failures


def main() -> int:
    failures = []
    for workload in WORKLOADS:
        failures += check_workload(workload)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
