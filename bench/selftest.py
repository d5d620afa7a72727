"""Small-size self-test of the benchmark.

    python3 bench/selftest.py

On small plans of every workload it checks that:
1. every metric BENCHMARK.json names is printed, with its unit, by
   --trace 0 (end-to-end) and --trace 1 (per-layer), and nothing fails;
2. a corrupted reference digest is counted as a failure;
3. two runs with one seed write byte-identical inputs and give identical
   counts;
4. without the program's sources the benchmark exits non-zero and
   prints no result.
Takes under a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys

import run
from inputs import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.5
EXACT = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]
EXACT.append("words.enumerate.yield")


def printed(result: dict) -> dict:
    """Print the result as run.py does; return the JSON object of the last
    line, keeping only metrics whose table row shows the same unit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print(json.dumps(run.report(result)))
    *table, last = buf.getvalue().splitlines()
    out = json.loads(last)
    rows = {line.split()[0]: line.split()[-1] for line in table if not line.startswith(("#", "FAIL"))}
    out["metrics"] = {k: m for k, m in out["metrics"].items() if rows.get(k) == m["unit"]}
    return out


def expect(cond: bool, what: str, errors: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        errors.append(what)


def metrics_printed(workload: str, errors: list[str]) -> dict:
    traced = None
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(workload, 0, SECONDS, trace, small=True)
        out = printed(result)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        expect(got == want, f"{workload} --trace {int(trace)}: every {key} metric with its unit", errors)
        expect(out["correct"] and out["failed"] == 0,
               f"{workload} --trace {int(trace)}: no failures {result['failures'][:2]}", errors)
        if trace:
            traced = out["metrics"]
    return traced


def corrupted_digest(workload: str, errors: list[str]) -> None:
    plan, work = run.prepare(workload, 0, small=True)
    results, _ = run.replay(run.load_package(), plan, work)
    refs = [hashlib.sha256(out.encode()).hexdigest() for _, _, out in results]
    expect(not run.check_results(plan, results, refs), f"{workload}: recorded digests pass", errors)
    refs[len(refs) // 2] = "0" * 64
    failures = run.check_results(plan, results, refs)
    expect(len(failures) == 1 and "sha256" in failures[0],
           f"{workload}: one corrupted digest is one failure", errors)


def same_inputs(workload: str, first_counts: dict, errors: list[str]) -> None:
    def snapshot():
        plan, work = run.prepare(workload, 0, small=True)
        files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
        return run.plan_digest(plan), files

    expect(snapshot() == snapshot(), f"{workload}: one seed gives byte-identical inputs", errors)
    again = printed(run.run(workload, 0, SECONDS, True, small=True))["metrics"]
    expect(all(first_counts[k] == again[k] for k in EXACT),
           f"{workload}: one seed gives identical counts", errors)


def no_sources(errors: list[str]) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "words",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           "without sources: non-zero exit and no result", errors)


def main() -> int:
    errors: list[str] = []
    for workload in WORKLOADS:
        counts = metrics_printed(workload, errors)
        corrupted_digest(workload, errors)
        same_inputs(workload, counts, errors)
    no_sources(errors)
    print(f"{len(errors)} failed" if errors else "all self-test checks passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
