"""Benchmark runner for the `ck` command-line tool.

    python3 bench/run.py --workload standard --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout.  `ck` is not installed: each
invocation is `python -m ckrep.cli ...` with PYTHONPATH=src, inputs are
generated from the seed into `.bench_work/`, and every output is checked
(exit code, determinism across repeats, sha256 against `refs.json` for
the recorded seeds, and the library-independent oracles in `oracles.py`).

--trace 0  closed loop, one client: the next subprocess starts when the
           previous one has exited, cycling through the plan for
           --seconds, with a fixed reference job run between
           invocations; times are scaled to a quiet host by the
           reference job's speed; prints the end-to-end metrics.
--trace 1  replays the same invocations in process through
           `ckrep.cli.main`, alternating untraced and traced passes for
           --seconds; prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS, Plan, build_plan
from oracles import check_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFS = Path(__file__).resolve().parent / "refs.json"

SETUP_REPEATS = 15
IMPORT_REPEATS = 5
MIN_PASSES = 2  # every invocation is timed at least twice
# The highest percentile with ten samples beyond it in a run of 40
# invocations, the fewest a 30 s run gives on a slow host.
TAIL_QUANTILE = 0.75

# A fixed pure-Python job, run in isolated mode so that nothing of the
# program can change it: interpreter start-up, stdlib imports, Fraction
# arithmetic and a small dict, the kinds of work a `ck` invocation does.
# Host contention slows it about as much as it slows `ck`; a job that
# sorted a large dict slowed half as much again as `ck` did.
REFERENCE_JOB = (
    "import argparse, dataclasses, decimal, json, pathlib, statistics, typing\n"
    "from fractions import Fraction\n"
    "x = Fraction(0)\n"
    "for i in range(1, 6000): x = (x + Fraction(i % 13, i % 97 + 1)) * Fraction(1, 2)\n"
    "d = {}\n"
    "for i in range(20000): d[(i, i % 7)] = i\n"
)
REFERENCE_S = 0.15  # near its mean wall time on the measuring machine; a fixed constant
REFERENCE_SHARE = 0.25  # of the run's invocation time spent on reference jobs

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

SELF_TIMED = (
    "words.enumerate_cyclic_classes", "words.canonical_rotation", "words.pspec_summary",
    "words.admissible_words",
    "branching.standard_bfs", "branching.validate_bfs", "branching.find_components",
    "branching.build_cycle_system", "branching.build_chain_system", "branching.dump_bfs",
    "branching.load_bfs", "branching.shift_bfs",
    "phases.RootSum.__mul__", "phases.RootSum.__add__", "phases.RootSum.is_zero",
    "reps.verify_ck_relations", "reps.decompose", "reps.gp_vector_check", "reps.expand_irreducible",
    "reps.decompose_standard", "reps.decompose_shift",
    "cli.main", "cli.render_report",
)
CALL_COUNTED = (
    "words.canonical_rotation", "phases.RootSum.__mul__", "phases.RootSum.__add__",
    "phases.RootSum.is_zero", "phases.cyclotomic_polynomial",
)
SYSTEM_VERBS = ("decompose-standard", "decompose-shift", "decompose-bfs", "verify-relations", "gp-check")
COUNTED = (
    "branching.systems_built",
    *(f"branching.systems_built.{verb}" for verb in SYSTEM_VERBS),
    "branching.carrier_points",
    "branching.components.cycle", "branching.components.chain", "branching.components.unresolved",
)

PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in CALL_COUNTED},
    **{name: "count" for name in COUNTED},
    "words.enumerate.yield": "ratio",
    "branching.points_per_s": "1/s",
    "cli.import_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ inputs


def prepare(workload: str, seed: int, small: bool = False) -> tuple[Plan, Path]:
    """Build the plan and write its files into a fresh work directory."""
    if not (SRC / "ckrep" / "cli.py").is_file():
        raise BenchError(f"no ckrep sources under {SRC}")
    plan = build_plan(workload, seed, small)
    work = WORK / f"{workload}-{seed}{'-small' if small else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name, text in plan.files.items():
        (work / name).write_text(text)
    return plan, work


def plan_digest(plan: Plan) -> str:
    h = hashlib.sha256()
    for name in sorted(plan.files):
        h.update(f"{name}\0{plan.files[name]}\0".encode())
    for op in plan.ops:
        h.update(("\0".join(op.argv) + "\n").encode())
    return h.hexdigest()


def load_refs(plan: Plan) -> list[str] | None:
    """Recorded stdout digests for this plan, if its seed was recorded."""
    if not REFS.is_file():
        return None
    entry = json.loads(REFS.read_text()).get(plan.workload, {}).get(str(plan.seed))
    if entry is None:
        return None
    if entry["plan"] != plan_digest(plan):
        raise BenchError("refs.json was recorded for other inputs; run bench/record_refs.py")
    return entry["stdout"]


# ---------------------------------------------------------------- checking


def check_results(plan: Plan, results, refs: list[str] | None) -> list[str]:
    """One reason per failed invocation.  `results` holds (plan index,
    exit code, stdout) in the order the invocations ran."""
    first: dict[int, str] = {}
    verdict: dict[int, str | None] = {}
    failures = []
    for idx, rc, out in results:
        if rc != 0:
            reason = f"exit code {rc}"
        elif idx in first and out != first[idx]:
            reason = "stdout differs from an earlier run of the same invocation"
        else:
            first.setdefault(idx, out)
            if idx not in verdict:
                digest = hashlib.sha256(out.encode()).hexdigest()
                if refs is not None and digest != refs[idx]:
                    verdict[idx] = "stdout sha256 differs from refs.json"
                else:
                    verdict[idx] = check_output(plan.ops[idx], out, first)
            reason = verdict[idx]
        if reason is not None:
            failures.append(f"op {idx} ({' '.join(plan.ops[idx].argv)[:80]}): {reason}")
    return failures


# -------------------------------------------------------------- end to end


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, env, out, err):
    """Run one child to exit; return (exit code, wall s, cpu s, max RSS kB)."""
    for fh in (out, err):
        fh.seek(0)
        fh.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def setup_probe(work: Path, env, out, err) -> float:
    """Wall time of a process that starts Python, imports ckrep.cli and exits."""
    rc, wall, _, _ = spawn([sys.executable, "-c", "import ckrep.cli"], work, env, out, err)
    if rc != 0:
        err.seek(0)
        raise BenchError(f"cannot import ckrep.cli: {err.read().decode(errors='replace')}")
    return wall


def reference_probe(work: Path, out, err) -> float:
    """Wall time of the reference job, which runs no code of the program."""
    rc, wall, _, _ = spawn([sys.executable, "-I", "-c", REFERENCE_JOB], work, None, out, err)
    if rc != 0:
        raise BenchError("the reference job failed")
    return wall


def harrell_davis(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982):
    a mean of all order statistics, weighted by the Beta((n+1)p, (n+1)(1-p))
    mass of each slot [i/n, (i+1)/n].  Unlike one or two order statistics,
    it does not jump when two nearly equal values swap places."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) if 0 < x < 1 else 0.0

    steps = 32  # Simpson's rule on each slot
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        xs = [i / n + k * h for k in range(steps + 1)]
        weights.append(h / 3 * sum((1 if k in (0, steps) else 4 if k % 2 else 2) * pdf(x)
                                   for k, x in enumerate(xs)))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def end_to_end(plan: Plan, work: Path, seconds: float, refs) -> dict:
    env = child_env()
    n_ops = len(plan.ops)
    walls: list[list[float]] = [[] for _ in plan.ops]
    cpus: list[list[float]] = [[] for _ in plan.ops]
    samples = {"invocation": [], "reference": [], "setup": []}  # (start s, plan index, wall s, cpu s)
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        setup_probe(work, env, out, err)  # may compile bytecode; not timed
        results, rss = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(results) < MIN_PASSES * n_ops:
            # Set-up probes and reference jobs are spread over the run so
            # that they meet the same host load as the invocations do.
            now = time.perf_counter() - start
            if len(samples["setup"]) < SETUP_REPEATS and now >= len(samples["setup"]) * seconds / SETUP_REPEATS:
                samples["setup"].append((now, None, setup_probe(work, env, out, err), None))
            now = time.perf_counter() - start
            if sum(r[2] for r in samples["reference"]) <= REFERENCE_SHARE * sum(map(sum, walls)):
                samples["reference"].append((now, None, reference_probe(work, out, err), None))
            now = time.perf_counter() - start
            idx = len(results) % n_ops
            argv = [sys.executable, "-m", "ckrep.cli", *plan.ops[idx].argv]
            rc, wall, cpu, maxrss = spawn(argv, work, env, out, err)
            out.seek(0)
            results.append((idx, rc, out.read().decode(errors="replace")))
            samples["invocation"].append((now, idx, wall, cpu))
            walls[idx].append(wall)
            cpus[idx].append(cpu)
            rss.append(maxrss)
        total = time.perf_counter() - start
    (WORK / f"samples-{plan.workload}-{plan.seed}.json").write_text(json.dumps(samples))
    failures = check_results(plan, results, refs)
    n = len(results)
    # Every time is scaled to a host on which the reference job takes
    # REFERENCE_S: contention on the host slows the guest by up to 1.7x
    # for minutes at a time, and slows the reference job with it.  Each
    # invocation of the plan counts once, at its mean over the run, so the
    # figures do not depend on how many passes the host's speed allowed.
    t_ref = statistics.fmean(r[2] for r in samples["reference"])
    scale = REFERENCE_S / t_ref
    per_op = [statistics.fmean(w) * scale for w in walls]
    cpu_per_op = [statistics.fmean(c) * scale for c in cpus]
    setup = statistics.median(r[2] for r in samples["setup"])
    runs = [len(w) for w in walls]
    return {
        "failures": failures,
        "attempted": n,
        "notes": [
            f"host speed: the reference job took {t_ref:.4f} s (mean of {len(samples['reference'])}); "
            f"times below are scaled by {REFERENCE_S} / {t_ref:.4f} = {scale:.4f}",
            f"{n} invocations ({n / n_ops:.1f} passes of {n_ops}, each invocation {min(runs)}..{max(runs)} "
            f"times) in {sum(map(sum, walls)):.1f} s of a {total:.1f} s run",
            f"unscaled: setup_s {setup:.4f}, ops_per_s {scale * n_ops / sum(per_op):.4f}, "
            f"latency_p50_s {harrell_davis(per_op, 0.5) / scale:.4f}",
            f"setup_s: median of {len(samples['setup'])} import processes spread over the run",
            f"failed_frac: {len(failures) / n:.4f} ({len(failures)} of {n})",
        ],
        "metrics": {
            "setup_s": setup * scale,
            "ops_per_s": n_ops / sum(per_op),
            "latency_p50_s": harrell_davis(per_op, 0.5),
            "latency_tail_s": harrell_davis(per_op, TAIL_QUANTILE),
            "cpu_s_per_op": statistics.fmean(cpu_per_op),
            "peak_rss_mb": max(rss) / 1024,
            "ok_frac": (n - len(failures)) / n,
        },
    }


# ------------------------------------------------------------- in process


def load_package():
    sys.path.insert(0, str(SRC))
    import ckrep
    import ckrep.cli  # noqa: F401  (binds ckrep.cli)

    return ckrep


def replay(package, plan: Plan, work: Path, recorder=None):
    """One pass over the plan through ckrep.cli.main; returns the results
    (as check_results takes them) and the seconds the pass took."""
    results = []
    cwd = os.getcwd()
    os.chdir(work)
    t0 = time.perf_counter()
    try:
        for idx, op in enumerate(plan.ops):
            if recorder is not None:
                recorder.invocation, recorder.verb = idx, op.verb
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = package.cli.main(list(op.argv))
            results.append((idx, rc, out.getvalue()))
    finally:
        elapsed = time.perf_counter() - t0
        os.chdir(cwd)
    return results, elapsed


def import_seconds(work: Path) -> list[float]:
    """Import time of ckrep and ckrep.cli, from `python -X importtime`."""
    env = child_env()
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ckrep.cli"],
                              cwd=work, env=env, capture_output=True, text=True, check=True)
        us = 0
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in ("ckrep", "ckrep.cli"):
                us += int(parts[1])
        out.append(us / 1e6)
    return out


def traced(plan: Plan, work: Path, seconds: float, refs) -> dict:
    from spans import CONSTRUCTORS, Recorder

    import_s = import_seconds(work)
    package = load_package()
    recorder = Recorder(package)
    plain_times, traced_times, summaries, countsets = [], [], [], []
    all_results = []
    start = time.perf_counter()
    # Start another pair of passes only if one more fits in the time left.
    while not traced_times or time.perf_counter() - start + plain_times[-1] + traced_times[-1] <= seconds:
        results, elapsed = replay(package, plan, work)
        all_results += results
        plain_times.append(elapsed)
        recorder.reset()
        recorder.install()
        try:
            results, elapsed = replay(package, plan, work, recorder)
        finally:
            recorder.uninstall()
        all_results += results
        traced_times.append(elapsed)
        summaries.append(recorder.summary())
        countsets.append((dict(recorder.counts), recorder.words_grown()))
    recorder.write(WORK / f"spans-{plan.workload}-{plan.seed}")

    failures = check_results(plan, all_results, refs)
    if any(c != countsets[0] for c in countsets):
        failures.append("counts differ between traced passes of one plan")
    for s in summaries:
        if s["roots"] != len(plan.ops):
            failures.append(f"{s['roots']} root spans for {len(plan.ops)} invocations")
        if s["sum_gap_s"] > 1e-6:
            failures.append(f"self times miss their root span by {s['sum_gap_s']:.3g} s")

    counts, grown = countsets[0]
    built_s = statistics.median(sum(s["total_s"][f"branching.{c}"] for c in CONSTRUCTORS)
                                for s in summaries)
    metrics = {f"{name}.self_s": statistics.median(s["self_s"][name] for s in summaries)
               for name in SELF_TIMED}
    metrics |= {f"{name}.calls": summaries[0]["calls"][name] for name in CALL_COUNTED}
    metrics |= {name: counts.get(name, 0) for name in COUNTED}
    metrics |= {
        "words.enumerate.yield": counts.get("words.enumerate.classes", 0) / grown if grown else 0.0,
        "branching.points_per_s": counts.get("branching.carrier_points", 0) / built_s if built_s else 0.0,
        "cli.import_s": statistics.median(import_s),
        "cli.stdout_bytes": sum(len(out.encode()) for _, _, out in results),
        "trace.overhead_frac": statistics.median(traced_times) / statistics.median(plain_times) - 1,
    }
    return {
        "failures": failures,
        "attempted": len(all_results),
        "notes": [
            f"{len(traced_times)} traced and {len(plain_times)} untraced passes of {len(plan.ops)} "
            f"invocations; self times are medians over traced passes",
            f"spans per traced pass: {sum(summaries[0]['calls'].values())}",
            f"words grown by enumeration: {grown}",
        ],
        "metrics": metrics,
    }


# -------------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    plan, work = prepare(workload, seed, small)
    refs = None if small else load_refs(plan)
    result = (traced if trace else end_to_end)(plan, work, seconds, refs)
    result["units"] = PER_LAYER if trace else END_TO_END
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    units = result["units"]
    for note in result["notes"]:
        print(f"# {note}")
    for name, value in result["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {units[name]}")
    for failure in result["failures"][:20]:
        print(f"FAIL {failure}")
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
