"""Paired benchmark runs of two revisions, written to one JSON file.

    python3 tools/benchpair.py --parent 6b3c24c --change HEAD \\
        --run carriers:10-19 --run standard:10-12 --out BENCH_29.json

Run from the root of a git checkout.  Each revision is exported with
`git archive` into a fresh temporary directory, so that no bytecode and
no work files come along, and every run is

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

in that export under PYTHONDONTWRITEBYTECODE=1, so each `ck` call
compiles the modules it loads, as the benchmark's own runs do.  Pair k
of a `--run` runs both sides on its k-th seed, the parent first in even
pairs and the change first in odd ones.  `--child-peak` also runs
`tools/child_peak.py` on each side at the first seed of each workload
and keeps the largest child VmHWM.

The file holds both revisions, a host note, both sides' end-to-end
metrics, `correct` flag and failed count for every pair, and per metric
the medians, the quartiles of each side, the pairs the change won and
whether the claim rule holds: at least nine pairs in ten won, ten pairs
or more, every run correct, and medians further apart than the parent's
interquartile range.  An existing file keeps the workloads this call
does not run.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def seeds(text: str) -> list[int]:
    """"10-19" or "10,12,15" as a list of seeds."""
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def export(rev: str, into: Path) -> str:
    """Unpack `rev` into `into` and return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One end-to-end run: correct, failed and each metric's value."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, env=env, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = {}
    if proc.returncode or "metrics" not in result:
        return {"correct": False, "failed": None, "error": proc.stderr.strip()[-500:], "metrics": {}}
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def child_peak(tree: Path, workload: str, seed: int) -> float | None:
    """The largest child VmHWM (MB) of one pass over the plan, or None."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "tools/child_peak.py", "--workload", workload, "--seed", str(seed)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return float(lines[-1].split()[0]) if proc.returncode == 0 and lines else None


def quartiles(values: list[float]) -> list[float]:
    """The three quartiles (one value gives itself thrice)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def summary(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: medians, quartiles, wins and the claim rule."""
    out = {}
    correct = all(p["parent"]["correct"] and p["change"]["correct"] for p in pairs)
    for name, direction in better.items():
        both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        wins = sum(b < a if direction == "lower" else b > a for a, b in both)
        pq, cq = quartiles(parent), quartiles(change)
        gap = abs(statistics.median(change) - statistics.median(parent))
        out[name] = {
            "better": direction,
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [pq[0], pq[2]],
            "change_quartiles": [cq[0], cq[2]],
            "change_over_parent": statistics.median(change) / statistics.median(parent)
            if statistics.median(parent) else None,
            "wins": wins,
            "pairs": len(both),
            "claim": correct and len(both) >= 10 and wins >= 0.9 * len(both) and gap > pq[2] - pq[0],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision the change is measured against")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEEDS",
                        help="a workload and its seeds, e.g. carriers:10-19; one pair per seed")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--child-peak", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp, side) for side in ("parent", "change")}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            trees[side].mkdir()
            record[side] = {"rev": rev, "commit": export(rev, trees[side])}
        record["host"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform(), "bytecode": "off (PYTHONDONTWRITEBYTECODE=1)",
                          "seconds_per_run": args.seconds}
        for spec in args.run:
            workload, _, seed_text = spec.partition(":")
            pairs = []
            for k, seed in enumerate(seeds(seed_text)):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = bench(trees[side], workload, seed, args.seconds)
                pairs.append(pair)
                p50 = {s: pair[s]["metrics"].get("latency_p50_s") for s in ("parent", "change")}
                print(f"{workload} seed {seed}: p50 parent {p50['parent']} change {p50['change']}", flush=True)
            entry = {"pairs": pairs, "summary": summary(pairs, better)}
            if args.child_peak:
                entry["child_peak_mb"] = {s: child_peak(trees[s], workload, pairs[0]["seed"]) for s in trees}
            record["workloads"][workload] = entry
            args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")  # kept if a later run fails
            claims = [name for name, s in entry["summary"].items() if s["claim"]]
            print(f"{workload}: claim rule met by {claims or 'no metric'}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
