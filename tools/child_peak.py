"""Peak resident memory of each `ck` invocation of a benchmark plan.

    python3 tools/child_peak.py --workload carriers --seed 12

Run from the root of a source checkout, on Linux.  The plan and its input
files come from `bench/run.py`'s own `prepare`, in `.bench_work/`.  Each
invocation runs once as `python -m ckrep.cli ...` under a `runpy` wrapper
that reads its own VmHWM from `/proc/self/status` as it exits, so the
figure is the child's peak alone.  (The benchmark's `peak_rss_mb` reads
`ru_maxrss` from `wait4`, which never falls below the resident size of
the forking benchmark process.)  Prints MB (kB / 1024, as the benchmark
does) per invocation and the maximum; standard library only.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
MARK = "child_peak VmHWM kB "

# Reports the peak as the interpreter exits, after `ck` has run to its end.
WRAPPER = f"""
import atexit, runpy, sys

def report():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{MARK}" + kb + "\\n")

atexit.register(report)
sys.argv[0] = "ck"
runpy.run_module("ckrep.cli", run_name="__main__", alter_sys=True)
"""


sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (bench/run.py, which imports its neighbours by name)


def child_peaks(workload: str, seed: int) -> list[tuple[float, int, tuple[str, ...]]]:
    """(peak MB, exit code, argv) for each invocation of the plan, in order."""
    plan, work = run.prepare(workload, seed)
    env = run.child_env()
    out = []
    for op in plan.ops:
        proc = subprocess.run([sys.executable, "-c", WRAPPER, *op.argv], cwd=work, env=env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        kb = [line[len(MARK):] for line in proc.stderr.splitlines() if line.startswith(MARK)]
        if not kb:
            raise SystemExit(f"no VmHWM from {' '.join(op.argv)}: {proc.stderr.strip()[-300:]}")
        out.append((int(kb[-1]) / 1024, proc.returncode, op.argv))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not Path("/proc/self/status").is_file():
        print("child_peak needs /proc/self/status (Linux)", file=sys.stderr)
        return 1
    peaks = child_peaks(args.workload, args.seed)
    for mb, rc, op in peaks:
        print(f"{mb:7.2f} MB  rc {rc}  {' '.join(op)[:100]}")
    print(f"{max(mb for mb, _, _ in peaks):7.2f} MB  max over {len(peaks)} invocations")
    return 0 if all(rc == 0 for _, rc, _ in peaks) else 1


if __name__ == "__main__":
    sys.exit(main())
