"""Start-up cost of each `ck` verb: wall time of a small call, and the
modules it loads.

    python3 tools/startup.py [--runs 15] [--src path/to/src]

Each verb runs one small call as `python -m ckrep.cli ...` in a fresh
interpreter, `--runs` times, round robin over the calls, and the median
wall time is printed in ms.  Each round also times a bare interpreter
(`python -c pass`, whose median heads the table), and `+ms` is the
median over the rounds of a call's time minus that round's bare time,
which takes out much of the host's drift within and between runs of the
tool; `iqr` is the interquartile range of those differences.  Last come
the modules the call loaded beyond those of the bare interpreter.
`expand` has a second call, `expand <REPORT`, which reads a small
decomposition report on stdin; every other call reads an empty stdin.
`canon refused` and `twist refused` are calls their verb refuses with
exit 1, which time the error path and list the modules it loads.
Two bytecode settings are measured:

- `PYTHONDONTWRITEBYTECODE=1`: no bytecode is written, so each call
  compiles `ckrep` from source (unless `src` holds a `__pycache__`, which
  the output then names); the standard library reads its installed
  bytecode.
- bytecode written, to a temporary `PYTHONPYCACHEPREFIX`, after one
  warm-up call of each verb: each timed call reads every module's
  bytecode from there.

No bytecode is written into `src`.  `--src` times another checkout's
`src`, for a comparison of two trees.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# A 3x3 matrix, the dump of the cycle carrier of P(12) over it at depth 1,
# and a decomposition report over it with each field the writer writes.
FILES = {
    "A3": "011\n101\n110\n",
    "DUMP": "3 8\n1: 2->12, 32->~132, 312->~1312\n2: 12->2, 32->~232, 312->~2312\n"
    "3: 2->32, 12->312\n",
    "REPORT": '{"matrix": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "level": "cyclic", "components": ['
    '{"kind": "finite", "word": "1212", "phase": {"num": 1, "den": 2}, "multiplicity": 1}, '
    '{"kind": "tail", "word": "12", "multiplicity": "inf"}, '
    '{"kind": "integral", "word": "123", "multiplicity": 2}], '
    '"unresolved": [{"prefix": "0", "size": 2}], "tail_classes_present": true}\n',
}

# Each call by its label: the verb, then the arguments; a label
# "<verb> <NAME" runs the verb with the file NAME on stdin, and a call
# labelled "<verb> refused" must exit 1, every other call 0.
CALLS = {
    "classify-word": ["--matrix", "A3", "--word", "121"],
    "canon": ["--word", "211"],
    "equiv": ["--class", "P(12)", "--class", "P(21)"],
    "decompose-standard": ["--matrix", "A3", "--truncate", "64"],
    "decompose-shift": ["--matrix", "A3", "--max-period", "3"],
    "decompose-bfs": ["--matrix", "A3", "--bfs", "DUMP"],
    "expand": ["--class", "P(1212)"],
    "expand <REPORT": [],
    "verify-relations": ["--matrix", "A3", "--system", "shift", "--word-len", "3"],
    "state": ["--matrix", "A3", "--class", "P(12)", "--left", "1", "--right", "1"],
    "pspec": ["--matrix", "A3"],
    "gp-check": ["--matrix", "A3", "--word", "12", "--power", "2", "--depth", "1"],
    "twist": ["--class", "P(12)", "--gauge", "1/4,1/4"],
    "canon refused": ["--word", "0"],  # a words error
    "twist refused": ["--class", "P(12)", "--gauge", "1/0"],  # a phases error
}

# Prints the exit code and the modules loaded once `main` returns; the
# modules are recorded before the probe imports json itself.
PROBE = """
import contextlib, io, sys
import ckrep.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = ckrep.cli.main(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps([code, loaded]))
"""
BARE = "import sys\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"


def wall(argv: list[str], env: dict[str, str], cwd: str, stdin: str, code: int) -> float:
    """Wall time of one call, which must exit `code`."""
    with open(stdin, "rb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=env, stdin=fh,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = time.perf_counter() - t0
    if proc.returncode != code:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return elapsed


def loaded_by(code: str, argv: list[str], env: dict[str, str], cwd: str, stdin: str = os.devnull):
    with open(stdin, "rb") as fh:
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                              stdin=fh, capture_output=True, check=True)
    return json.loads(proc.stdout)


def measure(verbs: dict[str, tuple[list[str], str, int]], env: dict[str, str], work: str, runs: int):
    """(label, median s, per-round differences from the bare interpreter in
    s, modules beyond a bare interpreter) per call; each call is its
    label's arguments, verb first, the file on stdin and the exit code it
    must give."""
    calls = {"(python -c pass)": ([sys.executable, "-c", "pass"], os.devnull, 0)}
    calls.update({label: ([sys.executable, "-m", "ckrep.cli", *args], stdin, code)
                  for label, (args, stdin, code) in verbs.items()})
    for argv, stdin, code in calls.values():  # warm-up: fills a bytecode cache, if one is written
        wall(argv, env, work, stdin, code)
    times: dict[str, list[float]] = {label: [] for label in calls}
    for _ in range(runs):
        for label, (argv, stdin, code) in calls.items():
            times[label].append(wall(argv, env, work, stdin, code))
    bare = set(loaded_by(BARE, [], env, work))
    bare_times = times.pop("(python -c pass)")
    rows = [("(python -c pass)", statistics.median(bare_times), None, [])]
    for label, (args, stdin, want) in verbs.items():
        code, loaded = loaded_by(PROBE, args, env, work, stdin)
        if code != want:
            raise SystemExit(f"ck {label} exited {code}")
        above = [t - b for t, b in zip(times[label], bare_times)]
        rows.append((label, statistics.median(times[label]), above, sorted(set(loaded) - bare)))
    return rows


def spread(diffs: list[float]) -> tuple[float, float]:
    """The median and the interquartile range of `diffs`."""
    q1, _, q3 = statistics.quantiles(diffs, n=4) if len(diffs) > 1 else diffs * 3
    return statistics.median(diffs), q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="timed calls per verb")
    parser.add_argument("--src", default=str(SRC), help="the src directory to time")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    src = Path(args.src).resolve()
    with tempfile.TemporaryDirectory(prefix="ck-startup-") as work:
        for name, text in FILES.items():
            Path(work, name).write_text(text)
        verbs = {}
        for label, call_args in CALLS.items():
            verb, _, rest = label.partition(" ")
            argv = [verb, *(str(Path(work, a)) if a in FILES else a for a in call_args)]
            stdin = str(Path(work, rest[1:])) if rest.startswith("<") else os.devnull
            verbs[label] = argv, stdin, 1 if rest == "refused" else 0
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), base.get("PYTHONPATH")]))
        settings = {
            "PYTHONDONTWRITEBYTECODE=1": dict(base, PYTHONDONTWRITEBYTECODE="1"),
            "bytecode written to a temporary PYTHONPYCACHEPREFIX":
                dict(base, PYTHONPYCACHEPREFIX=str(Path(work, "pycache"))),
        }
        print(f"python {sys.version.split()[0]}, src {src}, median of {args.runs} calls")
        if any(src.glob("**/__pycache__")):
            print(f"note: {src} holds __pycache__ directories, which every call reads")
        for title, env in settings.items():
            print(f"\n{title}\n{'call':<20} {'ms':>7} {'+ms':>6} {'iqr':>5}  modules beyond a bare interpreter")
            for label, median, above, extra in measure(verbs, env, work, args.runs):
                cols = "{:6.1f} {:5.1f}".format(*(1000 * v for v in spread(above))) if above else f"{'':6} {'':5}"
                print(f"{label:<20} {median * 1000:7.1f} {cols}  {' '.join(extra)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
