"""Start-up cost of each `ck` verb: wall time of a small call, the
modules it loads and the `ckrep` code it compiles.

    python3 tools/startup.py [--runs 15] [--src path/to/src]

Each verb runs one small call in a fresh interpreter, `--runs` times,
round robin over the calls, and the median wall time is printed in ms.
A call runs `ckrep.cli` as `__main__` through `runpy.run_module`, as
`python -m ckrep.cli ...` does, after registering an `atexit` handler
that writes `time.perf_counter()` to stderr.  Each round also times a
bare interpreter (`python -c pass` with the same handler, whose median
heads the table), which calls `gc.freeze()` before it exits, as `ck`
does, so that both skip the same shutdown collections.  `+ms` is the
median over the rounds of a call's time minus that round's bare time,
which takes out much of the host's drift within and between runs of the
tool; `iqr` is the interquartile range of those differences.  `exit`
is the median ms from the handler's timestamp to the parent's `wait`
returning: the interpreter's shutdown after the exit handlers (stream
flushes, collections, module teardown and process exit).  On Linux
`perf_counter` reads CLOCK_MONOTONIC, one clock in both processes.
`mods` counts the `ckrep` modules the call loaded, `fn` the source lines
of every function, lambda and comprehension in them (the code it
compiled beyond module and class bodies), and `unrun` those of the
functions that never ran: one `cli.main` call runs under
`sys.setprofile`, which records each frame it enters.  Last come the
modules the call loaded beyond those of the bare interpreter.
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

# An exit handler that writes the time as stderr's last line: the bare
# interpreter's call, and, with `ckrep.cli` run as `python -m` runs it, a
# `ck` call's.
EXIT_HANDLER = """
import atexit, sys, time
atexit.register(lambda: print(repr(time.perf_counter()), file=sys.stderr))
"""
EXIT_PROBE = EXIT_HANDLER + """
import runpy
runpy.run_module("ckrep.cli", run_name="__main__", alter_sys=True)
"""
BARE_EXIT = EXIT_HANDLER + "import gc\ngc.freeze()\n"

# Prints the exit code, the modules loaded once `main` returns, and the
# function lines of the loaded `ckrep` modules and of those among them
# that never ran.  The modules are recorded before the probe imports
# json itself.  A function is known by its file, first line and name;
# CO_NEWLOCALS (2) marks the code of a function, a lambda or a
# comprehension, and not that of a module or a class body.
PROBE = """
import contextlib, io, sys
import ckrep.cli
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))

sys.setprofile(profile)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        code = ckrep.cli.main(sys.argv[1:])
finally:
    sys.setprofile(None)
loaded = sorted(sys.modules)
compiled, ran = set(), set()
for name in loaded:
    if name.split(".")[0] == "ckrep":
        path = sys.modules[name].__file__
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            co = stack.pop()
            stack += [c for c in co.co_consts if hasattr(c, "co_lines")]
            if co.co_flags & 2:
                lines = {(path, line) for _, _, line in co.co_lines() if line is not None}
                compiled |= lines
                if (path, co.co_firstlineno, co.co_name) in entered:
                    ran |= lines
import json
print(json.dumps([code, loaded, len(compiled), len(compiled - ran)]))
"""
BARE = "import sys\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))"


def wall(argv: list[str], env: dict[str, str], cwd: str, stdin: str, code: int) -> tuple[float, float]:
    """Wall time of one call, which must exit `code`, and the time from its
    exit handler's timestamp (stderr's last line) to `wait` returning."""
    with open(stdin, "rb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=env, stdin=fh,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        t1 = time.perf_counter()
    if proc.returncode != code:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return t1 - t0, t1 - float(proc.stderr.splitlines()[-1])


def loaded_by(code: str, argv: list[str], env: dict[str, str], cwd: str, stdin: str = os.devnull):
    with open(stdin, "rb") as fh:
        proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                              stdin=fh, capture_output=True, check=True)
    return json.loads(proc.stdout)


def measure(verbs: dict[str, tuple[list[str], str, int]], env: dict[str, str], work: str, runs: int):
    """(label, median s, per-round differences from the bare interpreter in
    s, median exit s, `ckrep` modules, function lines compiled and not
    run, modules beyond a bare interpreter) per call; each call is its
    label's arguments, verb first, the file on stdin and the exit code it
    must give."""
    calls = {"(python -c pass)": ([sys.executable, "-c", BARE_EXIT], os.devnull, 0)}
    calls.update({label: ([sys.executable, "-c", EXIT_PROBE, *args], stdin, code)
                  for label, (args, stdin, code) in verbs.items()})
    for argv, stdin, code in calls.values():  # warm-up: fills a bytecode cache, if one is written
        wall(argv, env, work, stdin, code)
    samples: dict[str, list[tuple[float, float]]] = {label: [] for label in calls}
    for _ in range(runs):
        for label, (argv, stdin, code) in calls.items():
            samples[label].append(wall(argv, env, work, stdin, code))
    times = {label: [t for t, _ in pairs] for label, pairs in samples.items()}
    exits = {label: statistics.median(e for _, e in pairs) for label, pairs in samples.items()}
    bare = set(loaded_by(BARE, [], env, work))
    bare_times = times.pop("(python -c pass)")
    bare_row = ("(python -c pass)", statistics.median(bare_times), None, exits["(python -c pass)"])
    rows = [(*bare_row, None, [])]
    for label, (args, stdin, want) in verbs.items():
        code, loaded, compiled, unrun = loaded_by(PROBE, args, env, work, stdin)
        if code != want:
            raise SystemExit(f"ck {label} exited {code}")
        above = [t - b for t, b in zip(times[label], bare_times)]
        mods = sum(m.split(".")[0] == "ckrep" for m in loaded)
        rows.append((label, statistics.median(times[label]), above, exits[label],
                     (mods, compiled, unrun), sorted(set(loaded) - bare)))
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
            print(f"\n{title}\n{'call':<20} {'ms':>7} {'+ms':>6} {'iqr':>5} {'exit':>5}"
                  f" {'mods':>4} {'fn':>5} {'unrun':>5}  modules beyond a bare interpreter")
            for label, median, above, exit_s, counts, extra in measure(verbs, env, work, args.runs):
                cols = "{:6.1f} {:5.1f}".format(*(1000 * v for v in spread(above))) if above else f"{'':6} {'':5}"
                lines = "{:4} {:5} {:5}".format(*counts) if counts else f"{'':4} {'':5} {'':5}"
                print(f"{label:<20} {median * 1000:7.1f} {cols} {exit_s * 1000:5.1f} {lines}"
                      f"  {' '.join(extra)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
