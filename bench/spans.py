"""Span recorder for the traced in-process run.

Wraps, from outside the program, every public function of the `ckrep`
modules in every module namespace that binds it (`reps` imports
`validate_bfs` by name, so patching `branching` alone would miss the
calls `reps` makes), plus the arithmetic methods of `RootSum`.  Each call
records one span: name, start, end, parent span and invocation id, kept
in flat arrays in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Calls are strictly nested (one thread, no generators among
the wrapped functions), so the self times of one invocation's spans sum
to the duration of its root span, `cli.main`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

from inputs import word_counts

LAYERS = ("words", "branching", "phases", "reps", "cli")
ROOTSUM_METHODS = ("__add__", "__neg__", "__sub__", "__mul__", "__eq__", "scaled", "conjugate",
                   "is_zero", "as_complex")
CONSTRUCTORS = ("standard_bfs", "build_cycle_system", "build_chain_system", "shift_bfs",
                "direct_sum", "truncated_from_rules", "load_bfs")


class Recorder:
    """Spans and counters of one traced pass; `install` patches the program."""

    def __init__(self, package):
        self.names: list[str] = []
        self._targets: list[tuple[object, str, object, object]] = []
        self._collect_targets(package)
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.inv = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.invocation = -1
        self.verb = ""
        self.counts: Counter = Counter()
        self.enumerations: list[tuple[tuple, int]] = []

    # ------------------------------------------------------------ patching

    def _collect_targets(self, pkg) -> None:
        mods = [getattr(pkg, layer) for layer in LAYERS]
        namespaces = [pkg, *mods]
        for mod in mods:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):
                    raise TypeError(f"{attr} is a generator; its span would end too early")
                wrapper = self._wrap(obj, f"{layer}.{attr}", self._hook(attr))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._targets.append((ns, name, obj, wrapper))
        rootsum = pkg.phases.RootSum
        for attr in ROOTSUM_METHODS:
            fn = vars(rootsum)[attr]
            self._targets.append((rootsum, attr, fn, self._wrap(fn, f"phases.RootSum.{attr}", None)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)

    def _hook(self, attr: str):
        if attr in CONSTRUCTORS:
            return Recorder._count_system
        if attr == "find_components":
            return Recorder._count_components
        if attr == "enumerate_cyclic_classes":
            return Recorder._count_enumeration
        return None

    def _count_system(self, args, kwargs, result) -> None:
        self.counts["branching.systems_built"] += 1
        self.counts[f"branching.systems_built.{self.verb}"] += 1
        self.counts["branching.carrier_points"] += len(result.carrier)

    def _count_components(self, args, kwargs, result) -> None:
        for comp in result:
            self.counts[f"branching.components.{comp.kind}"] += 1

    def _count_enumeration(self, args, kwargs, result) -> None:
        a = args[0] if args else kwargs["a"]
        max_len = args[1] if len(args) > 1 else kwargs["max_len"]
        self.counts["words.enumerate.classes"] += len(result)
        self.enumerations.append((a.rows, max_len))

    def _wrap(self, fn, label: str, hook):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(rec.name)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.inv.append(rec.invocation)
            rec.end.append(0.0)
            rec.stack.append(idx)
            rec.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf()
                rec.stack.pop()
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------ analysis

    def words_grown(self) -> int:
        """Admissible words the enumerations grew: for each call, the sum
        over lengths k <= max_len of 1^T A^(k-1) 1."""
        return sum(sum(word_counts(rows, max_len)) for rows, max_len in self.enumerations)

    def summary(self) -> dict:
        """Per-name self time, total time and calls; and the largest gap
        between an invocation's summed self times and its root span."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                if not (self.start[p] <= self.start[i] and self.end[i] <= self.end[p]):
                    raise AssertionError(f"span {i} is not nested in its parent {p}")
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        calls: Counter = Counter()
        root_dur: Counter = Counter()
        inv_self: Counter = Counter()
        for i in range(n):
            label = self.names[self.name[i]]
            s = dur[i] - child[i]
            self_s[label] += s
            total_s[label] += dur[i]
            calls[label] += 1
            inv_self[self.inv[i]] += s
            if self.parent[i] < 0:
                root_dur[self.inv[i]] += dur[i]
        gap = max((abs(inv_self[k] - root_dur[k]) for k in inv_self), default=0.0)
        return {"self_s": self_s, "total_s": total_s, "calls": calls, "sum_gap_s": gap,
                "roots": sum(1 for i in range(n) if self.parent[i] < 0)}

    def write(self, path: Path) -> None:
        """Spans as five native-order arrays (name id, parent, invocation,
        start, end) in `path` + ".bin", with an index in `path` + ".json"."""
        arrays = (self.name, self.parent, self.inv, self.start, self.end)
        with open(f"{path}.bin", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        Path(f"{path}.json").write_text(json.dumps({
            "names": self.names,
            "spans": len(self.name),
            "arrays": [["name", "i"], ["parent", "i"], ["invocation", "i"], ["start", "d"], ["end", "d"]],
        }))
