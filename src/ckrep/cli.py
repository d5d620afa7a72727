"""Command-line front end.

Thin adapters only: every verb parses arguments, calls the library, and
returns its report as `(ok, record, text)`, printing nothing.  `main` is
the one output path: it prints `text`, or under `--json` the `record` as
one JSON object (indent 2, sorted keys), so the two forms carry the same
report.  `reps` alone writes a decomposition's record and, for `expand`,
reads it back.  Exit codes: 0 on success, 1 on a `UsageError`, on a
`words.CkError` (the base of every library error the caller can fix) and
on a report whose check failed (`ok` False), 2 on any other exception.

Only `words` is imported up front; each verb imports `reps` or
`branching` when it runs, and calls them through the module, so a verb
that reads words alone never compiles the rest of the package.  `json`
is imported only by the paths that write or read JSON.

A well-formed call is parsed from the verb table `_VERBS` alone, without
importing `argparse` (which imports `gettext`, and its parser `locale`).
Any call that parser is not sure of, help and every usage error among
them, is parsed by the full `argparse` tree, which writes every usage
error and help text.
"""

import sys
from types import SimpleNamespace

from . import words

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    import argparse

    from . import branching, reps

DEFAULT_TRUNCATION = 256
DEFAULT_DEPTH = 4
DEFAULT_MAX_PERIOD = 6
DEFAULT_CHAIN_LEN = 8


class UsageError(Exception):
    """A call the caller can fix.  Not a ValueError: `_cmd_expand` reads one as bad JSON."""


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for "-"; every input the CLI reads
    goes through here, and unreadable input is a usage error."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_matrix(path: str) -> words.TransitionMatrix:
    return words.TransitionMatrix.from_text(_read_text(path))


def render_report(d: "reps.Decomposition") -> str:
    """Deterministic text of a decomposition; classes sort by literal."""
    from . import reps

    parts = []
    for c, mult in d.sorted_entries():
        lit = reps.class_literal(c)
        if mult == 1:
            parts.append(lit)
        elif mult == reps.INFINITY:
            parts.append(f"{lit}^(inf)")
        else:
            parts.append(f"{lit}^({mult})")
    lines = [" (+) ".join(parts) if parts else "(empty)"]
    if d.unresolved:
        lines.append(f"unresolved components: {len(d.unresolved)}")
    if d.tail_marker is not None:
        lines.append(
            "non-eventually-periodic classes: "
            + ("present (each multiplicity 1)" if d.tail_marker else "none")
        )
    return "\n".join(lines)


def _decomposition_report(d: "reps.Decomposition") -> tuple[bool, dict, str]:
    from . import reps

    return True, reps.decomposition_json(d), render_report(d)


def _maybe_dump(system: "branching.BranchingSystem", path: str | None) -> None:
    """Write the dump of `system` to `path`, if given; every file the CLI
    writes goes through here, and an unwritable path is a usage error."""
    from . import branching

    if path:
        text = branching.dump_bfs(system)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_classify_word(args):
    a = _load_matrix(args.matrix)
    w = words.parse_word(args.word)
    if not w:
        raise words.EmptyWordError("classify-word needs a nonempty word")
    adm = words.is_admissible(a, w)
    cyc = adm and words.is_cyclically_admissible(a, w)
    root, mult = words.primitive_root(w)
    canon = words.canonical_rotation(w)
    info = {
        "word": words.format_word(w),
        "admissible": adm,
        "cyclically_admissible": cyc,
        "periodic": mult >= 2,
        "primitive_root": words.format_word(root),
        "multiplicity": mult,
        "minimal": canon == w,
        "canonical_rotation": words.format_word(canon),
    }
    text = "\n".join(f"{k.replace('_', ' ')}: {_fmt_scalar(v)}" for k, v in info.items())
    return True, info, text


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    return str(v)


def _cmd_canon(args):
    canon = words.format_word(words.canonical_rotation(words.parse_word(args.word)))
    return True, {"word": canon}, canon


def _cmd_equiv(args):
    from . import reps

    a = _load_matrix(args.matrix) if args.matrix else None
    if len(args.cls) != 2:
        raise UsageError("equiv needs exactly two --class arguments")
    c1 = reps.parse_class_literal(args.cls[0], a)
    c2 = reps.parse_class_literal(args.cls[1], a)
    verdict = reps.equivalent(c1, c2)
    return True, {"equivalent": verdict}, "equivalent" if verdict else "not equivalent"


def _cmd_decompose_standard(args):
    from . import branching, reps

    a = _load_matrix(args.matrix)
    d = reps.decompose_standard(a)
    system = branching.standard_bfs(a, args.truncate)
    reps.cross_check_standard(d, system)
    _maybe_dump(system, args.dump_bfs)
    return _decomposition_report(d)


def _cmd_decompose_shift(args):
    from . import reps

    a = _load_matrix(args.matrix)
    d = reps.decompose_shift(a, args.max_period)
    if args.dump_bfs:
        from . import branching

        _maybe_dump(branching.shift_bfs(a, max(2, args.max_period * 2)), args.dump_bfs)
    return _decomposition_report(d)


def _cmd_decompose_bfs(args):
    from . import branching, reps

    a = _load_matrix(args.matrix)
    return _decomposition_report(reps.decompose(branching.load_bfs(_read_text(args.bfs), a)))


def _cmd_expand(args):
    from . import reps

    a = _load_matrix(args.matrix) if args.matrix else None
    if args.cls:
        d = reps.Decomposition(matrix=a)
        for lit in args.cls:
            d.add(reps.parse_class_literal(lit, a))
    else:
        import json

        try:
            record = json.loads(_read_text("-"))
        except (ValueError, RecursionError) as exc:  # too deep, or an integer too long to read
            raise UsageError(f"expand input is not JSON: {exc}") from None
        d = reps.decomposition_from_json(record, a)
    return _decomposition_report(reps.expand_irreducible(d))


def _build_system(args, a: words.TransitionMatrix) -> "branching.BranchingSystem":
    from . import branching

    kind = args.system
    if kind == "standard":
        return branching.standard_bfs(a, args.truncate)
    if kind == "shift":
        return branching.shift_bfs(a, args.word_len)
    if kind == "cycle":
        if not args.word:
            raise UsageError("--system cycle needs --word")
        return branching.build_cycle_system(a, words.parse_word(args.word), args.depth)
    # "chain", the one kind left: the option's choices allow no other
    if not args.tail:
        raise UsageError("--system chain needs --tail")
    return branching.build_chain_system(a, words.parse_tail(args.tail), args.chain_len, args.depth)


def _cmd_verify_relations(args):
    from . import branching

    a = _load_matrix(args.matrix)
    system = _build_system(args, a)
    _maybe_dump(system, args.dump_bfs)
    report = branching.validate_bfs(system)
    checked = report.checked_points  # per point: a domain check per symbol, a completeness check
    counts = {
        "checked_points": checked,
        "domain_checks": checked * a.n,
        "completeness_checks": checked,
    }
    lines = [f"{k.replace('_', ' ')}: {v}" for k, v in counts.items()]
    lines += [
        f"violation: {v.kind} symbols={v.symbols} points={v.points}" for v in report.violations
    ] or ["relations: ok"]
    record = {
        **counts,
        "violations": [
            {"kind": v.kind, "symbols": list(v.symbols), "points": [str(p) for p in v.points]}
            for v in report.violations
        ],
        "ok": report.ok,
    }
    return report.ok, record, "\n".join(lines)


def _cmd_state(args):
    from . import reps

    a = _load_matrix(args.matrix)
    c = reps.parse_class_literal(args.cls, a)
    value = reps.state_value(a, c, words.parse_word(args.left), words.parse_word(args.right))
    return True, {"value": value}, str(value)


def _check(ok: bool) -> str:
    return "ok" if ok else "FAILED"


def _cmd_pspec(args):
    summary = words.pspec_summary(_load_matrix(args.matrix), args.max_len)
    record = summary._asdict()
    record["cycle_words"] = [words.format_word(w) for w in summary.cycle_words]
    lines = [f"verdict: {'finite' if summary.finite else 'infinite'}"]
    if summary.finite:
        lines += [
            f"primitive classes: {summary.class_count}",
            f"cycle words: {' '.join(record['cycle_words'])}",
        ]
    counts = " ".join(f"{k}:{c}" for k, c in enumerate(summary.counts_by_length, start=1))
    lines += [
        f"tail classes: {'empty' if summary.tails_empty else 'nonempty'}",
        f"primitive counts by length: {counts}",
        f"enumeration cross-check: {_check(summary.cross_check_ok)}",
    ]
    return summary.cross_check_ok, record, "\n".join(lines)


def _cmd_gp_check(args):
    from . import reps

    a = _load_matrix(args.matrix)
    report = reps.gp_vector_check(a, words.parse_word(args.word), args.power, depth=args.depth)
    record = {**report._asdict(), "word": words.format_word(report.word), "ok": report.ok}
    text = (
        f"word: {record['word']} power: {report.p}\n"
        f"fixed point: {_check(report.fixed_point_ok)}\n"
        f"orthonormal family of {report.family_size}: {_check(report.orthonormal_ok)}\n"
        f"decomposition match: {_check(report.decomposition_matches)}"
    )
    return report.ok, record, text


def _cmd_twist(args):
    from . import reps

    a = _load_matrix(args.matrix) if args.matrix else None
    c = reps.parse_class_literal(args.cls, a)
    gauge = tuple(reps.parse_phase(p) for p in args.gauge.split(","))
    if a is not None and len(gauge) != a.n:
        raise UsageError(f"gauge needs {a.n} phases, got {len(gauge)}")
    literal = reps.class_literal(reps.twist_by_gauge(c, gauge))
    return True, {"class": literal}, literal


_MATRIX = ("--matrix", {"required": True, "help": "matrix file (0/1 rows)"})
_OPTIONAL_MATRIX = ("--matrix", {"help": "matrix file (0/1 rows)"})
_JSON = ("--json", {"action": "store_true", "help": "emit the JSON report"})
_DUMP = ("--dump-bfs", {"help": "also write the truncated system dump here"})

# The verb table: each verb's handler, its one-line help and its options
# in help order, an option being its flag and the keywords of add_argument.
_VERBS = {
    "classify-word": (
        _cmd_classify_word,
        "admissibility and canonical form of a word",
        [_MATRIX, _JSON, ("--word", {"required": True})],
    ),
    "canon": (
        _cmd_canon,
        "canonical rotation of a word",
        [("--word", {"required": True}), ("--json", {"action": "store_true"})],
    ),
    "equiv": (
        _cmd_equiv,
        "equivalence of two class literals",
        [_OPTIONAL_MATRIX, _JSON, ("--class", {"dest": "cls", "action": "append", "required": True})],
    ),
    "decompose-standard": (
        _cmd_decompose_standard,
        "decompose the standard representation",
        [_MATRIX, _JSON, ("--truncate", {"type": int, "default": DEFAULT_TRUNCATION}), _DUMP],
    ),
    "decompose-shift": (
        _cmd_decompose_shift,
        "decompose the shift representation",
        [_MATRIX, _JSON, ("--max-period", {"type": int, "default": DEFAULT_MAX_PERIOD}), _DUMP],
    ),
    "decompose-bfs": (
        _cmd_decompose_bfs,
        "decompose a dumped system",
        [_MATRIX, _JSON, ("--bfs", {"required": True, "help": "dump file, or - for stdin"})],
    ),
    "expand": (
        _cmd_expand,
        "irreducible-level expansion",
        [
            _OPTIONAL_MATRIX,
            _JSON,
            ("--class", {"dest": "cls", "action": "append", "help": "class literal (repeatable)"}),
        ],
    ),
    "verify-relations": (
        _cmd_verify_relations,
        "check the defining relations on a system",
        [
            _MATRIX,
            _JSON,
            ("--system", {"choices": ["standard", "shift", "cycle", "chain"], "default": "standard"}),
            ("--word", {"help": "cycle word for --system cycle"}),
            ("--tail", {"help": "tail literal for --system chain"}),
            ("--truncate", {"type": int, "default": DEFAULT_TRUNCATION}),
            ("--depth", {"type": int, "default": DEFAULT_DEPTH}),
            ("--chain-len", {"type": int, "default": DEFAULT_CHAIN_LEN}),
            ("--word-len", {"type": int, "default": 6}),
            ("--dump-bfs", {"help": "also write the system dump here"}),
        ],
    ),
    "state": (
        _cmd_state,
        "evaluate the class state at s_left s_right^*",
        [
            _MATRIX,
            _JSON,
            ("--class", {"dest": "cls", "required": True}),
            ("--left", {"required": True, "help": "word literal (0 for the unit)"}),
            ("--right", {"required": True, "help": "word literal (0 for the unit)"}),
        ],
    ),
    "pspec": (
        _cmd_pspec,
        "finite/infinite verdict for the class spectrum",
        [_MATRIX, _JSON, ("--max-len", {"type": int, "default": DEFAULT_MAX_PERIOD})],
    ),
    "gp-check": (
        _cmd_gp_check,
        "cyclic-vector check for a power class",
        [
            _MATRIX,
            _JSON,
            ("--word", {"required": True}),
            ("--power", {"type": int, "required": True}),
            ("--depth", {"type": int, "default": 2}),
        ],
    ),
    "twist": (
        _cmd_twist,
        "gauge-twist a class literal",
        [
            _OPTIONAL_MATRIX,
            _JSON,
            ("--class", {"dest": "cls", "required": True}),
            ("--gauge", {"required": True, "help": "comma-separated phase literals"}),
        ],
    ),
}


def build_parser() -> "argparse.ArgumentParser":
    """The `ck` parser, with every verb's subparser.  Options are spelled
    in full: no parser accepts an abbreviation."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(f"{message}\n\n{self.format_help()}")

    parser = _Parser(
        prog="ck", description="Permutative representation calculator", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (fn, help_text, options) in _VERBS.items():
        s = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, keywords in options:
            s.add_argument(flag, **keywords)
        s.set_defaults(fn=fn)
    return parser


def _parse_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The arguments `build_parser()` gives `argv`, read from `_VERBS`, or
    None unless the result is sure: the verb, then only its own flags in
    full, each value one that no parser reads as an option (not starting
    with "-", or "-" alone) and that its `type` and `choices` take, and
    every required option given."""
    if not argv or argv[0] not in _VERBS:
        return None
    fn, _, options = _VERBS[argv[0]]
    args = {"verb": argv[0], "fn": fn}
    table = {}
    for flag, keywords in options:
        dest = keywords.get("dest") or flag[2:].replace("-", "_")
        table[flag] = dest, keywords
        args[dest] = keywords.get("default", False if keywords.get("action") == "store_true" else None)
    missing = {flag for flag, keywords in options if keywords.get("required")}
    tokens = iter(argv[1:])
    for flag in tokens:
        if flag not in table:
            return None
        dest, keywords = table[flag]
        action = keywords.get("action")
        missing.discard(flag)
        if action == "store_true":
            args[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-") and value != "-":
            return None
        try:
            value = keywords.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        args[dest] = [*(args[dest] or ()), value] if action == "append" else value
    if missing:
        return None
    return SimpleNamespace(**args)


def _parse_args(argv: list[str]) -> "SimpleNamespace | argparse.Namespace":
    """Parse a well-formed call from the verb table; any other call is
    parsed by the full tree, so every usage error and help text lists all
    the verbs."""
    return _parse_well_formed(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        ok, record, text = args.fn(args)
        if args.json:
            import json

            text = json.dumps(record, indent=2, sort_keys=True)
        print(text)
        return 0 if ok else 1
    except BrokenPipeError:
        return 1
    except (UsageError, words.CkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)  # invariant violation
        return 2


if __name__ == "__main__":
    sys.exit(main())
