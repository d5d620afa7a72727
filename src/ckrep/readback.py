"""The decomposition report read back from its JSON record.

`reps.decomposition_json` writes the record; `decomposition_from_json`
is its inverse, and refuses every key or value the writer never writes.
Only `ck expand` reading a report on stdin imports this module.
"""

from collections import namedtuple

from .phases import ONE, Phase
from .reps import Decomposition, INFINITY, RepError, finite_class, integral_class, tail_class
from .words import (
    EMPTY_WORD,
    TailWord,
    TransitionMatrix,
    _check_symbols,
    parse_word,
    validate_matrix,
)


def phase_from_json(data) -> Phase:
    """Read the form `phase_json` writes, with exactly its keys.  A
    boolean is not a number here, as JSON's true and false are not."""
    try:
        if not any(isinstance(v, bool) for v in data.values()):
            if data.keys() == {"num", "den"}:
                return Phase.exact(data["num"], data["den"])
            if data.keys() == {"re", "im"}:
                return Phase.from_complex(complex(data["re"], data["im"]))
    except (AttributeError, OverflowError, TypeError):
        pass
    raise RepError(f"bad phase {data!r}: need num/den integers or re/im numbers")


UnresolvedEntry = namedtuple("UnresolvedEntry", "word size")  # an unresolved component, read back

_REPORT_KEYS = {"matrix", "level", "components", "unresolved", "tail_classes_present"}


def decomposition_from_json(record, matrix: TransitionMatrix | None = None) -> Decomposition:
    """The decomposition that `decomposition_json` wrote as `record`, over
    the report's matrix or, if it has none, over `matrix`.  A field that
    the writer may leave out takes its default; any other key or value the
    writer never writes, a matrix other than `matrix` among them, raises
    RepError or WordError."""
    if not isinstance(record, dict) or not isinstance(record.get("components"), list):
        raise RepError('expand input needs a "components" list')
    if extra := record.keys() - _REPORT_KEYS:
        raise RepError(f"report has unknown key {min(extra)!r}")
    if (rows := record.get("matrix")) is not None:
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise RepError('"matrix" must be a list of rows')
        own = validate_matrix(rows)
        if matrix is not None and matrix != own:
            raise RepError("the report's matrix differs from the given matrix")
        matrix = own
    out = Decomposition(level=record.get("level", "cyclic"), matrix=matrix)
    if out.level not in ("cyclic", "irreducible"):
        raise RepError(f'"level" must be "cyclic" or "irreducible", not {out.level!r}')
    out.tail_marker = record.get("tail_classes_present")
    if "tail_classes_present" in record and not isinstance(out.tail_marker, bool):
        raise RepError(f'"tail_classes_present" must be true or false, not {out.tail_marker!r}')
    for comp in record["components"]:
        fields = comp if isinstance(comp, dict) else {}
        kind, mult = fields.get("kind"), fields.get("multiplicity")
        if not all(isinstance(fields.get(key), str) for key in ("kind", "word")):
            raise RepError(f"component {comp!r} needs a string kind and word")
        if mult != "inf" and not (type(mult) is int and mult >= 1):
            raise RepError(f'component {comp!r} needs multiplicity "inf" or a positive integer')
        if "phase" in fields and kind != "finite":
            raise RepError(f"component {comp!r} has a phase, which only a finite class takes")
        if extra := fields.keys() - {"kind", "word", "phase", "multiplicity"}:
            raise RepError(f"component {comp!r} has unknown key {min(extra)!r}")
        word = parse_word(fields["word"])
        if kind == "finite":
            phase = phase_from_json(fields["phase"]) if "phase" in fields else ONE
            c = finite_class(word, phase, matrix)
        elif kind == "tail":
            c = tail_class(TailWord(EMPTY_WORD, word), matrix)
        elif kind == "integral":
            c = integral_class(word, matrix)
        else:
            raise RepError(f"unknown component kind {kind!r}")
        out.add(c, INFINITY if mult == "inf" else mult)
    if not isinstance(entries := record.get("unresolved", []), list):
        raise RepError('"unresolved" must be a list')
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        prefix, size = fields.get("prefix"), fields.get("size")
        if fields.keys() != {"prefix", "size"} or not isinstance(prefix, str) or not (
            type(size) is int and size >= 1
        ):
            raise RepError(f"unresolved entry {entry!r} needs a string prefix and a positive size")
        word = parse_word(prefix)
        if matrix is not None:
            _check_symbols(matrix, word)
        out.unresolved += (UnresolvedEntry(word, size),)
    return out
