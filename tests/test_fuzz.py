"""Every verb, fuzzed in process: no user input reaches exit code 2.

Each example runs `ckrep.cli.main` once on one verb's argv, with matrix,
dump, word, tail, class, phase and `expand` JSON text drawn near the
formats the CLI reads: mostly well formed over the drawn matrix, so that
the deep paths run, and now and then malformed.  Exit 0 or 1 is allowed;
exit 1 must write exactly one `error:` line.  Every size argument is
bounded (`--truncate` <= 4096, `--max-len`, `--max-period`, `--power` and
`--word-len` <= 8, `--depth` <= 4, `--chain-len` <= 12, and
`--max-period` <= 3 with `--dump-bfs`, which builds words of twice that
length), so no example asks for a huge carrier or enumeration.
"""

import contextlib
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import all_valid_matrices
from ckrep import branching, words
from ckrep.cli import main


def _rows_text(rows) -> str:
    return "".join("".join(map(str, row)) + "\n" for row in rows)


def _is_valid(rows) -> bool:
    try:
        words.validate_matrix(rows)
    except words.WordError:
        return False
    return True


square_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n)
)
valid_rows = st.one_of(
    st.sampled_from([a.rows for n in (2, 3) for a in all_valid_matrices(n)]),
    st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4), min_size=4, max_size=4).filter(
        _is_valid
    ),
)
matrix_texts = st.one_of(
    valid_rows.map(_rows_text),
    valid_rows.map(_rows_text),
    valid_rows.map(_rows_text),
    square_rows.map(_rows_text),
    st.text(alphabet="01 2x\n", max_size=24),
)


@st.composite
def cycle_words(draw, a):
    """A walk of up to six letters in the digraph of `a`, cut where it can
    close, so mostly a cyclically admissible word."""
    w = [draw(st.integers(1, a.n))]
    for _ in range(draw(st.integers(0, 5))):
        w.append(draw(st.sampled_from(a.successors(w[-1]))))
    ends = [k for k in range(1, len(w) + 1) if a.entry(w[k - 1], w[0])]
    return words.format_word(tuple(w[: ends[-1]] if ends else w))


def word_texts(a):
    n = a.n if a else 4
    good = st.lists(st.integers(1, n), min_size=1, max_size=6).map(words.format_word)
    return st.one_of(
        good,
        cycle_words(a) if a else good,
        cycle_words(a) if a else good,
        st.text(alphabet="0123456789,", max_size=6),
        st.sampled_from(["", "0", "1,10", "11,", "-1", " ", "1,,2", "x"]),
    )


def tail_texts(a):
    return st.one_of(
        st.tuples(word_texts(a), word_texts(a)).map(lambda t: f"{t[0]}|({t[1]})"),
        word_texts(a).map(lambda w: f"|({w})"),
        st.text(alphabet="0123456789|(),", max_size=8),
    )


exact_phases = st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}")
phase_texts = st.one_of(
    exact_phases,
    exact_phases,
    st.tuples(st.integers(-9, 9), st.integers(-3, 0)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.text(alphabet="0123456789/-+.ie", max_size=8),
    st.sampled_from(["1/0", "nan+nani", "inf", "0.6+0.8i", "1e400+0i", "0+1i", "1", "/"]),
)


def class_texts(a):
    word = word_texts(a)
    return st.one_of(
        word.map(lambda w: f"P({w})"),
        word.map(lambda w: f"P({w})"),
        st.tuples(word, phase_texts).map(lambda t: f"P({t[0]};{t[1]})"),
        word.map(lambda w: f"Int({w})"),
        tail_texts(a).map(lambda t: f"P(({t})^inf)"),
        word.map(lambda w: f"P({w}^inf)"),
        st.text(alphabet="PInt()|;^0123/", max_size=10),
    )


def gauge_texts(a):
    n = a.n if a else 4
    return st.one_of(
        st.lists(phase_texts, min_size=n, max_size=n),
        st.lists(phase_texts, min_size=n, max_size=n),
        st.lists(phase_texts, min_size=1, max_size=4),
    ).map(",".join)


def ints(lo: int, hi: int):
    """An integer option value in [lo, hi], mostly positive, now and then
    not an integer."""
    good = st.integers(1, hi).map(str)
    return st.one_of(
        good, good, good, good, st.integers(lo, hi).map(str), st.sampled_from(["x", "", "1.5"])
    )


_labels = st.sampled_from(["1", "2", "3", "~1", "~2", "12", "a", "~", "", "1->2", "1 2"])
_dump_lines = st.tuples(
    st.integers(-1, 4),
    st.lists(st.one_of(st.tuples(_labels, _labels).map("->".join), _labels), max_size=4),
).map(lambda t: f"{t[0]}: " + ", ".join(t[1]))
dump_texts = st.one_of(
    st.tuples(st.text(alphabet="0123456789 x", max_size=6), st.lists(_dump_lines, max_size=5)).map(
        lambda t: "\n".join([t[0], *t[1]]) + "\n"
    ),
    st.text(alphabet="0123456789:~,->. \nx", max_size=40),
)

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=3)
)


def expand_inputs(a):
    word = word_texts(a)
    good = st.fixed_dictionaries(
        {
            "kind": st.sampled_from(["finite", "tail", "integral"]),
            "word": word,
            "multiplicity": st.one_of(st.just("inf"), st.integers(1, 3)),
        },
        optional={
            "phase": st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(
                lambda t: {"num": t[0], "den": t[1]}
            )
        },
    )
    odd = st.fixed_dictionaries(
        {
            "kind": st.one_of(st.sampled_from(["finite", "tail", "integral"]), _json_scalars),
            "word": st.one_of(word, _json_scalars),
            "multiplicity": st.one_of(st.just("inf"), _json_scalars),
        },
        optional={
            "phase": st.one_of(
                st.fixed_dictionaries({"num": _json_scalars, "den": _json_scalars}),
                st.fixed_dictionaries({"re": _json_scalars, "im": _json_scalars}),
                _json_scalars,
                st.lists(_json_scalars, max_size=2),
            )
        },
    )
    return st.one_of(
        st.fixed_dictionaries(
            {"components": st.lists(good, max_size=3)}, optional={"matrix": valid_rows}
        ).map(json.dumps),
        st.fixed_dictionaries(
            {"components": st.one_of(st.lists(st.one_of(good, odd, _json_scalars), max_size=3),
                                     _json_scalars)},
            optional={"matrix": st.one_of(square_rows, st.lists(_json_scalars, max_size=2),
                                          _json_scalars)},
        ).map(json.dumps),
        st.text(alphabet='{}[]":,0123456789abc', max_size=20),
    )


MATRIX = "matrix"  # the path of the drawn matrix file
DUMP = "dump"  # the path of the drawn dump file
OUT = "out"  # a writable output path

# verb -> [(flag, value: a path marker, None for a bare switch, or a
# function of the drawn matrix, None if it is invalid, giving a
# strategy), required]
OPTIONS = {
    "canon": [("--word", word_texts, True), ("--json", None, False)],
    "classify-word": [("--matrix", MATRIX, True), ("--word", word_texts, True)],
    "equiv": [("--matrix", MATRIX, False), ("--class", class_texts, True),
              ("--class", class_texts, True)],
    "decompose-standard": [("--matrix", MATRIX, True),
                           ("--truncate", lambda a: ints(-3, 4096), False),
                           ("--dump-bfs", OUT, False)],
    "decompose-shift": [("--matrix", MATRIX, True), ("--max-period", lambda a: ints(-2, 8), False)],
    "decompose-bfs": [("--matrix", MATRIX, True), ("--bfs", DUMP, True)],
    "expand": [("--matrix", MATRIX, False), ("--class", class_texts, False),
               ("--class", class_texts, False)],
    "verify-relations": [
        ("--matrix", MATRIX, True),
        ("--system",
         lambda a: st.sampled_from(["standard", "shift", "cycle", "chain", "other"]), False),
        ("--word", word_texts, False), ("--tail", tail_texts, False),
        ("--truncate", lambda a: ints(-3, 4096), False), ("--depth", lambda a: ints(-2, 4), False),
        ("--chain-len", lambda a: ints(-2, 12), False),
        ("--word-len", lambda a: ints(-2, 8), False),
        ("--dump-bfs", OUT, False),
    ],
    "state": [("--matrix", MATRIX, True), ("--class", class_texts, True),
              ("--left", word_texts, True), ("--right", word_texts, True)],
    "pspec": [("--matrix", MATRIX, True), ("--max-len", lambda a: ints(-2, 8), False)],
    "gp-check": [("--matrix", MATRIX, True), ("--word", word_texts, True),
                 ("--power", lambda a: ints(-2, 8), True), ("--depth", lambda a: ints(-2, 4), False)],
    "twist": [("--matrix", MATRIX, False), ("--class", class_texts, True),
              ("--gauge", gauge_texts, True)],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _dump_text(data, a) -> str:
    """Fuzzed dump text: free-form, or a real dump of a system over the
    drawn matrix, whole or with a stretch cut out of it."""
    if a is None or data.draw(st.integers(0, 3)) == 0:
        return data.draw(dump_texts)
    if data.draw(st.booleans()):
        system = branching.standard_bfs(a, data.draw(st.integers(a.n, 24)))
    else:
        system = branching.shift_bfs(a, data.draw(st.integers(2, 4)))
    text = branching.dump_bfs(system)
    if data.draw(st.booleans()):
        return text
    start = data.draw(st.integers(0, len(text)))
    return text[:start] + text[start + data.draw(st.integers(1, 12)) :]


def _draw_argv(data, verb: str, workdir) -> tuple[list[str], str]:
    matrix_text = data.draw(matrix_texts)
    (workdir / MATRIX).write_text(matrix_text)
    try:
        a = words.TransitionMatrix.from_text(matrix_text)
    except words.WordError:
        a = None
    argv = [verb]
    for flag, values, required in OPTIONS[verb]:
        if not data.draw(st.sampled_from([True] * 19 + [False]) if required else st.booleans()):
            continue
        if values == DUMP:
            (workdir / DUMP).write_text(_dump_text(data, a))
        if values in (MATRIX, DUMP, OUT):
            argv += [flag, str(workdir / values)]
        elif values is None:
            argv.append(flag)
        else:
            argv.append(f"{flag}={data.draw(values(a))}")  # a value may start with "-"
    if verb == "decompose-shift" and data.draw(st.booleans()):
        argv += [f"--max-period={data.draw(ints(-2, 3))}", "--dump-bfs", str(workdir / OUT)]
    if verb != "canon" and data.draw(st.booleans()):
        argv.append("--json")
    stdin = data.draw(expand_inputs(a)) if verb == "expand" else ""
    return argv, stdin


@pytest.mark.parametrize("verb", sorted(OPTIONS))
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_user_input_exits_0_or_1(workdir, verb, data):
    argv, stdin = _draw_argv(data, verb, workdir)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:
        assert len(errors) == 1, (argv, out.getvalue(), err.getvalue())
    else:
        assert not errors, (argv, err.getvalue())
