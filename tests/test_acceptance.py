"""Acceptance criteria, one test per criterion, exact tolerances.

Every check is integer/cyclotomic-exact; no floating point comparisons
appear anywhere.  Each test prints a single summary line on success (shown
with `pytest -v -s` or in the captured log); a pytest failure on one of
these tests is a failed criterion.
"""

import itertools
import json
import random

from conftest import (
    A1_ROWS,
    A2_ROWS,
    A3_ROWS,
    A4_ROWS,
    FOUR_BY_FOUR,
    NAIVE1_ROWS,
    NAIVE2_ROWS,
    brute_cyclic_words,
    brute_is_periodic,
    brute_min_rotation,
    checked_standard,
    corpus,
    full_matrix,
)
from ckrep.branching import (
    build_chain_system,
    build_cycle_system,
    direct_sum,
    shift_bfs,
    standard_bfs,
    truncated_from_rules,
    validate_bfs,
)
from ckrep.cli import main
from ckrep.reps import (
    Decomposition,
    INFINITY,
    IntegralClass,
    class_literal,
    decompose,
    expand_irreducible,
    finite_class,
    gp_vector_check,
    state_value,
    tail_class,
)
from ckrep.words import (
    TailWord,
    canonical_rotation,
    enumerate_cyclic_classes,
    format_word,
    is_periodic,
    pspec_summary,
    validate_matrix,
    words_equivalent_infinite,
)

from test_reps import model_state


def by_literal(d: Decomposition) -> dict[str, object]:
    return {class_literal(c): m for c, m in d.entries.items()}


def test_criterion_01_m2_table(capsys):
    expected = [
        ([[1, 1], [1, 1]], {"P(1)": 1}),
        ([[1, 1], [1, 0]], {"P(1)": 1}),
        ([[0, 1], [1, 1]], {"P(12)": 1}),
        ([[1, 0], [1, 1]], {"P(1)": INFINITY}),
        ([[1, 1], [0, 1]], {"P(1)": 1, "P(2)": INFINITY}),
        ([[1, 0], [0, 1]], {"P(1)": INFINITY, "P(2)": INFINITY}),
        ([[0, 1], [1, 0]], {"P(12)": INFINITY}),
    ]
    for rows, want in expected:
        a = validate_matrix(rows)
        d = checked_standard(a, 256)
        assert by_literal(d) == want, rows
    # and through the CLI, including the "inf" markers in JSON
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "m.txt"
        path.write_text("11\n01\n")
        assert main(["decompose-standard", "--matrix", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        mults = {c["word"]: c["multiplicity"] for c in payload["components"]}
        assert mults == {"1": 1, "2": "inf"}
    print("CRITERION 01 PASS: all six M2({0,1}) standard decompositions exact")


def test_criterion_02_3x3_examples():
    a3 = validate_matrix(A3_ROWS)
    a4 = validate_matrix(A4_ROWS)
    assert by_literal(checked_standard(a3, 243)) == {"P(12)": 1}
    assert by_literal(checked_standard(a4, 243)) == {"P(1)": 1, "P(2)": 1}
    print("CRITERION 02 PASS: 3x3 standard decompositions exact")


def test_criterion_03_4x4_examples():
    for rows, word in FOUR_BY_FOUR:
        a = validate_matrix(rows)
        assert by_literal(checked_standard(a, 256)) == {f"P({word})": 1}, rows
    print("CRITERION 03 PASS: 4x4 standard decompositions exact")


def test_criterion_04_naive_systems():
    n1 = validate_matrix(NAIVE1_ROWS)
    f1 = truncated_from_rules(
        n1,
        64,
        [
            (lambda x: x % 4 == 2, lambda x: x - 1),
            (lambda x: x % 4 in (1, 2), lambda x: x + 3 if x % 4 == 1 else x + 1),
            (lambda x: True, lambda x: 4 * (x - 1) + 2),
        ],
    )
    assert validate_bfs(f1).ok
    d1 = decompose(f1)
    assert by_literal(d1) == {"P(13)": 1} and not d1.unresolved

    # second system lives on pairs (n, i); encode x = 2(n-1)+i
    n2 = validate_matrix(NAIVE2_ROWS)

    def dec(x):
        return (x - 1) // 2 + 1, (x - 1) % 2 + 1

    def enc(n, i):
        return 2 * (n - 1) + i

    def img1(x):
        n, _ = dec(x)
        return enc(n, 1)

    def dom2(x):
        n, i = dec(x)
        return i == 1 or (n - 1) % 5 + 1 in (4, 5)

    def img2(x):
        n, i = dec(x)
        if i == 1:
            return enc(5 * (n - 1) + 1, 2)
        m, base = (n - 1) % 5 + 1, (n - 1) // 5
        return enc(5 * base + (2 if m == 4 else 3), 2)

    def img3(x):
        n, i = dec(x)
        return enc(5 * (n - 1) + (4 if i == 1 else 5), 2)

    f2 = truncated_from_rules(
        n2,
        64,
        [(lambda x: dec(x)[1] == 2, img1), (dom2, img2), (lambda x: True, img3)],
    )
    assert validate_bfs(f2).ok
    d2 = decompose(f2)
    assert by_literal(d2) == {"P(12)": 1} and not d2.unresolved
    print("CRITERION 04 PASS: naive fixtures classify as P(13) and P(12)")


def test_criterion_05_spectrum_counts():
    a1 = validate_matrix(A1_ROWS)
    s1 = pspec_summary(a1, 8)
    assert s1.finite and s1.class_count == 2 and s1.tails_empty and s1.cross_check_ok
    a2 = validate_matrix(A2_ROWS)
    s2 = pspec_summary(a2, 8)
    assert not s2.finite and s2.class_count is None and not s2.tails_empty
    print("CRITERION 05 PASS: spectrum verdicts (2 classes / infinite) exact")


def test_criterion_06_full_matrices():
    for n in range(2, 6):
        d = checked_standard(full_matrix(n), max(64, 2 * n * n))
        assert by_literal(d) == {"P(1)": 1}, n
    print("CRITERION 06 PASS: full matrices N=2..5 give exactly P(1)")


def test_criterion_07_power_splitting():
    runs = 0
    for a in corpus():
        for k in range(1, 4):
            for word in brute_cyclic_words(a, k):
                if is_periodic(word):
                    continue
                for p in range(1, 5):
                    report = gp_vector_check(a, word, p, depth=1)
                    assert report.ok, (a.rows, word, p)
                    assert report.family_size == len(word) * p
                    runs += 1
    assert runs > 100
    print(f"CRITERION 07 PASS: {runs} cyclic-vector checks exact in cyclotomics")


def test_criterion_08_state_formula_oracle():
    checked = 0
    # cycles: every class representative of length <= 3, all word pairs <= 5
    cycle_cases = [
        (validate_matrix(A1_ROWS), None),
        (full_matrix(2), None),
        (validate_matrix(A3_ROWS), None),
        (validate_matrix(A4_ROWS), None),
    ]
    for a, _ in cycle_cases:
        reps_words = [w for w, periodic in enumerate_cyclic_classes(a, 3) if not periodic]
        pool = [
            w
            for length in range(0, 6)
            for w in itertools.product(range(1, a.n + 1), repeat=length)
        ]
        for word in reps_words:
            c = finite_class(word, matrix=a)
            f = build_cycle_system(a, word, 6)
            omega = format_word(word)
            for left in pool:
                for right in pool:
                    assert state_value(a, c, left, right) == model_state(
                        f, omega, left, right
                    ), (a.rows, word, left, right)
                    checked += 1
    # chains: prefix length 8 models
    chain_cases = [
        (validate_matrix(A1_ROWS), TailWord((), (2,))),
        (full_matrix(2), TailWord((), (1,))),
        (full_matrix(2), TailWord((), (1, 2))),
        (validate_matrix(A3_ROWS), TailWord((), (1, 2))),
    ]
    for a, tail in chain_cases:
        c = tail_class(tail, a)
        f = build_chain_system(a, c.tail, 8, 4)
        pool = [
            w
            for length in range(0, 6)
            for w in itertools.product(range(1, a.n + 1), repeat=length)
        ]
        for left in pool:
            for right in pool:
                assert state_value(a, c, left, right) == model_state(f, 1, left, right), (
                    a.rows,
                    tail,
                    left,
                    right,
                )
                checked += 1
    print(f"CRITERION 08 PASS: {checked} state evaluations match the basis models")


def test_criterion_09_property_suites():
    # canonical rotation vs brute force, every word of length <= 10, N <= 3
    for n in (2, 3):
        for k in range(1, 11):
            for w in itertools.product(range(1, n + 1), repeat=k):
                assert canonical_rotation(w) == brute_min_rotation(w, n)
    # periodicity vs divisor brute force to length 12
    for n, top in ((2, 12), (3, 8)):
        for k in range(1, top + 1):
            for w in itertools.product(range(1, n + 1), repeat=k):
                assert is_periodic(w) == brute_is_periodic(w)
    # every generated system validates, so the relations hold exactly
    systems = []
    for a in corpus():
        batch = [standard_bfs(a, 128), shift_bfs(a, 5)]
        for k in (1, 2, 3):
            for w in brute_cyclic_words(a, k)[:2]:
                batch.append(build_cycle_system(a, w, 3))
                if not is_periodic(w):
                    batch.append(build_chain_system(a, TailWord((), w), 6, 2))
        for f in batch:
            assert validate_bfs(f).ok, (a.rows, f.labels[:3])
        systems.extend(batch)
    # and the outer corpus bounds: truncation 256, tree depth 5
    a3 = validate_matrix(A3_ROWS)
    for f in (standard_bfs(a3, 256), build_cycle_system(a3, (1, 2), 5)):
        assert validate_bfs(f).ok
    # decomposition additivity under direct sums, 100 random pairs
    rng = random.Random(41)
    pairs = 0
    while pairs < 100:
        f, g = rng.choice(systems), rng.choice(systems)
        if f.matrix.rows != g.matrix.rows:
            continue
        pairs += 1
        left = decompose(f)
        right = decompose(g)
        total = decompose(direct_sum(f, g))
        merged: dict = dict(left.entries)
        for c, m in right.entries.items():
            merged[c] = merged.get(c, 0) + m
        assert total.entries == merged
        assert len(total.unresolved) == len(left.unresolved) + len(right.unresolved)
    print("CRITERION 09 PASS: rotation/periodicity oracles, axiom and relation"
          " sweeps, and 100 direct-sum additivity checks")


def test_criterion_10_integral_uniqueness():
    rng = random.Random(59)
    full3 = full_matrix(3)
    tails = []
    while len(tails) < 100:
        pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        tails.append(TailWord(pre, per))
    image = {}
    for t in tails:
        d = expand_irreducible(Decomposition(entries={tail_class(t, full3): 1}))
        (cls,) = d.entries
        assert isinstance(cls, IntegralClass) and not is_periodic(cls.word)
        image[t] = cls
    for t1 in tails:
        for t2 in tails:
            same_class = image[t1] == image[t2]
            assert same_class == words_equivalent_infinite(full3, t1, t2), (t1, t2)
    print("CRITERION 10 PASS: eventually periodic tails map to unique integrals")
