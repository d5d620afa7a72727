import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    A1_ROWS,
    A2_ROWS,
    A3_ROWS,
    ALL_2X2,
    all_valid_matrices,
    brute_cyclic_words,
    brute_is_periodic,
    brute_min_rotation,
    brute_simple_cycles,
    brute_spectrum_finite,
    corpus,
    full_matrix,
    oracle_enumerate_cyclic_classes,
    random_matrices,
    rotate,
    trace_formula_counts,
    tree,
)
from ckrep import cycles, words
from ckrep.words import (
    EmptyWordError,
    MatrixTooSmallError,
    NonBinaryEntryError,
    NotAdmissibleError,
    SymbolOutOfRangeError,
    TailWord,
    TransitionMatrix,
    WordError,
    ZeroColumnError,
    ZeroRowError,
    canonical_rotation,
    enumerate_cyclic_classes,
    format_tail,
    format_word,
    is_admissible,
    is_cyclically_admissible,
    is_periodic,
    parse_tail,
    parse_word,
    power,
    primitive_root,
    pspec_summary,
    tail_canonical,
    validate_matrix,
    words_equivalent_infinite,
)

A1 = validate_matrix(A1_ROWS)
A2 = validate_matrix(A2_ROWS)
A3 = validate_matrix(A3_ROWS)

# Every valid 2x2 and 3x3 matrix, plus seeded random 4x4 ones.
SPECTRUM_CORPUS = all_valid_matrices(2) + all_valid_matrices(3) + random_matrices(4, 20, seed=4)

short_words = st.lists(st.integers(1, 3), min_size=1, max_size=12).map(tuple)


class TestValidateMatrix:
    def test_accepts_known_matrix(self):
        assert validate_matrix([[1, 1], [0, 1]]).n == 2

    def test_zero_column(self):
        with pytest.raises(ZeroColumnError) as exc:
            validate_matrix([[1, 0], [1, 0]])
        assert exc.value.index == 2

    def test_zero_row(self):
        with pytest.raises(ZeroRowError):
            validate_matrix([[0, 0], [1, 1]])

    def test_too_small(self):
        with pytest.raises(MatrixTooSmallError):
            validate_matrix([[1]])

    def test_non_binary(self):
        with pytest.raises(NonBinaryEntryError):
            validate_matrix([[1, 2], [1, 1]])

    @pytest.mark.parametrize("entry", [1.0, True, 0.0, False])
    def test_only_the_ints_0_and_1(self, entry):
        with pytest.raises(NonBinaryEntryError, match=f"entry {entry!r} is not 0 or 1"):
            validate_matrix([[entry, 1], [1, 1]])

    def test_matrix_text_round_trip(self):
        for a in SPECTRUM_CORPUS:
            assert words.TransitionMatrix.from_text(a.to_text()) == a, a


def int_per_entry_matrix(text: str) -> TransitionMatrix:
    """The matrix file reader that converts one int() per entry, which
    takes any Unicode digit: the messages of an ASCII file are its own."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    try:
        entries = [[int(ch) for ch in line] for line in lines]
    except ValueError as exc:
        raise NonBinaryEntryError(f"bad matrix line: {exc}") from None
    return validate_matrix(entries)


class TestMatrixText:
    @given(st.text(alphabet="01 2x9\t\n", max_size=30))
    def test_ascii_text_reads_as_with_one_int_per_entry(self, text):
        try:
            expected = int_per_entry_matrix(text)
        except WordError as exc:
            with pytest.raises(type(exc)) as got:
                words.TransitionMatrix.from_text(text)
            assert str(got.value) == str(exc)
        else:
            assert words.TransitionMatrix.from_text(text) == expected

    @pytest.mark.parametrize("text", ["١١\n١٠\n", "11\n1٠\n", "11\n12\n٣\n", "11\n1１\n"])
    def test_only_ascii_digits_are_entries(self, text):
        with pytest.raises(NonBinaryEntryError, match="bad matrix line: invalid literal"):
            words.TransitionMatrix.from_text(text)

    def test_the_1000_state_ring_reads_row_by_row(self):
        n = 1000
        rows = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        text = "".join("".join(map(str, row)) + "\n" for row in rows)
        a = words.TransitionMatrix.from_text(text)
        assert a == validate_matrix(rows)
        assert words.TransitionMatrix.from_text(a.to_text()) == a


class TestAdmissibility:
    def test_a1_21_inadmissible(self):
        assert not is_admissible(A1, (2, 1))

    def test_single_letters_always_admissible(self):
        for a in corpus():
            for i in range(1, a.n + 1):
                assert is_admissible(a, (i,))

    def test_a1_122(self):
        assert is_admissible(A1, (1, 2, 2))

    def test_unit_is_admissible(self):
        assert is_admissible(A1, ())
        assert words.admissible_words(A1, 0) == [()]

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRangeError):
            is_admissible(A1, (1, 3))

    def test_cyclic_wrap(self):
        assert not is_cyclically_admissible(A1, (1, 2))
        assert is_cyclically_admissible(A1, (1,))
        assert is_cyclically_admissible(A3, (1, 2))
        with pytest.raises(EmptyWordError):
            is_cyclically_admissible(A1, ())

    @given(st.lists(st.integers(1, 2), min_size=1, max_size=6).map(tuple),
           st.lists(st.integers(1, 2), min_size=1, max_size=6).map(tuple))
    def test_concat_admissibility_law(self, left, right):
        for a in (A1, A2):
            joint = is_admissible(a, left + right)
            split = (
                is_admissible(a, left)
                and is_admissible(a, right)
                and bool(a.entry(left[-1], right[0]))
            )
            assert joint == split


class TestWordOps:
    def test_power_unit(self):
        assert power((1, 2), 2) == (1, 2, 1, 2)
        assert power((1,), 0) == ()
        with pytest.raises(WordError, match="power needs p >= 0"):
            power((1, 2), -1)

    def test_rotate(self):
        assert rotate((1, 2, 3), 1) == (2, 3, 1)
        assert rotate((1, 2), 0) == (1, 2)
        assert rotate(rotate((1, 2), 1), 1) == (1, 2)
        with pytest.raises(EmptyWordError):
            rotate((), 1)


class TestPeriodicity:
    def test_examples(self):
        assert primitive_root((1, 2, 1, 2)) == ((1, 2), 2)
        assert primitive_root((1, 2)) == ((1, 2), 1)
        assert primitive_root((1, 1, 2) * 3) == ((1, 1, 2), 3)
        assert is_periodic((1, 2, 1, 2))
        assert not is_periodic((1, 2))
        with pytest.raises(EmptyWordError):
            primitive_root(())

    def test_against_divisor_brute_force_exhaustive(self):
        # all binary words to length 12, ternary to length 8
        for n, top in ((2, 12), (3, 8)):
            for k in range(1, top + 1):
                for w in itertools.product(range(1, n + 1), repeat=k):
                    assert is_periodic(w) == brute_is_periodic(w)

    @given(short_words)
    def test_root_reconstructs_word(self, w):
        root, mult = primitive_root(w)
        assert root * mult == w
        assert not is_periodic(root)


class TestCanonicalRotation:
    def test_examples(self):
        assert canonical_rotation((2, 1, 1)) == (1, 1, 2)
        assert canonical_rotation((1,)) == (1,)
        assert canonical_rotation((1, 2, 1, 2)) == (1, 2, 1, 2)

    def test_against_brute_force_exhaustive(self):
        # every word of length <= 10 over N <= 3 (acceptance replays this)
        for n in (2, 3):
            for k in range(1, 11):
                for w in itertools.product(range(1, n + 1), repeat=k):
                    assert canonical_rotation(w) == brute_min_rotation(w, n)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=12),
        st.integers(1, 24),
        st.lists(st.integers(1, 3), max_size=12),
    )
    def test_against_brute_force_on_structured_long_words(self, u, m, v):
        # u^m v up to 300 letters: long runs of one period, the case in
        # which a least-rotation scan has most candidates to weigh
        w = tuple(u * m + v)
        assert canonical_rotation(w) == brute_min_rotation(w, 3)

    def test_runs_under_the_time_limit(self):
        # a fault that keeps Duval's factor loop going fails the test when
        # the alarm armed for every test goes off, rather than hanging
        import signal

        from conftest import TEST_TIME_LIMIT

        remaining = signal.getitimer(signal.ITIMER_REAL)[0]
        assert 0 < remaining <= TEST_TIME_LIMIT
        assert canonical_rotation((2, 1, 2, 1, 1)) == (1, 1, 2, 1, 2)

    @given(short_words, st.integers(0, 11))
    def test_rotation_invariance(self, w, r):
        canon = canonical_rotation(w)
        assert canon in {rotate(w, s) for s in range(len(w))}
        assert canonical_rotation(rotate(w, r)) == canon


class TestFiniteEquivalence:
    # two finite words are equivalent iff they are cyclic rotations of each
    # other, which is iff their canonical rotations agree
    def test_examples(self):
        assert canonical_rotation((1, 2, 3)) == canonical_rotation((3, 1, 2))
        assert canonical_rotation((1, 2)) != canonical_rotation((1, 2, 1, 2))
        assert canonical_rotation((1, 1, 2)) != canonical_rotation((1, 2, 2))

    def test_equivalence_relation_on_samples(self):
        rng = random.Random(7)
        pool = []
        for _ in range(120):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6)))
            pool.append(w)
            pool.append(rotate(w, rng.randrange(len(w))))
        for _ in range(1000):
            u, v = rng.sample(pool, 2)
            rotations = {rotate(u, s) for s in range(len(u))}
            assert (canonical_rotation(u) == canonical_rotation(v)) == (v in rotations), (u, v)


class TestTails:
    def test_constructor_reduces_period(self):
        t = TailWord((), (1, 2, 1, 2))
        assert t.period == (1, 2)
        with pytest.raises(EmptyWordError):
            TailWord((1,), ())

    def test_tail_canonical_examples(self):
        assert tail_canonical(A1, TailWord((1,), (2,))) == TailWord((), (2,))
        full = full_matrix(2)
        assert tail_canonical(full, TailWord((), (1, 2, 1, 2))) == TailWord((), (1, 2))
        # rotated-preperiod form collapses to the same normal form
        assert tail_canonical(full, TailWord((2, 1), (1, 2))) == TailWord((), (1, 2))
        assert tail_canonical(full, TailWord((), (2, 1))) == TailWord((), (1, 2))

    def test_tail_canonical_rejects_inadmissible(self):
        with pytest.raises(NotAdmissibleError):
            tail_canonical(A1, TailWord((2,), (1,)))

    def test_letters_and_prefix(self):
        t = TailWord((1,), (2, 3))
        assert t.prefix(5) == (1, 2, 3, 2, 3)

    def test_infinite_equivalence_examples(self):
        assert words_equivalent_infinite(A1, TailWord((1,), (2,)), TailWord((), (2,)))
        assert not words_equivalent_infinite(A1, TailWord((), (1,)), TailWord((), (2,)))
        full = full_matrix(2)
        assert words_equivalent_infinite(full, TailWord((), (1, 2)), TailWord((), (2, 1)))

    def test_infinite_equivalence_relation_on_samples(self):
        full = full_matrix(3)
        rng = random.Random(11)
        pool = []
        for _ in range(60):
            per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            pool.append(TailWord(pre, per))
        for _ in range(1000):
            u, v, w = rng.sample(pool, 3)
            assert words_equivalent_infinite(full, u, u)
            assert words_equivalent_infinite(full, u, v) == words_equivalent_infinite(full, v, u)
            if words_equivalent_infinite(full, u, v) and words_equivalent_infinite(full, v, w):
                assert words_equivalent_infinite(full, u, w)


class TestEnumeration:
    def test_a1_enumeration(self):
        got = enumerate_cyclic_classes(A1, 3)
        assert [w for w, _ in got] == [(1,), (2,), (1, 1), (2, 2), (1, 1, 1), (2, 2, 2)]
        assert [w for w, periodic in got if not periodic] == [(1,), (2,)]

    def test_full_2x2_length_1(self):
        got = enumerate_cyclic_classes(full_matrix(2), 1)
        assert [w for w, _ in got] == [(1,), (2,)]

    def test_a2_contains_112(self):
        got = [w for w, _ in enumerate_cyclic_classes(A2, 3)]
        assert (1, 1, 2) in got

    def test_one_representative_per_rotation_class(self):
        for a in corpus():
            if a.n > 3:
                continue
            for max_len in (4, 6):
                reps = [w for w, _ in enumerate_cyclic_classes(a, max_len)]
                seen = set()
                for w in reps:
                    cls = frozenset(rotate(w, r) for r in range(len(w)))
                    assert cls not in seen, f"duplicate class for {w}"
                    seen.add(cls)
                for k in range(1, max_len + 1):
                    for w in brute_cyclic_words(a, k):
                        assert any(
                            canonical_rotation(r) == canonical_rotation(w) for r in reps
                        ), f"{w} not represented"

    def test_matches_grow_and_filter_oracle(self):
        for a in SPECTRUM_CORPUS:
            assert enumerate_cyclic_classes(a, 8) == oracle_enumerate_cyclic_classes(a, 8), a.rows


class TestTrees:
    """The tree oracle in conftest, which the carrier oracles list points by."""

    def test_in_side_a3(self):
        assert tree(A3, 1, 1, "in").words == ((2,), (3,))

    def test_full_in_side(self):
        full = full_matrix(2)
        assert tree(full, 1, 1, "in").words == ((1,), (2,))

    def test_out_side_a1(self):
        assert tree(A1, 1, 1, "out").words == ((1,), (2,))
        assert tree(A1, 2, 1, "out").words == ((2,),)

    def test_members_are_admissible_and_anchored(self):
        for a in corpus()[:6]:
            for j in range(1, a.n + 1):
                node = tree(a, j, 3, "in")
                for w in node.words:
                    assert is_admissible(a, w)
                    assert a.entry(w[-1], j)
                node = tree(a, j, 3, "out")
                for w in node.words:
                    assert is_admissible(a, w)
                    assert a.entry(j, w[0])

    def test_symbol_range(self):
        with pytest.raises(SymbolOutOfRangeError):
            tree(A1, 3, 1, "in")


class TestPSpec:
    def test_a1_finite_two_classes(self):
        s = pspec_summary(A1, 6)
        assert s.finite and s.class_count == 2 and s.tails_empty
        assert s.cycle_words == ((1,), (2,))
        assert s.cross_check_ok

    def test_a2_infinite(self):
        s = pspec_summary(A2, 6)
        assert not s.finite and s.class_count is None and not s.tails_empty

    def test_full_2x2_infinite_with_growth(self):
        s = pspec_summary(full_matrix(2), 6)
        assert not s.finite
        assert sum(s.counts_by_length[:3]) < sum(s.counts_by_length)

    def test_scc_verdict_matches_independent_oracle(self):
        for a in corpus():
            verdict = pspec_summary(a, 6).finite
            assert verdict == brute_spectrum_finite(a), a.rows

    def test_cycle_words_match_the_simple_cycle_oracle(self):
        # the words themselves, not only the verdict: each simple cycle read
        # from its least letter, in (length, word) order
        # (60, 61 and 9 of the 265, 1000 and 1000 matrices have a finite spectrum)
        matrices = all_valid_matrices(3) + random_matrices(4, 1000, seed=4) + random_matrices(
            5, 1000, seed=5
        )
        for a in matrices:
            expected = tuple(brute_simple_cycles(a)) if brute_spectrum_finite(a) else None
            assert cycles._cycle_words(a) == expected, a.rows

    # Wide alphabets, past the reach of the permutation-enumerating oracle:
    # each expected answer is read off how the matrix is built.

    @staticmethod
    def _matrix(n, edges):
        rows = [[0] * n for _ in range(n)]
        for v, w in edges:
            rows[v - 1][w - 1] = 1
        return validate_matrix(rows)

    @staticmethod
    def _from_least_letter(cycle):
        head = cycle.index(min(cycle))
        return tuple(cycle[head:] + cycle[:head])

    def _ring(self, n, seed):
        order = list(range(1, n + 1))
        random.Random(seed).shuffle(order)
        return order, list(zip(order, order[1:] + order[:1]))

    @pytest.mark.parametrize("n", [60, 300])
    def test_wide_ring_is_one_cycle_word(self, n):
        order, edges = self._ring(n, seed=n)
        assert cycles._cycle_words(self._matrix(n, edges)) == (self._from_least_letter(order),)

    @pytest.mark.parametrize("n", [60, 300])
    def test_wide_ring_with_a_self_loop_is_infinite(self, n):
        order, edges = self._ring(n, seed=n)
        assert cycles._cycle_words(self._matrix(n, edges + [(order[n // 3], order[n // 3])])) is None

    def _bridged_cycles(self, n, seed):
        # a permutation cut into cycles of lengths 1.. (at least one of
        # length 3 or more), plus edges from each cycle to later ones only
        rng = random.Random(seed)
        letters = list(range(1, n + 1))
        rng.shuffle(letters)
        cut, k = [], 0
        while k < n:
            size = min(n - k, rng.randint(1, 12) if cut else 5)
            cut.append(letters[k : k + size])
            k += size
        edges = [(c[t], c[(t + 1) % len(c)]) for c in cut for t in range(len(c))]
        for a, c in enumerate(cut):
            for d in cut[a + 1 :]:
                if rng.random() < 0.3:
                    edges.append((rng.choice(c), rng.choice(d)))
        return cut, edges

    @pytest.mark.parametrize("n", [60, 300])
    def test_wide_bridged_permutation_gives_its_cycles(self, n):
        cut, edges = self._bridged_cycles(n, seed=n)
        expected = sorted(map(self._from_least_letter, cut), key=lambda w: (len(w), w))
        assert cycles._cycle_words(self._matrix(n, edges)) == tuple(expected)

    @pytest.mark.parametrize("n", [60, 300])
    def test_wide_bridged_permutation_with_a_chord_is_infinite(self, n):
        cut, edges = self._bridged_cycles(n, seed=n)
        c = cut[0]  # of length 5: the chord skips one letter
        assert cycles._cycle_words(self._matrix(n, edges + [(c[0], c[2])])) is None

    def test_verdict_matches_enumeration_growth(self):
        # finite <=> the primitive count stabilizes once all simple cycles fit
        for rows in ALL_2X2:
            a = validate_matrix(rows)
            s8 = pspec_summary(a, 8)
            stabilized = sum(s8.counts_by_length[a.n :]) == 0
            assert s8.finite == stabilized

    def test_counts_match_trace_formula(self):
        for a in SPECTRUM_CORPUS:
            max_len = max(12, 2 * a.n)
            s = pspec_summary(a, max_len)
            assert s.counts_by_length == tuple(trace_formula_counts(a, max_len)), a.rows
            assert s.cross_check_ok, a.rows

    def test_full_2x2_at_length_20(self):
        full = full_matrix(2)
        assert pspec_summary(full, 20).counts_by_length[19] == 52377
        assert trace_formula_counts(full, 20)[19] == 52377

    def test_verdict_is_the_trace_rule(self):
        # finite iff no primitive class has length in (N, 2N]
        for a in SPECTRUM_CORPUS:
            q = trace_formula_counts(a, 2 * a.n)
            assert pspec_summary(a, 1).finite == (sum(q[a.n :]) == 0), a.rows

    def test_library_trace_counts_match_enumeration_and_dense_powers(self):
        # the enumeration is the oracle for the sparse-row trace formula
        for a in SPECTRUM_CORPUS + [full_matrix(5)]:
            max_len = max(10, 2 * a.n) if a.n < 5 else 6
            enumerated = [0] * max_len
            for w, periodic in enumerate_cyclic_classes(a, max_len):
                enumerated[len(w) - 1] += not periodic
            assert cycles._trace_formula_counts(a, max_len) == enumerated, a.rows
            assert cycles._trace_formula_counts(a, max_len) == trace_formula_counts(a, max_len)

    def test_finite_cross_check_holds_at_every_length(self):
        # a cycle word exactly max_len long is enumerated, so it is expected too
        for a in corpus():
            s = pspec_summary(a, 1)
            for max_len in range(1, max(map(len, s.cycle_words), default=0) + 2):
                assert pspec_summary(a, max_len).cross_check_ok, (a.rows, max_len)

    @pytest.mark.parametrize("rows", [A1_ROWS, A2_ROWS, [[1, 1], [1, 1]]])
    def test_enumeration_missing_a_class_fails_the_cross_check(self, monkeypatch, rows):
        enumerate_all = words.enumerate_cyclic_classes

        def drop_last_primitive(a, max_len):
            found = enumerate_all(a, max_len)
            last = max(k for k, (_, periodic) in enumerate(found) if not periodic)
            return found[:last] + found[last + 1 :]

        monkeypatch.setattr(words, "enumerate_cyclic_classes", drop_last_primitive)
        assert not pspec_summary(validate_matrix(rows), 6).cross_check_ok


class TestClosedFormsForA1:
    def test_cyclic_words_are_constant(self):
        # over A1 the cyclically admissible words are exactly (1)^n and (2)^n
        for k in range(1, 7):
            got = brute_cyclic_words(A1, k)
            assert sorted(got) == [(1,) * k, (2,) * k]

    def test_every_tail_meets_a_constant_class(self):
        # admissible tails over A1 all share a tail with (1)^oo or (2)^oo
        constants = [TailWord((), (1,)), TailWord((), (2,))]
        for pre_len in range(0, 4):
            for pre in itertools.product((1, 2), repeat=pre_len):
                for per_len in (1, 2):
                    for per in itertools.product((1, 2), repeat=per_len):
                        t = TailWord(pre, per)
                        if not words.tail_is_admissible(A1, t):
                            continue
                        hits = [
                            c for c in constants if words_equivalent_infinite(A1, t, c)
                        ]
                        assert len(hits) == 1


class TestLiterals:
    def test_word_round_trip(self):
        for w in [(), (1,), (1, 2, 1), (3, 3)]:
            assert parse_word(format_word(w)) == w
        assert format_word(()) == "0"
        assert parse_word("") == ()

    def test_wide_alphabet_uses_commas(self):
        w = (1, 10, 2)
        assert format_word(w) == "1,10,2"
        assert parse_word("1,10,2") == w

    def test_every_word_over_twelve_symbols_round_trips(self):
        for length in (1, 2, 3):
            for w in itertools.product(range(1, 13), repeat=length):
                text = format_word(w)
                assert parse_word(text) == w, (w, text)
                if max(w) <= 9:
                    assert text == "".join(map(str, w))
        assert format_word((11,)) == "11," and parse_word("11") == (1, 1)
        with pytest.raises(WordError):
            parse_word(",")

    def test_tail_round_trip(self):
        for t in [TailWord((), (1, 2)), TailWord((1,), (2,))]:
            assert parse_tail(format_tail(t)) == t
        assert format_tail(TailWord((), (2,))) == "|(2)"
        assert parse_tail("1|(2)") == TailWord((1,), (2,))
        with pytest.raises(WordError, match="missing '[|]'"):
            parse_tail("12")
