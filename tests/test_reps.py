import cmath
import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    A1_ROWS,
    A3_ROWS,
    A4_ROWS,
    NAIVE1_ROWS,
    OracleRootSum,
    brute_cyclic_words,
    brute_is_periodic,
    brute_min_rotation,
    checked_standard,
    corpus,
    full_matrix,
    oracle_apply_word,
    oracle_find_components,
    oracle_fixed_point_multiplicities,
    oracle_inner_product,
    oracle_vectors_equal,
    random_matrices,
)
from ckrep import reps
from ckrep.branching import (
    BranchingSystem,
    InvalidSystemError,
    Violation,
    build_chain_system,
    build_cycle_system,
    direct_sum,
    dump_bfs,
    find_components,
    load_bfs,
    shift_bfs,
    standard_bfs,
    truncated_from_rules,
    validate_bfs,
)
from ckrep.phases import ONE, Phase, PhaseError, RootSum
from ckrep.readback import UnresolvedEntry
from ckrep.realization import (
    GPReport,
    PhaseOffDomainError,
    PhaseUnsupportedError,
    UnresolvedComponentError,
    apply_word,
    classify_component,
    inner_product,
    realize,
    state_value,
)
from ckrep.reps import (
    Decomposition,
    FiniteClass,
    INFINITY,
    IntegralClass,
    OpaqueTailClass,
    RepError,
    TailClass,
    UndecidableEquivalenceError,
    class_literal,
    cross_check_standard,
    decompose,
    decompose_shift,
    decompose_standard,
    decomposition_json,
    equivalent,
    expand_irreducible,
    finite_class,
    gp_vector_check,
    integral_class,
    is_irreducible,
    parse_class_literal,
    tail_class,
    twist_by_gauge,
)
from ckrep.words import (
    EmptyWordError,
    SymbolOutOfRangeError,
    TailWord,
    canonical_rotation,
    format_word,
    is_periodic,
    power,
    validate_matrix,
)

A1 = validate_matrix(A1_ROWS)
A3 = validate_matrix(A3_ROWS)
A4 = validate_matrix(A4_ROWS)
FULL2 = full_matrix(2)


def entries_by_literal(d: Decomposition) -> dict[str, object]:
    return {class_literal(c): m for c, m in d.entries.items()}


class TestRealize:
    def test_default_weights_are_one(self):
        m = realize(standard_bfs(FULL2, 16))
        assert all(w.is_one() for per in m.weights.values() for w in per.values())
        assert m.system.maps[1][1] == 1  # s_1 e_1 = e_1

    def test_phase_twist_applies(self):
        f = build_cycle_system(FULL2, (1,), 2)
        m = realize(f, {(1, "1"): Phase.exact(1, 2)})
        x = f.position["1"]
        assert m.exponents[0] == 2 and apply_word(m, (1,), {x: 0}) == {x: 1}  # zeta_2 e_1

    def test_phase_off_domain(self):
        f = build_cycle_system(A1, (1,), 2)
        with pytest.raises(PhaseOffDomainError):
            realize(f, {(2, "1"): Phase.exact(1, 2)})

    def test_approximate_twist_decomposes_but_has_no_exact_vectors(self):
        f = build_cycle_system(FULL2, (1,), 2)
        z = Phase.from_complex(cmath.exp(0.3j))
        d = decompose(f, {(1, "1"): z})
        assert list(d.entries) == [FiniteClass((1,), z)] and not d.unresolved
        m = realize(f, {(1, "1"): z})
        x = f.position["1"]
        for use in (
            lambda: m.exponents,
            lambda: apply_word(m, (1,), {x: 0}),
            lambda: inner_product(m, {x: 0}, {x: 0}),
        ):
            with pytest.raises(PhaseError):
                use()

    def test_vectors_need_injective_maps(self):
        # a map that is not injective is refused before any vector is built
        with pytest.raises(InvalidSystemError, match=re.escape("symbol 1 maps 'x' and 'y' to 'y'")):
            BranchingSystem(A1, ("x", "y"), {1: {"x": "y", "y": "y"}}, frozenset())

    def test_letters_outside_the_alphabet_are_refused(self):
        f = build_cycle_system(FULL2, (2,), 1)
        m = realize(f)
        x = f.position["2"]
        assert apply_word(m, (), {x: 0}) == {x: 0}
        for word in ((0,), (3,), (1, 0), (3, 2), (-1,)):
            with pytest.raises(RepError, match="outside 1..2"):
                apply_word(m, word, {x: 0})


class TestCKRelations:
    """Both defining relations, as `validate_bfs` checks them on the basis."""

    def test_corpus_is_exactly_relational(self):
        for a in corpus():
            systems = [standard_bfs(a, 128), shift_bfs(a, 5)]
            for k in (1, 2, 3):
                for w in brute_cyclic_words(a, k)[:3]:
                    systems.append(build_cycle_system(a, w, 3))
            for f in systems:
                report = validate_bfs(f)
                assert report.ok, (a.rows, f.labels[:3], report.violations[:2])
                assert report.checked_points > 0

    def test_deleted_edge_breaks_completeness(self):
        g = standard_bfs(A3, 60)
        maps = {i: dict(g.maps[i]) for i in (1, 2, 3)}
        lost = maps[1].pop(sorted(maps[1])[0])
        f = BranchingSystem(matrix=A3, carrier=g.carrier, maps=maps, frontier=g.frontier)
        report = validate_bfs(f)
        assert ("NotCovered", (), (lost,), "") in report.violations

    def test_frontier_overlap_breaks_the_relations(self):
        # Two ranges meet only at the frontier point 31: s_1 s_1^* + s_2 s_2^*
        # gives 2 e_31 however the truncation continues, so the relations
        # fail.  That is why no system may hold two edges into one point.
        g = standard_bfs(A3, 60)
        maps = {i: dict(g.maps[i]) for i in (1, 2, 3)}
        assert 31 in g.frontier and 31 in maps[1].values() and 60 in g.frontier
        maps[2][60] = 31
        with pytest.raises(InvalidSystemError, match=re.escape("point 31 lies in two ranges: 1 and 2")):
            BranchingSystem(matrix=A3, carrier=g.carrier, maps=maps, frontier=g.frontier)

    def test_chain_systems_pass(self):
        f = build_chain_system(A1, TailWord((), (2,)), 8, 3)
        assert validate_bfs(f).ok


class TestClassify:
    def test_naive_example_p13(self):
        n1 = validate_matrix(NAIVE1_ROWS)
        f = truncated_from_rules(
            n1,
            64,
            [
                (lambda x: x % 4 == 2, lambda x: x - 1),
                (lambda x: x % 4 in (1, 2), lambda x: x + 3 if x % 4 == 1 else x + 1),
                (lambda x: True, lambda x: 4 * (x - 1) + 2),
            ],
        )
        d = decompose(f)
        assert entries_by_literal(d) == {"P(13)": 1} and not d.unresolved

    def test_cycle_with_phase_reads_off(self):
        f = build_cycle_system(FULL2, (1,), 2)
        m = realize(f, {(1, "1"): Phase.exact(1, 2)})
        comp = [c for c in find_components(f) if c.kind == "cycle"][0]
        got = classify_component(comp, m)
        assert got == FiniteClass((1,), Phase.exact(1, 2))

    def test_phase_is_rotation_invariant(self):
        # twist a non-wrap edge instead; the class phase is the edge product
        f = build_cycle_system(A3, (1, 2), 2)
        m = realize(f, {(1, "2"): Phase.exact(1, 3)})
        comp = [c for c in find_components(f) if c.kind == "cycle"][0]
        assert classify_component(comp, m) == FiniteClass((1, 2), Phase.exact(1, 3))

    def test_chain_classifies_to_canonical_tail(self):
        f = build_chain_system(A1, TailWord((1,), (2,)), 6, 2)
        m = realize(f)
        comp = [c for c in find_components(f) if c.kind == "chain"][0]
        assert classify_component(comp, m) == TailClass(TailWord((), (2,)))

    def test_generator_chain_is_opaque(self):
        gen = lambda m: 2 - (m % 2)  # noqa: E731
        f = build_chain_system(FULL2, gen, 6, 1)
        comp = [c for c in find_components(f) if c.kind == "chain"][0]
        got = classify_component(comp, realize(f))
        assert isinstance(got, OpaqueTailClass) and got.source is gen

    def test_unresolved_component_raises(self):
        # a reloaded chain has lost its declared tail, so it is unresolved
        from ckrep.branching import dump_bfs, load_bfs

        f = load_bfs(dump_bfs(build_chain_system(A1, TailWord((), (2,)), 5, 2)), A1)
        (comp,) = find_components(f)
        assert comp.kind == "unresolved"
        with pytest.raises(UnresolvedComponentError, match="is not resolved inside"):
            classify_component(comp, realize(f))


class TestDecompose:
    def test_standard_a4(self):
        assert entries_by_literal(decompose(standard_bfs(A4, 81))) == {"P(1)": 1, "P(2)": 1}

    def test_standard_a1_counts_and_the_structure_says_inf(self):
        # `decompose` counts the components the truncation holds, however
        # the system was made; only `decompose_standard` says inf
        d = decompose(standard_bfs(A1, 64))
        assert entries_by_literal(d) == {"P(1)": 1, "P(2)": 16}
        assert entries_by_literal(decompose_standard(A1)) == {"P(1)": 1, "P(2)": INFINITY}
        summed = decompose(direct_sum(standard_bfs(A1, 64), standard_bfs(A1, 64)))
        assert entries_by_literal(summed) == {"P(1)": 2, "P(2)": 32}

    def test_repeated_once_cycles_are_counted(self):
        # two copies of the A4 system report P(1) twice, and one depth-2
        # cycle carrier of P(2) over A1 reports P(2) once
        f = direct_sum(standard_bfs(A4, 81), standard_bfs(A4, 81))
        cycle = build_cycle_system(A1, (2,), 2)
        assert entries_by_literal(decompose(f)) == {"P(1)": 2, "P(2)": 2}
        assert entries_by_literal(decompose(cycle)) == {"P(2)": 1}

    def test_direct_sum_doubles(self):
        f = build_cycle_system(A3, (1, 2), 2)
        d = decompose(direct_sum(f, f))
        assert entries_by_literal(d) == {"P(12)": 2}

    def test_classification_construction_round_trip(self):
        for a in corpus():
            for k in range(1, 5):
                for w in brute_cyclic_words(a, k):
                    if is_periodic(w):
                        continue
                    d = decompose(build_cycle_system(a, w, 3))
                    assert d.entries == {finite_class(w): 1}, (a.rows, w)
                    assert not d.unresolved


class TestExpand:
    def test_power_of_one_letter(self):
        d = Decomposition(entries={finite_class((1, 1)): 1})
        got = expand_irreducible(d)
        assert got.entries == {
            FiniteClass((1,), ONE): 1,
            FiniteClass((1,), Phase.exact(1, 2)): 1,
        }
        assert got.level == "irreducible"

    def test_non_periodic_untouched(self):
        d = Decomposition(entries={finite_class((1, 2)): 1})
        assert expand_irreducible(d).entries == {finite_class((1, 2)): 1}

    def test_tail_becomes_integral(self):
        d = Decomposition(entries={tail_class(TailWord((), (2,)), A1): 1})
        assert expand_irreducible(d).entries == {IntegralClass((2,)): 1}

    def test_phase_roots_spread(self):
        c = finite_class(power((1, 2), 2), Phase.exact(1, 2))  # P((12)^2; -1)
        got = expand_irreducible(Decomposition(entries={c: 1}))
        assert got.entries == {
            FiniteClass((1, 2), Phase.exact(1, 4) * Phase.exact(1, 2)): 1,
            FiniteClass((1, 2), Phase.exact(1, 4)): 1,
        }

    def test_idempotent_and_mass_preserving(self):
        rng = random.Random(3)
        d = Decomposition()
        for _ in range(30):
            k = rng.randint(1, 3)
            p = rng.randint(1, 3)
            w = tuple(rng.randint(1, 3) for _ in range(k))
            d.add(finite_class(power(w, p)), rng.randint(1, 3))
        mass = sum(len(c.word) * m for c, m in d.entries.items())
        once = expand_irreducible(d)
        assert sum(len(c.word) * m for c, m in once.entries.items()) == mass
        assert all(is_irreducible(c) for c in once.entries)
        twice = expand_irreducible(once)
        assert twice.entries == once.entries


class TestIrreducibility:
    def test_cases(self):
        assert is_irreducible(FiniteClass((1, 2), Phase.exact(1, 3)))
        assert not is_irreducible(finite_class((1, 2, 1, 2)))
        assert not is_irreducible(tail_class(TailWord((), (1, 2))))
        assert not is_irreducible(IntegralClass((1, 2)))
        assert is_irreducible(OpaqueTailClass((1, 2), lambda m: 1))

    def test_integral_classes_need_admissible_non_periodic_words(self):
        with pytest.raises(RepError, match="21 is not cyclically admissible"):
            integral_class((2, 1), A1)
        with pytest.raises(RepError, match="non-periodic words only"):
            parse_class_literal("Int(1212)")


class TestEquivalence:
    def test_examples(self):
        z = Phase.exact(1, 3)
        assert equivalent(FiniteClass(canonical_rotation((1, 2)), z),
                          finite_class((2, 1), z))
        assert not equivalent(FiniteClass((1,), ONE), FiniteClass((1,), Phase.exact(1, 2)))
        assert not equivalent(finite_class((1,)), tail_class(TailWord((), (1,))))
        assert equivalent(tail_class(TailWord((1,), (2,))), tail_class(TailWord((), (2,))))
        assert equivalent(integral_class((1, 2)), integral_class((2, 1)))
        assert not equivalent(integral_class((1, 2)), finite_class((1, 2)))

    def test_opaque_generators(self):
        gen1 = lambda m: 1  # noqa: E731
        gen2 = lambda m: 1  # noqa: E731
        c1 = OpaqueTailClass((1,), gen1)
        c2 = OpaqueTailClass((1, 1), gen1)
        assert equivalent(c1, c2)  # same generator, shifted prefix
        with pytest.raises(UndecidableEquivalenceError):
            equivalent(c1, OpaqueTailClass((1,), gen2))
        # as keys, opaque classes are one class per generator object
        assert c1 == c2 and hash(c1) == hash(c2)
        assert c1 != OpaqueTailClass((1,), gen2) and c1 != finite_class((1,))

    def test_matches_canonical_keys_on_random_pairs(self):
        rng = random.Random(17)
        pool = []
        for _ in range(80):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            phase = Phase.exact(rng.randint(0, 5), 6)
            pool.append(finite_class(w, phase))
            pool.append(tail_class(TailWord((), w)))
            if not is_periodic(w):
                pool.append(integral_class(w))
        for _ in range(1000):
            c1, c2 = rng.choice(pool), rng.choice(pool)
            assert equivalent(c1, c1)
            assert equivalent(c1, c2) == equivalent(c2, c1)
            assert equivalent(c1, c2) == (c1 == c2)  # canonical keys decide


class TestGauge:
    def test_example_product(self):
        c = finite_class((1, 2))
        out = twist_by_gauge(c, (Phase.exact(1, 4), Phase.exact(1, 4)))
        assert out == FiniteClass((1, 2), Phase.exact(1, 2))

    def test_identity_gauge(self):
        c = finite_class((1, 2), Phase.exact(1, 3))
        assert twist_by_gauge(c, (ONE, ONE)) == c

    def test_tail_unchanged(self):
        c = tail_class(TailWord((), (2,)))
        assert twist_by_gauge(c, (Phase.exact(1, 4), Phase.exact(1, 4))) == c

    def test_integral_unsupported(self):
        from ckrep.reps import IntegralClassUnsupportedError

        with pytest.raises(IntegralClassUnsupportedError):
            twist_by_gauge(integral_class((1, 2)), (ONE, ONE))

    def test_gauge_too_short_is_a_rep_error(self):
        # a finite class needs a phase for each symbol of its word; a tail needs none
        with pytest.raises(RepError, match="^gauge too short for word 13$"):
            twist_by_gauge(finite_class((1, 3)), (ONE,))
        with pytest.raises(RepError, match="^gauge too short for word 1,10$"):
            twist_by_gauge(finite_class((1, 10)), (ONE,) * 9)
        assert twist_by_gauge(finite_class((1, 3)), (ONE,) * 3) == finite_class((1, 3))
        assert twist_by_gauge(tail_class(TailWord((), (3,))), ()) == tail_class(TailWord((), (3,)))

    def test_constant_gauge_is_the_circle_action(self):
        # a constant gauge z multiplies the class phase by z^|word|
        z = Phase.exact(1, 5)
        for w, start in [((1, 2), ONE), ((1, 2, 2), Phase.exact(1, 3))]:
            c = finite_class(w, start)
            out = twist_by_gauge(c, (z, z, z))
            assert out == FiniteClass(c.word, start * Phase.exact(len(w), 5))

    def test_conjugate_gauge_inverts(self):
        rng = random.Random(23)
        for _ in range(50):
            w = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            c = finite_class(w, Phase.exact(rng.randint(0, 11), 12))
            g = tuple(Phase.exact(rng.randint(0, 7), 8) for _ in range(3))
            back = twist_by_gauge(twist_by_gauge(c, g), tuple(p.conjugate() for p in g))
            assert back == c
            assert twist_by_gauge(c, g).word == c.word


@lru_cache(maxsize=4)
def label_owner(f):
    """y -> (i, x) for each recorded edge f_i(x) = y, read from the maps."""
    return {y: (i, x) for i, edges in f.maps.items() for x, y in edges.items()}


def model_state(f, omega, left, right):
    """<e_omega, s_left s_right^* e_omega> in a unit-weight model, by
    walking the recorded edges; independent of the library operators."""
    owner = label_owner(f)
    cur = omega
    for i in right:
        if owner.get(cur, (None,))[0] != i:
            return 0
        cur = owner[cur][1]
    for i in reversed(left):
        cur = f.maps.get(i, {}).get(cur)
        if cur is None:
            return 0
    return 1 if cur == omega else 0


class TestStates:
    def test_cycle_examples(self):
        c = finite_class((1, 2), matrix=A3)
        assert state_value(A3, c, (1,), (1,)) == 1
        assert state_value(A3, c, (2,), (2,)) == 0
        assert state_value(A3, c, (), ()) == 1
        assert state_value(A3, c, (1, 2), ()) == 1  # J and the unit share I_0
        assert state_value(A3, c, (1,), (1, 2, 1)) == 1  # both in I_1
        assert state_value(A3, c, (2, 1), (2,)) == 0  # (2,1) lies in no I_p

    def test_inadmissible_word_gives_zero(self):
        c = finite_class((1,), matrix=A1)
        assert state_value(A1, c, (2, 1), (2, 1)) == 0

    @pytest.mark.parametrize(
        "c", [finite_class((1, 2), matrix=A3), tail_class(TailWord((), (1, 2)), A3)],
        ids=["cycle", "chain"],
    )
    @pytest.mark.parametrize("left, right", [((4,), ()), ((), (1, 4)), ((0,), (0,))])
    def test_letters_outside_the_alphabet_are_refused(self, c, left, right):
        # the formula reads neither letter, so it would answer 0 for both words
        with pytest.raises(SymbolOutOfRangeError, match=r"symbol [04] outside 1\.\.3"):
            state_value(A3, c, left, right)

    def test_phase_refused(self):
        c = FiniteClass((1, 2), Phase.exact(1, 2))
        with pytest.raises(PhaseUnsupportedError):
            state_value(A3, c, (1,), (1,))

    def test_integral_refused(self):
        with pytest.raises(RepError, match="cycle and tail classes only"):
            state_value(A3, integral_class((1, 2, 3)), (1,), (1,))

    def test_chain_examples(self):
        c = tail_class(TailWord((), (2,)), A1)
        assert state_value(A1, c, (2, 2), (2, 2)) == 1
        assert state_value(A1, c, (2,), (2, 2)) == 0
        assert state_value(A1, c, (), ()) == 1
        assert state_value(A1, c, (1,), (1,)) == 0

    def test_cycle_state_matches_model(self):
        for a, word in [(A3, (1, 2)), (A1, (1,)), (FULL2, (1, 2))]:
            c = finite_class(word, matrix=a)
            f = build_cycle_system(a, word, 6)
            omega = format_word(word)
            lens = range(0, 5)
            wordsets = [w for L in lens for w in itertools.product(range(1, a.n + 1), repeat=L)]
            for left in wordsets:
                for right in wordsets:
                    assert state_value(a, c, left, right) == model_state(f, omega, left, right)

    def test_chain_state_matches_model(self):
        for a, tail in [(A1, TailWord((), (2,))), (FULL2, TailWord((), (1, 2)))]:
            c = tail_class(tail, a)
            f = build_chain_system(a, c.tail, 8, 4)
            wordsets = [
                w for L in range(0, 5) for w in itertools.product(range(1, a.n + 1), repeat=L)
            ]
            for left in wordsets:
                for right in wordsets:
                    assert state_value(a, c, left, right) == model_state(f, 1, left, right)


def _primitive_cycle_words(a, max_len=3):
    return [w for k in range(1, max_len + 1) for w in brute_cyclic_words(a, k) if not is_periodic(w)]


VECTOR_MATRICES = [(a, _primitive_cycle_words(a)) for a in corpus()[:11]]
DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 12)


@st.composite
def twisted_realizations(draw):
    """A cycle carrier, or a direct sum of two to four, with exact twists
    of mixed denominators on random edges of every symbol; returns the
    realization, the summands' cycle words and their anchor points.  In
    a split sum, as in `gp_vector_check`, p copies of one cycle carry the
    wrap twists j/p and the random twists stay off the cycles."""
    a, words = draw(st.sampled_from(VECTOR_MATRICES))
    split = draw(st.booleans())
    if split:
        cycles = [draw(st.sampled_from(words))] * draw(st.integers(2, 4))
    else:
        cycles = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
    parts = [build_cycle_system(a, w, draw(st.integers(0, 2))) for w in cycles]
    f = parts[0] if len(parts) == 1 else direct_sum(*parts)
    offsets = list(itertools.accumulate((len(g.labels) for g in parts[:-1]), initial=0))
    on_cycle = {o + l for o, w in zip(offsets, cycles) for l in range(len(w))}
    edges = [
        (i, x)
        for i, img in enumerate(f.images, start=1)
        for x, y in enumerate(img)
        if y >= 0 and not (split and x in on_cycle)
    ]
    chosen = draw(st.lists(st.sampled_from(edges), unique=True, max_size=8)) if edges else []
    phases = {}
    for i, x in chosen:
        den = draw(st.sampled_from(DENOMINATORS))
        phases[(i, f.labels[x])] = Phase.exact(draw(st.integers(0, den - 1)), den)
    if split:
        for j, o in enumerate(offsets, start=1):
            phases[(cycles[0][-1], f.labels[o])] = Phase.exact(j, len(cycles))
    return realize(f, phases), cycles, offsets


def as_oracle(m, vec):
    """The monomial vector {x: e} as labels with OracleRootSum
    coefficients; every exponent must already be reduced mod N."""
    order = m.exponents[0]
    assert all(0 <= e < order for e in vec.values()), (order, vec)
    return {m.system.labels[x]: OracleRootSum({Fraction(e, order): 1}) for x, e in vec.items()}


def as_oracle_sum(r: RootSum) -> OracleRootSum:
    """The library's root sum as the oracle's, term by term."""
    return OracleRootSum({Fraction(k, r.order): c for k, c in r._terms.items()})


class TestMonomialVectors:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(twisted_realizations(), st.data())
    def test_against_the_rootsum_oracle(self, realized, data):
        m, cycles, anchors = realized
        f, order = m.system, m.exponents[0]
        letters = st.integers(1, f.n)
        words = [data.draw(st.lists(letters, max_size=6).map(tuple)) for _ in range(3)]
        words += [power(cycles[0], r) for r in (1, 2, order)]

        # s_w e_x for every basis vector
        for w in words:
            for x in range(len(f.labels)):
                got = apply_word(m, w, {x: 0})
                want = oracle_apply_word(m, w, {f.labels[x]: OracleRootSum.one()})
                assert set(as_oracle(m, got)) == set(want)
                assert oracle_vectors_equal(as_oracle(m, got), want), (w, x)

        # inner products and fixed-point verdicts on vectors through the anchors
        exps = data.draw(st.lists(st.integers(0, 23), min_size=len(anchors), max_size=len(anchors)))
        omega = {x: e % order for x, e in zip(anchors, exps)}
        word, p = cycles[0], len(cycles)
        orbit = [word[l:] + power(word, r) for l in range(len(word)) for r in range(p)]
        pool = [omega] + [apply_word(m, w, omega) for w in words + orbit]
        for v in pool:
            for w in pool:
                got = inner_product(m, v, w)
                want = oracle_inner_product(as_oracle(m, v), as_oracle(m, w))
                assert as_oracle_sum(got) == want and got.is_zero() == want.is_zero()
        for w in words:
            moved = oracle_apply_word(m, w, as_oracle(m, omega))
            assert (apply_word(m, w, omega) == omega) == oracle_vectors_equal(moved, as_oracle(m, omega))

    def test_two_copies_of_p1(self):
        # the wrap twist 1/2 on one of two copies of P(1): <omega, s_1 omega> = 1 - 1
        f = direct_sum(*[build_cycle_system(FULL2, (1,), 1)] * 2)
        m = realize(f, {(1, "1:1"): Phase.exact(1, 2)})
        omega = {f.position["0:1"]: 0, f.position["1:1"]: 0}
        assert inner_product(m, omega, apply_word(m, (1,), omega)).is_zero()
        assert not inner_product(m, omega, omega).is_zero()
        assert apply_word(m, (1, 1), omega) == omega != apply_word(m, (1,), omega)


class TestGPCheck:
    def test_full_matrix_p2(self):
        report = gp_vector_check(FULL2, (1,), 2)
        assert report.ok and report.family_size == 2

    def test_degenerate_p1(self):
        assert gp_vector_check(A3, (1, 2), 1).ok

    def test_a3_kp6(self):
        report = gp_vector_check(A3, (1, 2), 3)
        assert report.ok and report.family_size == 6

    def test_periodic_word_rejected(self):
        with pytest.raises(RepError):
            gp_vector_check(FULL2, (1, 1), 2)

    def test_wrong_twist_fails(self, monkeypatch):
        # twists j/(p+1) in place of j/p: s_{word^p} no longer fixes omega,
        # and partial orbits of one point no longer cancel
        class WrongPhase(Phase):
            @staticmethod
            def exact(num, den=1):
                return Phase.exact(num, den + 1)

        monkeypatch.setattr(reps, "Phase", WrongPhase)
        for a, word, p in [(FULL2, (1,), 2), (A3, (1, 2), 3)]:
            report = gp_vector_check(a, word, p, depth=1)
            assert not report.fixed_point_ok and not report.orthonormal_ok, (word, p)
            assert not report.ok

    def test_ok_needs_every_check(self):
        assert GPReport((1,), 2, True, True, 2, True).ok
        for k in range(3):
            checks = [True, True, True]
            checks[k] = False
            fixed, ortho, matches = checks
            assert not GPReport((1,), 2, fixed, ortho, 2, matches).ok, k


class TestStandardReports:
    M2_TABLE = {
        ((1, 1), (1, 1)): {"P(1)": 1},
        ((1, 1), (1, 0)): {"P(1)": 1},
        ((0, 1), (1, 1)): {"P(12)": 1},
        ((1, 0), (1, 1)): {"P(1)": INFINITY},
        ((1, 1), (0, 1)): {"P(1)": 1, "P(2)": INFINITY},
        ((1, 0), (0, 1)): {"P(1)": INFINITY, "P(2)": INFINITY},
        ((0, 1), (1, 0)): {"P(12)": INFINITY},
    }

    def test_m2_table_with_cross_check(self):
        for rows, want in self.M2_TABLE.items():
            a = validate_matrix([list(r) for r in rows])
            d = checked_standard(a, 128)
            assert entries_by_literal(d) == want, rows

    def test_3x3_and_4x4(self):
        assert entries_by_literal(checked_standard(A3, 81)) == {"P(12)": 1}
        assert entries_by_literal(checked_standard(A4, 81)) == {"P(1)": 1, "P(2)": 1}

    def test_verdicts(self):
        # multiplicity free iff no class is inf; irreducible iff one class, once
        y = validate_matrix([[1, 0], [1, 1]])
        for a, free, irreducible in ((A3, True, True), (A4, True, False), (y, False, False)):
            mults = list(decompose_standard(a).entries.values())
            assert (INFINITY not in mults) == free, a.rows
            assert (mults == [1]) == irreducible, a.rows

    def test_cross_check_failure_raises(self):
        # bound too small to see the once-cycle resolved
        with pytest.raises(RepError):
            checked_standard(A3, 3)

    def test_cross_check_failure_names_the_differences(self):
        # too small a truncation misses a cycle; the error says which one
        with pytest.raises(RepError, match=r": P\(12\) structural 1, observed 0$"):
            checked_standard(A3, 3)
        with pytest.raises(RepError, match=r"at 2 .*: P\(2\) structural inf, observed 0$"):
            checked_standard(A1, 2)


    def test_a_dump_round_trip_keeps_every_count(self):
        # `decompose` counts what a system holds, however it was made, so
        # a standard system read back from its dump decomposes alike:
        # 11/01 at 64 gives P(2)^(16) both ways
        for a in corpus() + random_matrices(4, 20, seed=7):
            for bound in (64, 300):
                f = standard_bfs(a, bound)
                d, loaded = decompose(f), decompose(load_bfs(dump_bfs(f), a))
                assert loaded.entries == d.entries, (a.rows, bound)
                pairs = [[(c.word, c.size) for c in e.unresolved] for e in (d, loaded)]
                assert pairs[0] == pairs[1], (a.rows, bound)

    def test_a_label_level_rebuild_passes_the_cross_check(self):
        for a in corpus() + random_matrices(4, 20, seed=7):
            for bound in (64, 300):
                f = standard_bfs(a, bound)
                rebuilt = BranchingSystem(f.matrix, f.carrier, f.maps, f.frontier)
                cross_check_standard(decompose_standard(a), rebuilt)


def counted_primitive(d: Decomposition) -> Counter:
    """The primitive finite classes of `d`, keyed as
    `oracle_fixed_point_multiplicities` keys them."""
    return Counter(
        {
            (c.word, Fraction(*c.phase.pair)): m
            for c, m in d.entries.items()
            if isinstance(c, FiniteClass) and not is_periodic(c.word)
        }
    )


class TestFixedPointOracle:
    def test_every_count_is_a_number_of_fixed_points(self):
        # both ways: each primitive class `decompose` reports has as many
        # copies as f_w has fixed loops, and each such loop is reported;
        # untwisted, and with exact twists on about half of the edges
        rng = random.Random(23)
        for a in corpus() + random_matrices(4, 20, seed=7):
            systems = [standard_bfs(a, 64), standard_bfs(a, 300), shift_bfs(a, 6)]
            for w in _primitive_cycle_words(a)[:3]:
                systems.append(build_cycle_system(a, w, 2))
                systems.append(build_chain_system(a, TailWord((), w), 5, 2))
            systems += [load_bfs(dump_bfs(g), a) for g in systems[:4]]
            systems.append(direct_sum(systems[3], systems[3]))
            for f in systems:
                edges = [(i, x) for i, m in f.maps.items() for x in m if rng.random() < 0.5]
                twists = {e: Phase.exact(rng.randrange(6), 6) for e in edges}
                for phases in (None, twists):
                    got = counted_primitive(decompose(f, phases))
                    assert got == oracle_fixed_point_multiplicities(f, phases), (a.rows, f.labels[:3])


class TestShiftReports:
    def test_period_bound_must_be_positive(self):
        with pytest.raises(RepError, match="max_period must be >= 1"):
            decompose_shift(A1, 0)

    def test_a1(self):
        d = decompose_shift(A1, 4)
        assert entries_by_literal(d) == {"P(1)": 1, "P(2)": 1}
        assert d.tail_marker is False

    def test_full(self):
        d = decompose_shift(FULL2, 2)
        assert entries_by_literal(d) == {"P(1)": 1, "P(2)": 1, "P(12)": 1}
        assert d.tail_marker is True

    def test_multiplicity_free(self):
        for a in corpus():
            d = decompose_shift(a, 5)
            assert all(m == 1 for m in d.entries.values())

    def test_symbolic_report_matches_truncated_system(self):
        # dual route: every class the symbolic report lists up to period 3
        # must appear exactly once among the cycles of the width-6 stand-in
        for a in corpus()[:6]:
            symbolic = decompose_shift(a, 3)
            observed = decompose(shift_bfs(a, 6))
            for cls in symbolic.entries:
                assert observed.entries.get(cls) == 1, (a.rows, cls)


class TestShiftStandIn:
    def test_finds_each_short_primitive_class_once_and_only_genuine_ones(self):
        # the claim of `shift_bfs`: each primitive class of length <= L/2
        # is a cycle of the stand-in exactly once, and every cycle it has
        # is a primitive class of A
        for a in corpus() + random_matrices(4, 10, seed=7):
            for width in (4, 6, 8):
                found = decompose(shift_bfs(a, width)).entries
                short = {
                    brute_min_rotation(w, a.n)
                    for k in range(1, width // 2 + 1)
                    for w in brute_cyclic_words(a, k)
                    if not brute_is_periodic(w)
                }
                for w in short:
                    assert found.get(FiniteClass(w)) == 1, (a.rows, width, w)
                for c, mult in found.items():
                    w = c.word
                    assert isinstance(c, FiniteClass) and c.phase.is_one() and mult == 1
                    assert all(a.entry(x, y) for x, y in zip(w, w[1:] + w[:1])), w
                    assert not brute_is_periodic(w) and brute_min_rotation(w, a.n) == w


class TestDumpedChains:
    def test_reloaded_chain_is_honestly_unresolved(self):
        # the dump format carries no tail declaration, so a reloaded chain
        # may not be classified as one
        from ckrep.branching import dump_bfs, load_bfs

        f = build_chain_system(A1, TailWord((), (2,)), 5, 2)
        g = load_bfs(dump_bfs(f), A1)
        d = decompose(g)
        assert not d.entries
        assert len(d.unresolved) == 1
        # the observed prefix is some backward-orbit segment ending in the tail
        assert d.unresolved[0].word[-3:] == (2, 2, 2)
        payload = decomposition_json(d)
        assert payload["components"] == []
        assert payload["unresolved"] == [
            {"prefix": "12222", "size": len(g.carrier)}
        ]

    def test_unresolved_sizes_are_the_basin_lengths(self):
        # two reloaded chains of different sizes: the JSON report is the one
        # library reader of an orbit's size
        from ckrep.branching import dump_bfs, load_bfs

        f = direct_sum(
            build_chain_system(A1, TailWord((), (2,)), 5, 2),
            build_chain_system(A1, TailWord((1,), (2,)), 3, 1),
        )
        g = load_bfs(dump_bfs(f), A1)
        sizes = [c["size"] for c in decomposition_json(decompose(g))["unresolved"]]
        want = [c.size for c in oracle_find_components(g) if c.kind == "unresolved"]
        assert sizes == want and len(set(want)) == 2


class TestJsonSchema:
    def test_shape(self):
        d = decompose_standard(A1)
        payload = decomposition_json(d)
        assert payload["matrix"] == [[1, 1], [0, 1]]
        assert payload["level"] == "cyclic"
        assert payload["unresolved"] == []
        kinds = [(c["kind"], c["word"], c["multiplicity"]) for c in payload["components"]]
        assert kinds == [("finite", "1", 1), ("finite", "2", "inf")]
        assert payload["components"][0]["phase"] == {"num": 0, "den": 1}

    def test_literal_round_trip(self):
        for c in [
            finite_class((1, 2)),
            FiniteClass((1, 2), Phase.exact(2, 3)),
            tail_class(TailWord((), (2,))),
            integral_class((1, 2)),
        ]:
            assert parse_class_literal(class_literal(c)) == c

    def test_approximate_phase_round_trips_within_tolerance(self):
        import cmath

        from ckrep.phases import phases_equal
        from ckrep.reps import phase_json

        z = Phase.from_complex(cmath.exp(0.7j))
        c = FiniteClass((1, 2), z)
        back = parse_class_literal(class_literal(c))
        assert back.word == c.word and phases_equal(back.phase, z, tol=1e-9)
        payload = phase_json(z)
        assert set(payload) == {"re", "im"}
        assert abs(complex(payload["re"], payload["im"]) - z.as_complex()) < 1e-12

    def test_phase_json_round_trip(self):
        import cmath

        from ckrep.phases import phases_equal
        from ckrep.readback import phase_from_json
        from ckrep.reps import phase_json

        for z in [ONE, Phase.exact(2, 3), Phase.exact(5, 12), Phase.from_complex(cmath.exp(0.7j))]:
            assert phases_equal(phase_from_json(phase_json(z)), z)
        assert phase_from_json(phase_json(Phase.exact(5, 12))) == Phase.exact(5, 12)

    @pytest.mark.parametrize(
        "data",
        [{"num": 1}, {"re": 1.0}, {"num": 0.5, "den": 2}, {"num": "1", "den": 2}, 5, "x"]
        # extra keys, and an integer too large for a float
        + [{"num": 1, "den": 2, "re": 5}, {"re": 0.0, "im": 1.0, "den": 4}, {"re": 10**400, "im": 0}]
        # null, which the writer never writes: a missing phase is the reader's to default
        + [None],
    )
    def test_malformed_phase_json_is_a_rep_error(self, data):
        from ckrep.readback import phase_from_json
        from ckrep.reps import RepError

        with pytest.raises(RepError, match="bad phase"):
            phase_from_json(data)

    @pytest.mark.parametrize("text", ["x/4", "1/x", "1/", "1/2/3", "x", "x+1i", "1+yi", "1.5/2", "2i", "-1i"])
    def test_malformed_phase_literal_is_a_rep_error(self, text):
        from ckrep.reps import RepError, parse_phase

        with pytest.raises(RepError, match="bad phase literal"):
            parse_phase(text)

    def test_phase_literal_parts(self):
        from ckrep.phases import PhaseError
        from ckrep.reps import parse_phase

        assert parse_phase(" 3/4 ") == Phase.exact(3, 4)
        assert parse_phase("-1/4") == Phase.exact(3, 4)
        assert parse_phase("2") == ONE
        with pytest.raises(PhaseError, match="zero denominator"):
            parse_phase("1/0")

    def test_approximate_phase_with_one_character_real_part(self):
        from ckrep.reps import parse_phase

        assert parse_phase("1+0i") == Phase.from_complex(1 + 0j)
        assert parse_phase("0-1i") == Phase.from_complex(-1j)

    def test_tail_class_entry(self):
        d = decompose(build_chain_system(A1, TailWord((1,), (2,)), 6, 2))
        assert decomposition_json(d)["components"] == [
            {"kind": "tail", "word": "2", "multiplicity": 1}
        ]

    def test_opaque_tail_has_no_report_form(self):
        gen = lambda m: 2 - (m % 2)  # noqa: E731
        d = decompose(build_chain_system(FULL2, gen, 6, 1))
        with pytest.raises(RepError, match="opaque tail classes have no report form"):
            decomposition_json(d)


class TestIntegralUniqueness:
    def test_random_tails_collide_iff_equivalent(self):
        from ckrep.words import words_equivalent_infinite

        rng = random.Random(29)
        full3 = full_matrix(3)
        tails = []
        for _ in range(100):
            pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
            tails.append(TailWord(pre, per))
        images = {}
        for t in tails:
            d = expand_irreducible(Decomposition(entries={tail_class(t, full3): 1}))
            (cls,) = d.entries
            assert isinstance(cls, IntegralClass)
            images[t] = cls
        for t1 in tails:
            for t2 in tails:
                assert (images[t1] == images[t2]) == words_equivalent_infinite(full3, t1, t2)


class TestRecordTypes:
    """The record types are namedtuples or plain classes; these pin the
    behaviour their callers read: type-strict keys, hashes that agree
    with equality, immutable fields and the repr in error messages."""

    def test_key_types_equal_only_their_own_type(self):
        w = (1, 2)
        assert FiniteClass(w) != IntegralClass(w) and not FiniteClass(w) == IntegralClass(w)
        assert FiniteClass(w) != (w, ONE) and (w, ONE) != FiniteClass(w)
        assert not FiniteClass(w) == (w, ONE) and not (w, ONE) == FiniteClass(w)
        assert IntegralClass(w) != (w,) and TailClass(TailWord((), w)) != (TailWord((), w),)
        assert TailWord((), w) != ((), w) and Phase.exact(1, 2) != (Fraction(1, 2), None)
        assert validate_matrix(A1_ROWS) != (tuple(map(tuple, A1_ROWS)),)
        assert len({FiniteClass(w), IntegralClass(w), TailClass(TailWord((), w))}) == 3

    def test_equal_keys_hash_equal(self):
        pairs = [
            (FiniteClass((1, 2), Phase.exact(1, 3)), finite_class((2, 1), Phase.exact(4, 3))),
            (IntegralClass((1, 2)), integral_class((2, 1))),
            (TailClass(TailWord((), (1, 2))), tail_class(TailWord((2,), (2, 1, 2, 1)))),
            (Phase.exact(1, 2), Phase(turns=Fraction(3, 2))),
            (TailWord((1,), (2, 2)), TailWord([1], [2])),
            (validate_matrix(A1_ROWS), validate_matrix([list(r) for r in A1_ROWS])),
        ]
        for x, y in pairs:
            assert x == y and not x != y and hash(x) == hash(y), x
            assert {x: 1}[y] == 1

    def test_keyword_construction_and_defaults(self):
        assert FiniteClass(word=(1,)) == FiniteClass((1,), ONE)
        assert TailWord(preperiod=(), period=(1,)).period == (1,)
        assert Violation("NotCovered", (), (3,)).detail == ""
        d = Decomposition(matrix=None)
        assert d.entries == {} and d.level == "cyclic" and d.unresolved == ()
        assert Decomposition().entries is not d.entries

    def test_violation_repr_is_unchanged(self):
        text = "Violation(kind='NotCovered', symbols=(), points=(3,), detail='')"
        assert str(Violation("NotCovered", (), (3,))) == text
        f = BranchingSystem(
            matrix=validate_matrix([[1, 1], [1, 1]]),
            carrier=(1, 2, 3),
            maps={1: {}, 2: {}},
            frontier=frozenset({1, 2}),
        )
        with pytest.raises(RepError) as err:
            decompose(f)
        assert str(err.value) == f"system fails validation: {text}"

    def test_decomposition_repr_shows_the_report(self):
        # a failing property over decompositions prints its report, not an address
        d = Decomposition(level="irreducible", tail_marker=True)
        d.add(finite_class((2, 1), Phase.exact(1, 2)), INFINITY)
        d.add(integral_class((1, 2)), 2)
        d.add(finite_class((1,)))
        d.unresolved = (UnresolvedEntry((1, 2), 3),)
        assert repr(d) == (
            "Decomposition(level='irreducible', entries=[('Int(12)', 2), ('P(1)', 1), "
            "('P(12;1/2)', inf)], unresolved=[('12', 3)], tail_marker=True)"
        )
        assert repr(Decomposition()) == (
            "Decomposition(level='cyclic', entries=[], unresolved=[], tail_marker=None)"
        )

    def test_tail_word_period_is_its_primitive_root(self):
        t = TailWord((1,), (2, 1, 2, 1, 2, 1))
        assert t.preperiod == (1,) and t.period == (2, 1) and t == TailWord((1,), (2, 1))
        with pytest.raises(EmptyWordError):
            TailWord((1,), ())

    def test_key_fields_cannot_be_assigned(self):
        for record, field in [
            (FiniteClass((1,)), "word"),
            (FiniteClass((1,)), "phase"),
            (TailClass(TailWord((), (1,))), "tail"),
            (IntegralClass((1, 2)), "word"),
            (Phase.exact(1, 2), "turns"),
            (TailWord((), (1,)), "period"),
            (validate_matrix(A1_ROWS), "rows"),
        ]:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_cached_tables_still_work(self):
        a = validate_matrix(A3_ROWS)
        assert a.successors(1) == (2, 3) and a.predecessors(3) == (1, 2)
        assert a._successor_table is a._successor_table
        f = standard_bfs(a, 9)
        assert f.maps is f.maps and f.position[f.carrier[-1]] == 8
