import random
import re

import pytest

from conftest import (
    A1_ROWS,
    A3_ROWS,
    A4_ROWS,
    ALL_2X2,
    NAIVE1_ROWS,
    brute_cyclic_words,
    random_matrices,
    corpus,
    full_matrix,
    oracle_build_chain_system,
    oracle_build_cycle_system,
    oracle_find_components,
    oracle_shift_bfs,
    oracle_validate_bfs,
    oracle_verify_ck_relations,
)
from ckrep.branching import (
    BranchingError,
    BranchingSystem,
    DumpFormatError,
    InvalidSystemError,
    MatrixMismatchError,
    UnresolvedPointError,
    a_coordinate,
    a_cycle_set,
    build_chain_system,
    build_cycle_system,
    coding_map,
    direct_sum,
    dump_bfs,
    find_components,
    load_bfs,
    phi_map,
    shift_bfs,
    standard_bfs,
    truncated_from_rules,
    validate_bfs,
)
from ckrep.reps import realize, verify_ck_relations
from ckrep.words import (
    NotCyclicallyAdmissibleError,
    TailWord,
    canonical_rotation,
    format_word,
    is_periodic,
    validate_matrix,
    words_equivalent_finite,
)

A1 = validate_matrix(A1_ROWS)
A3 = validate_matrix(A3_ROWS)
A4 = validate_matrix(A4_ROWS)
FULL2 = full_matrix(2)


def generated_systems(a):
    """A spread of systems over one matrix, for corpus-wide properties."""
    out = [standard_bfs(a, 128), shift_bfs(a, 5)]
    seen = set()
    for k in range(1, 4):
        for w in brute_cyclic_words(a, k):
            key = canonical_rotation(w)
            if key not in seen:
                seen.add(key)
                out.append(build_cycle_system(a, w, 3))
    if seen:
        w = sorted(seen)[0]
        out.append(build_chain_system(a, TailWord((), w), 5, 2))
    return out


class TestValidate:
    def test_zero_violations_on_generated_corpus(self):
        for a in corpus():
            for f in generated_systems(a):
                report = validate_bfs(f)
                assert report.ok, (a.rows, f.origin, report.violations[:3])

    def test_range_overlap_detected(self):
        f = BranchingSystem(
            matrix=FULL2,
            carrier=(1, 2, 3),
            maps={1: {1: 3}, 2: {1: 3}},
            frontier=frozenset({1, 2, 3}),
        )
        report = validate_bfs(f)
        kinds = {v.kind for v in report.violations}
        assert "RangeOverlap" in kinds

    def test_injectivity_failure_detected(self):
        f = BranchingSystem(
            matrix=FULL2,
            carrier=(1, 2, 3),
            maps={1: {1: 3, 2: 3}, 2: {}},
            frontier=frozenset({1, 2, 3}),
        )
        kinds = {v.kind for v in validate_bfs(f).violations}
        assert "InjectivityFail" in kinds

    def test_missing_coverage_detected(self):
        g = standard_bfs(FULL2, 16)
        maps = {i: dict(g.maps[i]) for i in (1, 2)}
        removed = maps[1].pop(1)  # f_1(1) = 1 disappears
        f = BranchingSystem(matrix=FULL2, carrier=g.carrier, maps=maps, frontier=g.frontier)
        report = validate_bfs(f)
        assert any(v.kind == "NotCovered" and v.points == (removed,) for v in report.violations)


def corrupted(f: BranchingSystem, rng: random.Random, steps: int) -> BranchingSystem:
    """`f` after `steps` random faults: a dropped edge, a duplicated image,
    an edge moved to another symbol, or a toggled frontier mark."""
    maps = {i: dict(f.maps.get(i, {})) for i in range(1, f.n + 1)}
    frontier = set(f.frontier)
    for _ in range(steps):
        edges = [(i, x) for i in maps for x in maps[i]]
        fault = rng.choice(("drop", "duplicate", "move", "frontier"))
        if fault == "frontier" or not edges:
            frontier ^= {rng.choice(f.carrier)}
            continue
        i, x = rng.choice(edges)
        if fault == "drop":
            del maps[i][x]
        elif fault == "duplicate":
            j, z = rng.choice(edges)
            maps[j][z] = maps[i][x]
        else:
            j = rng.choice([s for s in maps if s != i])
            maps[j][x] = maps[i].pop(x)
    return BranchingSystem(
        matrix=f.matrix,
        carrier=f.carrier,
        maps=maps,
        frontier=frozenset(frontier),
        origin=f.origin,
        declared_tails=f.declared_tails,
    )


class TestAgainstOracles:
    """The set-level axiom scan and the walk-labelled components agree
    with the point-by-point definitions on intact and corrupted systems."""

    @staticmethod
    def systems(rng: random.Random):
        for a in corpus():
            word = sorted(canonical_rotation(w) for k in (1, 2) for w in brute_cyclic_words(a, k))[0]
            standard = standard_bfs(a, 80)
            cycle = build_cycle_system(a, word, 2)
            yield standard
            yield cycle
            yield load_bfs(dump_bfs(cycle), a)
            yield build_chain_system(a, TailWord((), word), 4, 2)
            for f in (standard, cycle):  # walks then enter cycles mid-carrier
                yield BranchingSystem(
                    matrix=a,
                    carrier=tuple(rng.sample(f.carrier, len(f.carrier))),
                    maps=f.maps,
                    frontier=f.frontier,
                )

    def test_reports_and_components_match(self):
        rng = random.Random(20260518)
        seen: set[str] = set()
        for f in self.systems(rng):
            for steps in (0, 1, 1, 1, 2, 2, 2, 3, 3, 4):
                g = corrupted(f, rng, steps)
                report = validate_bfs(g)
                assert report == oracle_validate_bfs(g), (g.matrix.rows, g.origin, steps)
                relations = verify_ck_relations(realize(g))
                assert relations == oracle_verify_ck_relations(g), (g.matrix.rows, g.origin)
                seen.update(v.kind for v in report.violations + relations.violations)
                try:
                    want = oracle_find_components(g)
                except InvalidSystemError as err:
                    with pytest.raises(InvalidSystemError, match=re.escape(str(err))):
                        find_components(g)
                    continue
                assert find_components(g) == want, (g.matrix.rows, g.origin, steps)
        assert seen == {
            "InjectivityFail",
            "RangeOverlap",
            "NotCovered",
            "DomainMismatch",
            "DomainFail",
            "CompletenessFail",
        }


class TestAgainstListingOracles:
    """The grown cycle and chain carriers and the shift stand-in equal the
    earlier list-and-filter constructors: label for label when N <= 9,
    and word for word when N >= 10, where the oracles name each point by
    its symbols joined with "." (their comma labels are not injective:
    (11,) and (1, 1) are both "11")."""

    @staticmethod
    def assert_same(f, g, head):
        assert len(f.carrier) == len(g.carrier) and set(f.carrier) == set(g.carrier)
        assert f.carrier[:head] == g.carrier[:head]  # cycle suffixes or chain spine first
        assert f.maps == g.maps and f.frontier == g.frontier
        assert f.declared_tails == g.declared_tails and f.origin == g.origin
        assert dump_bfs(f) == dump_bfs(g)

    def check_matrix(self, a, depths, word_lens, rng):
        name = format_word if a.n <= 9 else (lambda w: ".".join(map(str, w)))
        classes = sorted({canonical_rotation(w) for k in (1, 2, 3) for w in brute_cyclic_words(a, k)})
        words = classes[:4] + [w[1:] + w[:1] for w in classes[-2:]]  # and two rotations
        for depth in depths:
            for w in words:
                f = build_cycle_system(a, w, depth)
                self.assert_same(f, oracle_build_cycle_system(a, w, depth, name), len(w))
            pre = [rng.choice(a.predecessors(classes[-1][0]))]
            pre.insert(0, rng.choice(a.predecessors(pre[0])))
            walk = [rng.randint(1, a.n)]
            for _ in range(4):
                walk.append(rng.choice(a.successors(walk[-1])))
            tails = [TailWord((), classes[0]), TailWord(tuple(pre), classes[-1])]
            for source in tails + [lambda m, _walk=walk: _walk[m - 1]]:
                f = build_chain_system(a, source, 5, depth)
                self.assert_same(f, oracle_build_chain_system(a, source, 5, depth, name), 5)
        for word_len in word_lens:
            self.assert_same(shift_bfs(a, word_len), oracle_shift_bfs(a, word_len, name), 0)

    def test_small_alphabets(self):
        rng = random.Random(20261018)
        for a in corpus() + random_matrices(4, 20, seed=11):
            self.check_matrix(a, range(5), range(2, 7), rng)

    def test_wide_alphabets(self):
        rng = random.Random(20261019)
        for a in [full_matrix(10), *random_matrices(11, 2, seed=3), *random_matrices(12, 2, seed=4)]:
            self.check_matrix(a, range(3), (2, 3), rng)


class TestCodingMap:
    def test_standard_full_first_point(self):
        f = standard_bfs(FULL2, 16)
        assert coding_map(f)(1) == (1, 1)

    def test_round_trip_on_corpus(self):
        for a in corpus()[:8]:
            for f in generated_systems(a):
                fmap = coding_map(f)
                for i in range(1, a.n + 1):
                    for x, y in f.maps.get(i, {}).items():
                        if y not in f.frontier:
                            assert fmap(y) == (i, x)

    def test_chain_prefix_point(self):
        f = build_chain_system(A1, TailWord((), (2,)), 4, 2)
        assert coding_map(f)(2) == (2, 3)

    def test_unresolved_point_raises(self):
        f = build_chain_system(A1, TailWord((), (2,)), 4, 2)
        with pytest.raises(UnresolvedPointError):
            coding_map(f)(4)  # spine end is frontier


class TestCycleSystems:
    def test_cycle_carrier_shape_for_a3(self):
        f = build_cycle_system(A3, (1, 2), 4)
        # cycle points are the word and its proper suffix
        assert format_word((1, 2)) in f.carrier and format_word((2,)) in f.carrier
        assert f.maps[1]["2"] == "12"
        assert f.maps[2]["12"] == "2"  # the wrap edge

    def test_single_cycle_with_literal_word(self):
        for a in corpus():
            for k in range(1, 4):
                for w in brute_cyclic_words(a, k)[:6]:
                    comps = find_components(build_cycle_system(a, w, 2))
                    cycles = [c for c in comps if c.kind == "cycle"]
                    assert len(cycles) == 1 and len(comps) == 1
                    assert cycles[0].word == w

    def test_validate_all_depths(self):
        for depth in range(6):
            assert validate_bfs(build_cycle_system(A3, (1, 2), depth)).ok

    def test_rejects_non_cyclic_word(self):
        with pytest.raises(NotCyclicallyAdmissibleError):
            build_cycle_system(A1, (1, 2), 2)

    def test_periodic_word_allowed(self):
        comps = find_components(build_cycle_system(FULL2, (1, 2, 1, 2), 2))
        assert [c.word for c in comps if c.kind == "cycle"] == [(1, 2, 1, 2)]


class TestChainSystems:
    def test_spine_maps(self):
        f = build_chain_system(A1, TailWord((), (2,)), 4, 2)
        assert f.maps[2][2] == 1 and f.maps[2][3] == 2 and f.maps[2][4] == 3

    def test_single_chain_with_prefix_word(self):
        f = build_chain_system(A1, TailWord((), (2,)), 4, 2)
        comps = find_components(f)
        assert [(c.kind, c.word) for c in comps] == [("chain", (2, 2, 2))]
        assert comps[0].points == (1, 2, 3, 4)

    def test_preperiod_source(self):
        f = build_chain_system(A1, TailWord((1, 1), (2,)), 5, 2)
        comps = find_components(f)
        assert comps[0].kind == "chain" and comps[0].word == (1, 1, 2, 2)

    def test_generator_source(self):
        gen = lambda m: 1 if m in (1, 4) else 2  # noqa: E731 -- ad-hoc prefix
        f = build_chain_system(full_matrix(2), gen, 5, 1)
        comps = find_components(f)
        assert comps[0].kind == "chain" and comps[0].word == (1, 2, 2, 1)
        assert comps[0].declared is gen

    def test_validate(self):
        for a, tail in [
            (A1, TailWord((), (2,))),
            (A3, TailWord((), (1, 2))),
            (FULL2, TailWord((1,), (2, 1))),
        ]:
            for depth in range(4):
                assert validate_bfs(build_chain_system(a, tail, 6, depth)).ok

    def test_chain_len_minimum(self):
        with pytest.raises(BranchingError):
            build_chain_system(A1, TailWord((), (2,)), 1, 1)

    def test_generator_letters_validated(self):
        from ckrep.words import NotAdmissibleError

        with pytest.raises(NotAdmissibleError):
            build_chain_system(A1, lambda m: 7, 4, 1)
        with pytest.raises(NotAdmissibleError):
            build_chain_system(A1, lambda m: 2 if m == 1 else 1, 4, 1)  # 2->1 forbidden


class TestACoordinate:
    def test_full(self):
        coord = a_coordinate(FULL2)
        assert coord.b_sets == ((1, 2), (1, 2))
        assert coord.q(1, 1) == 1 and coord.q(1, 2) == 2

    def test_a1(self):
        coord = a_coordinate(A1)
        assert coord.b_sets[0] == (1, 2) and coord.b_sets[1] == (2,)
        assert coord.m(2) == 1 and coord.q(2, 2) == 1

    def test_a3(self):
        coord = a_coordinate(A3)
        assert coord.b_sets[0] == (2, 3)
        assert coord.q(1, 2) == 1 and coord.q(1, 3) == 2


class TestStandardSystem:
    def test_full_fixed_point(self):
        f = standard_bfs(FULL2, 16)
        assert f.maps[1][1] == 1

    def test_a3_unique_cycle(self):
        comps = find_components(standard_bfs(A3, 81))
        cycles = [c for c in comps if c.kind == "cycle"]
        assert len(cycles) == 1 and words_equivalent_finite(cycles[0].word, (1, 2))

    def test_swap_matrix_cycle_count_grows(self):
        swap = validate_matrix([[0, 1], [1, 0]])

        def count(bound):
            return sum(
                1
                for c in find_components(standard_bfs(swap, bound))
                if c.kind == "cycle" and words_equivalent_finite(c.word, (1, 2))
            )

        assert count(16) >= 1
        assert count(64) > count(16)

    def test_no_chains_and_expected_cycles_on_corpus(self):
        for a in corpus():
            cycles = a_cycle_set(a)
            comps = find_components(standard_bfs(a, 128))
            assert all(c.kind != "chain" for c in comps)
            seen_words = [c.word for c in comps if c.kind == "cycle"]
            for w in cycles.once:
                hits = [v for v in seen_words if words_equivalent_finite(v, w)]
                assert len(hits) == 1, (a.rows, w)
            for w in cycles.infinite:
                hits = [v for v in seen_words if words_equivalent_finite(v, w)]
                assert len(hits) >= 1, (a.rows, w)

    def test_infinite_multiplicity_counts_nondecreasing(self):
        for a in map(validate_matrix, ALL_2X2):
            cycles = a_cycle_set(a)
            for w in cycles.infinite:
                counts = []
                for bound in (32, 64, 128):
                    comps = find_components(standard_bfs(a, bound))
                    counts.append(
                        sum(
                            1
                            for c in comps
                            if c.kind == "cycle" and words_equivalent_finite(c.word, w)
                        )
                    )
                assert counts == sorted(counts)

    def test_truncation_minimum(self):
        with pytest.raises(BranchingError):
            standard_bfs(FULL2, 1)


class TestPhiMap:
    def test_a3(self):
        assert phi_map(A3) == {1: 2, 2: 1, 3: 1}
        cycles = a_cycle_set(A3)
        assert cycles.cycles == ((1, 2),)
        assert cycles.once == ((1, 2),) and cycles.infinite == ()

    def test_delta_row_goes_infinite(self):
        a = validate_matrix([[1, 0], [1, 1]])
        cycles = a_cycle_set(a)
        assert cycles.infinite == ((1,),) and cycles.once == ()

    def test_full_matrices(self):
        for n in (2, 3, 4, 5):
            cycles = a_cycle_set(full_matrix(n))
            assert cycles.once == ((1,),) and cycles.infinite == ()

    def test_a4(self):
        cycles = a_cycle_set(A4)
        assert cycles.once == ((1,), (2,)) and cycles.infinite == ()


class TestShiftSystem:
    def test_a1_cycles(self):
        comps = find_components(shift_bfs(A1, 6))
        cycles = sorted(c.word for c in comps if c.kind == "cycle")
        assert cycles == [(1,), (2,)]

    def test_full_2x2_word_len_4(self):
        comps = find_components(shift_bfs(FULL2, 4))
        cycles = sorted(c.word for c in comps if c.kind == "cycle")
        assert cycles == [(1,), (1, 2), (2,)]

    def test_cycle_classes_guaranteed_up_to_half_length(self):
        for a in corpus()[:6]:
            word_len = 6
            comps = find_components(shift_bfs(a, word_len))
            found = [c.word for c in comps if c.kind == "cycle"]
            # every primitive class of period <= word_len/2 appears
            for k in range(1, word_len // 2 + 1):
                for w in brute_cyclic_words(a, k):
                    if is_periodic(w):
                        continue
                    assert any(words_equivalent_finite(w, v) for v in found), (a.rows, w)
            # each class appears exactly once and is genuine
            seen = set()
            for v in found:
                key = canonical_rotation(v)
                assert not is_periodic(v)
                assert key not in seen
                seen.add(key)

    def test_validate(self):
        for a in corpus():
            assert validate_bfs(shift_bfs(a, 5)).ok


class TestDirectSum:
    def test_components_are_multiset_union(self):
        f = build_cycle_system(A1, (1,), 3)
        g = build_cycle_system(A1, (2,), 3)
        comps = find_components(direct_sum(f, g))
        assert sorted(c.word for c in comps if c.kind == "cycle") == [(1,), (2,)]

    def test_double_sum_doubles_multiplicity(self):
        f = build_cycle_system(A3, (1, 2), 2)
        comps = find_components(direct_sum(f, f))
        assert [c.word for c in comps if c.kind == "cycle"] == [(1, 2), (1, 2)]

    def test_matrix_mismatch(self):
        with pytest.raises(MatrixMismatchError):
            direct_sum(build_cycle_system(A1, (1,), 2), build_cycle_system(FULL2, (1,), 2))

    def test_validates_and_additive_on_random_pairs(self):
        rng = random.Random(5)
        pool = []
        for a in (A1, A3, FULL2, A4):
            pool.extend(generated_systems(a)[:5])
        for _ in range(40):
            f, g = rng.choice(pool), rng.choice(pool)
            if f.matrix.rows != g.matrix.rows:
                continue
            total = direct_sum(f, g)
            assert validate_bfs(total).ok
            left = sorted(
                (c.kind, c.word) for c in find_components(f) + find_components(g)
            )
            joint = sorted((c.kind, c.word) for c in find_components(total))
            assert joint == left


class TestOrbits:
    def test_points_share_their_component(self):
        for f in (standard_bfs(A3, 40), build_cycle_system(A3, (1, 2), 3)):
            comps = find_components(f)
            owner_of = {}
            for idx, c in enumerate(comps):
                for x in c.basin:
                    assert x not in owner_of
                    owner_of[x] = idx
            # every edge stays inside one component
            for i in range(1, f.n + 1):
                for x, y in f.maps.get(i, {}).items():
                    if x in owner_of and y in owner_of:
                        assert owner_of[x] == owner_of[y]


class TestRules:
    def test_naive_example_classifies(self):
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
        assert validate_bfs(f).ok
        cycles = [c for c in find_components(f) if c.kind == "cycle"]
        assert len(cycles) == 1 and cycles[0].word == (1, 3)

    def test_rule_image_below_carrier_rejected(self):
        with pytest.raises(BranchingError):
            truncated_from_rules(
                FULL2, 8, [(lambda x: True, lambda x: x - 1), (lambda x: True, lambda x: x)]
            )


class TestDump:
    GOLDEN = "2 4\n1: 1->1, 21->~121\n2: 1->21, 21->~221\n"

    def test_golden_small_cycle_dump(self):
        f = build_cycle_system(FULL2, (1,), 1)
        assert dump_bfs(f) == self.GOLDEN

    def test_degenerate_cycle_dump(self):
        g = build_cycle_system(A1, (1,), 1)
        assert dump_bfs(g) == "2 1\n1: 1->1\n2: \n"

    def test_round_trip_on_corpus(self):
        def norm_maps(s):
            return {
                i: {str(x): str(y) for x, y in s.maps.get(i, {}).items()}
                for i in range(1, s.n + 1)
            }

        for a in corpus()[:8]:
            for f in generated_systems(a)[:4]:
                g = load_bfs(dump_bfs(f), a)
                assert norm_maps(g) == norm_maps(f)
                assert {str(x) for x in g.frontier} == {str(x) for x in f.frontier}
                assert {str(x) for x in g.carrier} == {str(x) for x in f.carrier}
                assert dump_bfs(g) == dump_bfs(f)

    def test_repeated_source_rejected(self):
        with pytest.raises(DumpFormatError, match="maps 'a' twice"):
            load_bfs("2 3\n1: a->b, a->c\n2: \n", FULL2)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x 3\n1: a->b\n", "bad header field 'x'"),
            ("2 3.0\n1: a->b\n", "bad header field '3.0'"),
            ("2 2\nq: a->b\n", "bad symbol 'q'"),
            ("2 2\n1 a->b\n", "bad symbol '1 a->b'"),
        ],
    )
    def test_non_integer_header_or_symbol_rejected(self, text, message):
        with pytest.raises(DumpFormatError, match=re.escape(message)):
            load_bfs(text, FULL2)
