"""Shared fixtures: the matrix corpus and independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: rotation
minima are taken by base-N positional value over all rotations, periodicity
by trying every proper divisor, and cyclic words by filtering the full
cartesian product.  The axiom and component oracles are the direct
definitions: every axiom at every point and symbol, and orbits by
union-find over the edges.  The cyclotomic oracle is the earlier
`RootSum`, which keys each term by its reduced rational turn and derives
the order from the denominators at each zero test.  The enumeration
oracle is the earlier grow-and-filter enumeration, which keeps each
cyclically admissible word that equals its Booth rotation; the class
counts per length come independently from the trace formula.  The
carrier oracles are the earlier cycle, chain and shift constructors,
which list every point word first (the trees from `words.tree`) and then
find each point's edges and frontier status by membership in that list.
"""

from __future__ import annotations

import cmath
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from ckrep.branching import (
    BranchingError,
    BranchingSystem,
    ComponentSkeleton,
    InvalidSystemError,
    Label,
    TailSource,
    ValidationReport,
    Violation,
    _chain_letters,
    _periodic_extension,
)
from ckrep.phases import Phase, PhaseError
from ckrep.reps import CKReport
from ckrep.words import (
    NotCyclicallyAdmissibleError,
    TransitionMatrix,
    Word,
    WordError,
    admissible_words,
    canonical_rotation,
    format_word,
    is_cyclically_admissible,
    is_periodic,
    tree,
    validate_matrix,
)

# The seven 2x2 matrices without zero rows or columns.
ALL_2X2 = [
    [[1, 1], [1, 1]],
    [[1, 1], [1, 0]],
    [[0, 1], [1, 1]],
    [[1, 0], [1, 1]],
    [[1, 1], [0, 1]],
    [[1, 0], [0, 1]],
    [[0, 1], [1, 0]],
]

A1_ROWS = [[1, 1], [0, 1]]
A2_ROWS = [[1, 1], [1, 0]]

# 3x3 fixture matrices; NAIVE1/NAIVE2 carry the hand-built rule systems.
NAIVE1_ROWS = [[0, 0, 1], [1, 0, 1], [1, 1, 1]]
NAIVE2_ROWS = [[0, 1, 1], [1, 0, 1], [1, 1, 1]]
A3_ROWS = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
A4_ROWS = [[1, 0, 1], [0, 1, 1], [1, 1, 1]]

FOUR_BY_FOUR = [
    ([[0, 1, 0, 1], [0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1]], "2"),
    ([[0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 1]], "123"),
    ([[0, 0, 1, 1], [1, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1]], "132"),
]

CORPUS_ROWS = ALL_2X2 + [NAIVE1_ROWS, NAIVE2_ROWS, A3_ROWS, A4_ROWS] + [
    rows for rows, _ in FOUR_BY_FOUR
]


def corpus() -> list[TransitionMatrix]:
    return [validate_matrix(rows) for rows in CORPUS_ROWS]


def full_matrix(n: int) -> TransitionMatrix:
    return validate_matrix([[1] * n for _ in range(n)])


def all_words(n: int, length: int):
    return itertools.product(range(1, n + 1), repeat=length)


def brute_min_rotation(word: Word, n: int) -> Word:
    """Positional-value minimum over all rotations, straight from the
    definition of the order."""
    k = len(word)

    def value(w: Word) -> int:
        return sum(s * n ** (k - 1 - i) for i, s in enumerate(w))

    return min((word[r:] + word[:r] for r in range(k)), key=value)


def brute_is_periodic(word: Word) -> bool:
    k = len(word)
    return any(
        k % d == 0 and word == word[:d] * (k // d) for d in range(1, k) if k % d == 0
    )


def brute_cyclic_words(a: TransitionMatrix, length: int) -> list[Word]:
    """All cyclically admissible words of exactly `length`, by filtering
    the full product."""
    out = []
    for w in all_words(a.n, length):
        pairs = list(zip(w, w[1:] + w[:1]))
        if all(a.entry(x, y) for x, y in pairs):
            out.append(tuple(w))
    return out


def brute_simple_cycles(a: TransitionMatrix) -> list[tuple[int, ...]]:
    """Simple cycles of the digraph as rotation classes (min vertex first)."""
    cycles = set()
    for k in range(1, a.n + 1):
        for verts in itertools.permutations(range(1, a.n + 1), k):
            if verts[0] != min(verts):
                continue
            pairs = list(zip(verts, verts[1:] + verts[:1]))
            if all(a.entry(x, y) for x, y in pairs):
                cycles.add(verts)
    return sorted(cycles, key=lambda w: (len(w), w))


def brute_spectrum_finite(a: TransitionMatrix) -> bool:
    """Independent finiteness decision: the class count is finite iff no
    vertex lies on two distinct simple cycles."""
    cycles = brute_simple_cycles(a)
    seen: set[int] = set()
    for cyc in cycles:
        if seen & set(cyc):
            return False
        seen.update(cyc)
    return True


def all_valid_matrices(n: int) -> list[TransitionMatrix]:
    """Every n x n 0/1 matrix without a zero row or column."""
    out = []
    for bits in itertools.product((0, 1), repeat=n * n):
        try:
            out.append(validate_matrix([bits[i * n : (i + 1) * n] for i in range(n)]))
        except WordError:
            pass
    return out


def random_matrices(n: int, count: int, seed: int) -> list[TransitionMatrix]:
    """`count` seeded random n x n matrices without a zero row or column."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            out.append(validate_matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]))
        except WordError:
            pass
    return out


def oracle_enumerate_cyclic_classes(a: TransitionMatrix, max_len: int) -> list[tuple[Word, bool]]:
    """Grow every admissible word up to max_len and keep the cyclically
    admissible ones that equal their canonical rotation, flagged periodic."""
    out: list[tuple[Word, bool]] = []
    words: list[Word] = [(i,) for i in range(1, a.n + 1)]
    for k in range(1, max_len + 1):
        for w in words:
            if a.entry(w[-1], w[0]) and canonical_rotation(w) == w:
                out.append((w, is_periodic(w)))
        if k < max_len:
            words = [w + (j,) for w in words for j in a.successors(w[-1])]
    return out


def _mobius(n: int) -> int:
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def trace_formula_counts(a: TransitionMatrix, max_len: int) -> list[int]:
    """q_1..q_max_len, the number of primitive cyclic classes of each
    length: q_k = (1/k) * sum over d | k of mu(k/d) * tr(A^d), with exact
    integer matrix powers."""
    rows = [list(row) for row in a.rows]
    n = len(rows)
    traces = [0]
    power = rows
    for _ in range(max_len):
        traces.append(sum(power[i][i] for i in range(n)))
        power = [
            [sum(power[i][m] * rows[m][j] for m in range(n)) for j in range(n)] for i in range(n)
        ]
    counts = []
    for k in range(1, max_len + 1):
        total = sum(_mobius(k // d) * traces[d] for d in range(1, k + 1) if k % d == 0)
        assert total % k == 0
        counts.append(total // k)
    return counts


def _edge_checks(f: BranchingSystem, overlaps: bool) -> list[Violation]:
    """Injectivity per symbol and, if asked, range disjointness, edge by
    edge in carrier order."""
    violations: list[Violation] = []
    owner: dict = {}
    for i in range(1, f.n + 1):
        images: dict = {}
        for x in sorted(f.maps.get(i, {}), key=f.position.get):
            y = f.maps[i][x]
            if y in images:
                violations.append(Violation("InjectivityFail", (i,), (images[y], x, y)))
            else:
                images[y] = x
            if not overlaps:
                continue
            if y in owner and owner[y][0] != i:
                violations.append(Violation("RangeOverlap", (owner[y][0], i), (y,)))
            else:
                owner.setdefault(y, (i, x))
    return violations


def oracle_validate_bfs(f: BranchingSystem) -> ValidationReport:
    """The system axioms checked point by point and symbol by symbol."""
    a = f.matrix
    violations = _edge_checks(f, overlaps=True)
    ranges = {i: set(f.maps.get(i, {}).values()) for i in range(1, f.n + 1)}
    checked = 0
    for x in f.carrier:
        if x in f.frontier:
            continue
        checked += 1
        if not any(x in ranges[i] for i in range(1, f.n + 1)):
            violations.append(Violation("NotCovered", (), (x,)))
        for i in range(1, f.n + 1):
            in_domain = x in f.maps.get(i, {})
            should = any(a.entry(i, j) and x in ranges[j] for j in range(1, f.n + 1))
            if in_domain != should:
                violations.append(
                    Violation("DomainMismatch", (i,), (x,), "recorded" if in_domain else "missing")
                )
    return ValidationReport(checked_points=checked, violations=tuple(violations))


def oracle_verify_ck_relations(f: BranchingSystem) -> CKReport:
    """Both defining relations evaluated on every non-frontier basis point:
    s_i^* s_i against the row sum of range projections, and the sum of
    all range projections against the identity."""
    a = f.matrix
    violations = _edge_checks(f, overlaps=False)
    ranges = {i: set(f.maps.get(i, {}).values()) for i in range(1, f.n + 1)}
    checked = domain_checks = completeness_checks = 0
    for x in f.carrier:
        if x in f.frontier:
            continue
        checked += 1
        for i in range(1, f.n + 1):
            domain_checks += 1
            lhs = 1 if x in f.maps.get(i, {}) else 0
            rhs = sum(1 for j in range(1, f.n + 1) if a.entry(i, j) and x in ranges[j])
            if lhs != rhs:
                violations.append(Violation("DomainFail", (i,), (x,), f"{lhs} != {rhs}"))
        completeness_checks += 1
        cover = sum(1 for i in range(1, f.n + 1) if x in ranges[i])
        if cover != 1:
            violations.append(Violation("CompletenessFail", (), (x,), f"covered {cover} times"))
    return CKReport(
        checked_points=checked,
        domain_checks=domain_checks,
        completeness_checks=completeness_checks,
        violations=tuple(violations),
    )


def oracle_find_components(f: BranchingSystem) -> tuple[ComponentSkeleton, ...]:
    """Orbits by union-find over every edge, each classified by walking
    the coding map from the orbit's first carrier point."""
    owner: dict = {}
    for i in range(1, f.n + 1):
        for x, y in f.maps.get(i, {}).items():
            if y in owner:
                raise InvalidSystemError(f"point {y!r} lies in two ranges: {owner[y][0]} and {i}")
            owner[y] = (i, x)
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for x in f.carrier:
        find(x)
    for y, (_, x) in owner.items():
        parent[find(x)] = find(y)
    groups: dict = {}
    for x in f.carrier:
        groups.setdefault(find(x), []).append(x)

    def walk(start):
        seen, points, letters = set(), [], []
        cur = start
        while cur not in seen:
            seen.add(cur)
            points.append(cur)
            if cur not in owner:
                return points, letters, None
            sym, cur = owner[cur]
            letters.append(sym)
        return points, letters, cur

    out = []
    for group in sorted(groups.values(), key=lambda g: min(f.position[x] for x in g)):
        if all(x in f.frontier for x in group):
            continue
        basin = tuple(sorted(group, key=f.position.get))
        points, letters, repeat = walk(basin[0])
        if repeat is not None:
            cycle = points[points.index(repeat):]
            cur = min(cycle, key=f.position.get)
            cyc_points, cyc_word = [], []
            for _ in cycle:
                cyc_points.append(cur)
                sym, cur = owner[cur]
                cyc_word.append(sym)
            kind = "unresolved" if any(p in f.frontier for p in cyc_points) else "cycle"
            out.append(ComponentSkeleton(kind, tuple(cyc_word), tuple(cyc_points), basin))
            continue
        anchors = [x for x in basin if x in f.declared_tails]
        if len(anchors) == 1:
            a_points, a_letters, a_repeat = walk(anchors[0])
            if a_repeat is None:
                out.append(
                    ComponentSkeleton(
                        "chain",
                        tuple(a_letters),
                        tuple(a_points),
                        basin,
                        f.declared_tails[anchors[0]],
                    )
                )
                continue
        out.append(ComponentSkeleton("unresolved", tuple(letters), tuple(points), basin))
    return tuple(out)


def oracle_build_cycle_system(
    a: TransitionMatrix, word: Word, depth: int, name: Callable[[Word], str] = format_word
) -> BranchingSystem:
    """The cycle carrier by listing: suffixes, side branches, then every
    tree word per branch; each point's edges by membership.  `name` labels
    a point by its word."""
    if not word or not is_cyclically_admissible(a, word):
        raise NotCyclicallyAdmissibleError(f"{format_word(word)} is not cyclically admissible")
    if depth < 0:
        raise BranchingError("depth must be >= 0")
    k = len(word)
    suffixes = [word[l:] for l in range(k)]
    lambda2: list[Word] = []
    for l in range(k):
        prev = word[l - 1]
        for j in a.predecessors(word[l]):
            if j != prev:
                lambda2.append((j,) + suffixes[l])
    lambda3: list[Word] = []
    for branch in lambda2:
        for x in tree(a, branch[0], depth, "in").words:
            lambda3.append(x + branch)
    points: list[Word] = suffixes + lambda2 + lambda3
    assert len(set(points)) == len(points)

    labels = {w: name(w) for w in points}
    point_set = set(points)
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    frontier: set[Label] = set()
    for w in points:
        for i in a.predecessors(w[0]):
            target = suffixes[-1] if w == word and i == word[-1] else (i,) + w
            if target in point_set:
                maps[i][labels[w]] = labels[target]
            else:
                frontier.add(labels[w])
    return BranchingSystem(
        matrix=a,
        carrier=tuple(labels[w] for w in points),
        maps=maps,
        frontier=frozenset(frontier),
        origin="cycle",
    )


def oracle_build_chain_system(
    a: TransitionMatrix,
    source: TailSource,
    chain_len: int,
    depth: int,
    name: Callable[[Word], str] = format_word,
) -> BranchingSystem:
    """The chain carrier by listing: spine, side branches "<word>@m", then
    every tree word per branch; each point's edges by membership."""
    if chain_len < 2:
        raise BranchingError("chain_len must be >= 2")
    if depth < 0:
        raise BranchingError("depth must be >= 0")
    letters = _chain_letters(a, source, chain_len)

    def side_label(w: Word, m: int) -> str:
        return f"{name(w)}@{m}"

    carrier: list[Label] = list(range(1, chain_len + 1))
    side_words: list[tuple[Word, int]] = []
    for m in range(1, chain_len + 1):
        for j in a.predecessors(letters[m - 1]):
            if m == 1 or j != letters[m - 2]:
                side_words.append(((j,), m))
    for branch, m in list(side_words):
        for x in tree(a, branch[0], depth, "in").words:
            side_words.append((x + branch, m))
    carrier.extend(side_label(w, m) for w, m in side_words)

    side_set = set(side_words)
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    frontier: set[Label] = {chain_len}
    for m in range(1, chain_len + 1):
        for i in a.predecessors(letters[m - 1]):
            if m >= 2 and i == letters[m - 2]:
                maps[i][m] = m - 1
            else:
                maps[i][m] = side_label((i,), m)
    for w, m in side_words:
        for i in a.predecessors(w[0]):
            if ((i,) + w, m) in side_set:
                maps[i][side_label(w, m)] = side_label((i,) + w, m)
            else:
                frontier.add(side_label(w, m))
    return BranchingSystem(
        matrix=a,
        carrier=tuple(carrier),
        maps=maps,
        frontier=frozenset(frontier),
        origin="chain",
        declared_tails={1: source},
    )


def oracle_shift_bfs(
    a: TransitionMatrix, word_len: int, name: Callable[[Word], str] = format_word
) -> BranchingSystem:
    """The fixed-width shift stand-in, naming a point at each use."""
    if word_len < 2:
        raise BranchingError("word_len must be >= 2")
    points = admissible_words(a, word_len)
    point_set = set(points)
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    backward_defined: set[Word] = set()
    for y in points:
        rest = y[1:]
        ext = _periodic_extension(rest)
        if a.entry(y[-1], ext):
            x = rest + (ext,)
            assert x in point_set
            maps[y[0]][name(x)] = name(y)
            backward_defined.add(y)
    frontier = {
        name(w)
        for w in points
        if not (w in backward_defined and _periodic_extension(w[:-1]) == w[-1])
    }
    return BranchingSystem(
        matrix=a,
        carrier=tuple(name(w) for w in points),
        maps=maps,
        frontier=frozenset(frontier),
        origin="shift",
    )


def _oracle_poly_divmod(
    num: list[Fraction], den: list[int]
) -> tuple[list[Fraction], list[Fraction]]:
    # Long division; `den` monic with integer coefficients, ascending order.
    num = list(num)
    q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c:
            q[i] = c
            for k, d in enumerate(den):
                num[i + k] -= c * d
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def oracle_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    poly: list[Fraction] = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _oracle_poly_divmod(poly, list(oracle_cyclotomic_polynomial(d)))
            assert all(c == 0 for c in rem)
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


def _oracle_lcm(a: int, b: int) -> int:
    from math import gcd

    return a // gcd(a, b) * b


class OracleRootSum:
    """A finite sum ``sum_t  c_t * exp(2*pi*i*t)`` with rational c_t, t.

    Immutable by convention.  Equality and zero tests are exact, via
    reduction modulo the cyclotomic polynomial at the common order.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Fraction, Fraction] | None = None):
        cleaned: dict[Fraction, Fraction] = {}
        for turn, coeff in (terms or {}).items():
            if coeff:
                key = turn % 1
                cleaned[key] = cleaned.get(key, Fraction(0)) + coeff
        self._terms = {t: c for t, c in cleaned.items() if c}

    @staticmethod
    def zero() -> OracleRootSum:
        return OracleRootSum()

    @staticmethod
    def one() -> OracleRootSum:
        return OracleRootSum({Fraction(0): Fraction(1)})

    @staticmethod
    def rational(q) -> OracleRootSum:
        return OracleRootSum({Fraction(0): Fraction(q)})

    @staticmethod
    def from_phase(phase: Phase) -> OracleRootSum:
        if not phase.is_exact:
            raise PhaseError("exact arithmetic requires an exact phase")
        return OracleRootSum({phase.turns: Fraction(1)})

    @property
    def terms(self) -> dict[Fraction, Fraction]:
        return dict(self._terms)

    def __add__(self, other: OracleRootSum) -> OracleRootSum:
        merged = dict(self._terms)
        for t, c in other._terms.items():
            merged[t] = merged.get(t, Fraction(0)) + c
        return OracleRootSum(merged)

    def __neg__(self) -> OracleRootSum:
        return OracleRootSum({t: -c for t, c in self._terms.items()})

    def __sub__(self, other: OracleRootSum) -> OracleRootSum:
        return self + (-other)

    def __mul__(self, other: OracleRootSum) -> OracleRootSum:
        out: dict[Fraction, Fraction] = {}
        for t1, c1 in self._terms.items():
            for t2, c2 in other._terms.items():
                key = (t1 + t2) % 1
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return OracleRootSum(out)

    def scaled(self, q) -> OracleRootSum:
        q = Fraction(q)
        return OracleRootSum({t: c * q for t, c in self._terms.items()})

    def conjugate(self) -> OracleRootSum:
        return OracleRootSum({(-t) % 1: c for t, c in self._terms.items()})

    def is_zero(self) -> bool:
        if not self._terms:
            return True
        order = 1
        for t in self._terms:
            order = _oracle_lcm(order, t.denominator)
        coeffs = [Fraction(0)] * order
        for t, c in self._terms.items():
            coeffs[int(t * order)] += c
        _, rem = _oracle_poly_divmod(coeffs, list(oracle_cyclotomic_polynomial(order)))
        return all(c == 0 for c in rem)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OracleRootSum):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    def as_complex(self) -> complex:
        return sum(
            (float(c) * cmath.exp(2j * cmath.pi * float(t)) for t, c in self._terms.items()),
            0j,
        )

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*e({t})" for t, c in sorted(self._terms.items()))
        return f"OracleRootSum({body or '0'})"
