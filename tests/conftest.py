"""Shared fixtures: the matrix corpus and independent brute-force oracles.

The oracles deliberately avoid the library's own algorithms: rotation
minima are taken by base-N positional value over all rotations, periodicity
by trying every proper divisor, and cyclic words by filtering the full
cartesian product.  The axiom and component oracles are the direct
definitions: every axiom at every point and symbol, both defining
relations counted on the basis vectors, and orbits by union-find over
the edges.  The multiplicity oracle counts the fixed points of f_w along
the images, with no orbit walk.  The cyclotomic oracle is the earlier
`RootSum`, which keys each term by its reduced rational turn and derives
the order from the denominators at each zero test.  The enumeration
oracle is the earlier grow-and-filter enumeration, which keeps each
cyclically admissible word that equals its least rotation; the class
counts per length come independently from the trace formula.  The
carrier oracles are the earlier cycle, chain and shift constructors,
which list every point word first (the trees from `tree` below) and then
find each point's edges and frontier status by membership in that list.
The cycle-set oracle is the earlier `a_cycle_set`, which reads each cycle
word off a second walk and tests each row on it against a delta row.
The dump oracles are the earlier `dump_bfs` and `load_bfs`, which format,
check and intern one endpoint at a time.  The vector oracles are the
earlier root-sum-valued vector calculus, on `OracleRootSum`, so they
share no arithmetic with the library: a vector maps carrier labels to
`OracleRootSum` coefficients, and each twisted edge multiplies by the
twist's `OracleRootSum`.  The phase oracle is the earlier `Phase`, which
keeps an exact phase as a `Fraction` of a turn, with the earlier
`format_phase`, `phase_json` and `phases_equal` that read it.

Every test runs under a time limit, so a loop that never ends fails its
test instead of hanging the run.
"""

from __future__ import annotations

import cmath
import itertools
import random
import signal
import threading
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import pytest

from ckrep.branching import (
    BranchingError,
    BranchingSystem,
    ComponentSkeleton,
    DumpFormatError,
    Label,
    TailSource,
    ValidationReport,
    Violation,
    _chain_letters,
    _periodic_extension,
    standard_bfs,
)
from ckrep.cycles import ACycleSet, phi_map
from ckrep.phases import APPROX_TOL, Phase, PhaseError
from ckrep.realization import MatrixRealization
from ckrep.reps import Decomposition, cross_check_standard, decompose_standard
from ckrep.words import (
    EmptyWordError,
    NotCyclicallyAdmissibleError,
    SymbolOutOfRangeError,
    TransitionMatrix,
    Word,
    WordError,
    _Key,
    admissible_words,
    canonical_rotation,
    format_word,
    is_cyclically_admissible,
    is_periodic,
    validate_matrix,
)

# Seconds a test may run; the slowest test takes about 5 s.
TEST_TIME_LIMIT = 60


class TimeLimitExceeded(BaseException):
    """A test ran past TEST_TIME_LIMIT.  Not an Exception, so hypothesis
    does not catch it and replay the example."""


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail the test once it has run TEST_TIME_LIMIT seconds of wall time.

    The alarm interrupts Python code only, and only on the main thread,
    where signal handlers run.  It goes off again every second after the
    limit, in case the test catches it."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT, 1)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def checked_standard(a: TransitionMatrix, bound: int) -> Decomposition:
    """The structural standard decomposition of `a`, checked against the
    system truncated at `bound`, as `ck decompose-standard` runs them."""
    d = decompose_standard(a)
    cross_check_standard(d, standard_bfs(a, bound))
    return d


def all_words(n: int, length: int):
    return itertools.product(range(1, n + 1), repeat=length)


def rotate(word: Word, r: int) -> Word:
    """The r-step cyclic rotation (symbols move r places to the left)."""
    if not word:
        raise EmptyWordError("cannot rotate the empty word")
    r %= len(word)
    return word[r:] + word[:r]


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


def oracle_a_cycle_set(a: TransitionMatrix) -> ACycleSet:
    """The earlier `a_cycle_set`: each cycle word is read off by a second
    walk from its least letter, and a cycle is infinite when every row on
    it is the delta row at the next letter."""
    phi = phi_map(a)
    seen: set[int] = set()
    cycles: list[Word] = []
    for start in range(1, a.n + 1):
        if start in seen:
            continue
        trail = []
        v = start
        while v not in seen:
            seen.add(v)
            trail.append(v)
            v = phi[v]
        if v in trail:  # new cycle closed within this walk
            cyc = trail[trail.index(v):]
            head = min(cyc)
            word = [head]
            w = phi[head]
            while w != head:
                word.append(w)
                w = phi[w]
            cycles.append(tuple(word))

    def is_delta_cycle(word: Word) -> bool:
        k = len(word)
        for idx, i in enumerate(word):
            nxt = word[(idx + 1) % k]
            row = a.rows[i - 1]
            if any(row[j] != (1 if j == nxt - 1 else 0) for j in range(a.n)):
                return False
        return True

    cycles.sort(key=lambda w: (len(w), w))
    infinite = tuple(w for w in cycles if is_delta_cycle(w))
    once = tuple(w for w in cycles if not is_delta_cycle(w))
    return ACycleSet(cycles=tuple(cycles), once=once, infinite=infinite)


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


def _second_edge_message(j, w, i, x, y) -> str:
    """The refusal of the edge f_i(x) = y when f_j(w) = y was read first."""
    if i == j:
        return f"symbol {i} maps {w!r} and {x!r} to {y!r}"
    return f"point {y!r} lies in two ranges: {j} and {i}"


def oracle_second_edge(maps: dict) -> str | None:
    """Why label-level maps {i: {x: f_i(x)}} name no system, read symbol
    by symbol and each in its own order: the first edge into a point that
    an earlier edge already enters, or None when every point has at most
    one incoming edge."""
    first: dict = {}
    for i in sorted(maps):
        for x, y in maps[i].items():
            if y in first:
                return _second_edge_message(*first[y], i, x, y)
            first[y] = (i, x)
    return None


def oracle_validate_bfs(f: BranchingSystem) -> ValidationReport:
    """The system axioms checked point by point and symbol by symbol."""
    a = f.matrix
    violations: list[Violation] = []
    ranges = {i: set(f.maps.get(i, {}).values()) for i in range(1, f.n + 1)}
    checked = 0
    for x in f.carrier:
        if x in f.frontier:
            continue
        checked += 1
        covering = [j for j in range(1, f.n + 1) if x in ranges[j]]
        if not covering:
            violations.append(Violation("NotCovered", (), (x,)))
        for i in range(1, f.n + 1):
            in_domain = x in f.maps.get(i, {})
            should = any(a.entry(i, j) for j in covering)
            if in_domain != should:
                violations.append(
                    Violation("DomainMismatch", (i,), (x,), "recorded" if in_domain else "missing")
                )
    return ValidationReport(checked_points=checked, violations=tuple(violations))


def oracle_relations_hold(f: BranchingSystem) -> bool:
    """Both defining relations, counted on the basis vectors of the
    realization (unit weights drop out).  s_j s_j^* e_y is
    |f_j^{-1}(y)| e_y, so the cover sum over j of those counts must be at
    most 1 at every point, frontier included, and exactly 1 at every
    non-frontier point; there s_i^* s_i e_x = [x in D(f_i)] e_x must
    equal the sum over j with a_ij = 1 of the counts at x."""
    counts = {j: Counter(f.maps.get(j, {}).values()) for j in range(1, f.n + 1)}
    cover = sum(counts.values(), Counter())
    if any(c > 1 for c in cover.values()):
        return False
    for x in f.carrier:
        if x in f.frontier:
            continue
        if cover[x] != 1:
            return False
        for i in range(1, f.n + 1):
            rhs = sum(counts[j][x] for j in range(1, f.n + 1) if f.matrix.entry(i, j))
            if (x in f.maps.get(i, {})) != rhs:
                return False
    return True


def oracle_orbits(f: BranchingSystem) -> list[tuple]:
    """The orbits of the system by union-find over every edge, each in
    carrier order, in order of first carrier point."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for x in f.carrier:
        find(x)
    for m in f.maps.values():
        for x, y in m.items():
            parent[find(x)] = find(y)
    groups: dict = {}
    for x in f.carrier:
        groups.setdefault(find(x), []).append(x)
    return [tuple(group) for group in groups.values()]


def oracle_find_components(f: BranchingSystem) -> tuple[ComponentSkeleton, ...]:
    """Orbits by union-find over every edge, each classified by walking
    the coding map from the orbit's first carrier point; an unresolved
    orbit reports the number of points in its union-find basin."""
    owner = {y: (i, x) for i, m in f.maps.items() for x, y in m.items()}

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
    for basin in oracle_orbits(f):
        if all(x in f.frontier for x in basin):
            continue
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
            size = len(basin) if kind == "unresolved" else None
            out.append(ComponentSkeleton(kind, tuple(cyc_word), tuple(cyc_points), size))
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
                        declared=f.declared_tails[anchors[0]],
                    )
                )
                continue
        out.append(ComponentSkeleton("unresolved", tuple(letters), tuple(points), len(basin)))
    return tuple(out)


def oracle_fixed_point_multiplicities(
    f: BranchingSystem, phases: dict | None = None, max_len: int = 6
) -> Counter:
    """The multiplicity of each primitive finite class of length at most
    `max_len`, counted from fixed points instead of walked components.

    S_w e_x = c e_{f_w(x)}, with f_w = f_{w_1} ... f_{w_k} (the last letter
    acts first) and c the product of the twists met on the way.  So for a
    primitive w in minimal rotation, P(w; z) has one copy for each point
    x with f_w(x) = x whose loop has no frontier point and phase product
    z: each cycle of class w has exactly one point that reads w.  Keys
    are (w, t), t the phase product as a Fraction of a turn in [0, 1).
    Exact phases only.  The search reads the label-level maps, forward
    from every non-frontier point, and never steps onto the frontier."""
    twist = {key: Fraction(*p.pair) for key, p in (phases or {}).items()}
    counts: Counter = Counter()

    def search(start, cur, word: Word, turns: Fraction) -> None:
        for i in range(1, f.n + 1):
            y = f.maps[i].get(cur)
            if y is None or y in f.frontier:
                continue
            longer, t = (i,) + word, (turns + twist.get((i, cur), 0)) % 1
            if y == start and not brute_is_periodic(longer) and longer == brute_min_rotation(longer, f.n):
                counts[longer, t] += 1
            if len(longer) < max_len:
                search(start, y, longer, t)

    for x in f.carrier:
        if x not in f.frontier:
            search(x, x, (), Fraction(0))
    return counts


@dataclass(frozen=True)
class TreeNodeSet:
    """Truncation of the tree of admissible words hanging off one symbol."""

    root: int
    depth: int
    side: str  # "in": words that may precede root; "out": words root may precede
    words: tuple[Word, ...]


def tree(a: TransitionMatrix, j: int, depth: int, side: str) -> TreeNodeSet:
    """Words of length 1..depth feeding into j (side="in", a_{last,j}=1)
    or flowing out of j (side="out", a_{j,first}=1)."""
    if not 1 <= j <= a.n:
        raise SymbolOutOfRangeError(f"symbol {j} outside 1..{a.n}")
    if side not in ("in", "out"):
        raise WordError(f"side must be 'in' or 'out', got {side!r}")
    levels: list[list[Word]] = []
    if depth >= 1:
        if side == "in":
            current = [(i,) for i in a.predecessors(j)]
        else:
            current = [(i,) for i in a.successors(j)]
        levels.append(current)
        for _ in range(depth - 1):
            if side == "in":
                # grow to the left so the last letter keeps feeding j
                current = [(i,) + w for w in current for i in a.predecessors(w[0])]
            else:
                current = [w + (i,) for w in current for i in a.successors(w[-1])]
            current.sort()
            levels.append(current)
    members = tuple(w for level in levels for w in sorted(level))
    return TreeNodeSet(root=j, depth=depth, side=side, words=members)


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
    )


def oracle_dump_bfs(f: BranchingSystem) -> str:
    """The dump written endpoint by endpoint: each one is checked against
    the separators as it is formatted, and points are ordered by a
    `(len, label)` key."""
    names = [str(x) for x in f.labels]

    def fmt(x: int) -> str:
        s = names[x]
        if any(tok in s for tok in (",", "->", "~", " ")):
            raise DumpFormatError(f"label {s!r} clashes with the dump separators")
        return f"~{s}" if f.front[x] else s

    order = sorted(range(len(names)), key=lambda x: (len(names[x]), names[x]))
    lines = [f"{f.n} {len(names)}"]
    for i, img in enumerate(f.images, start=1):
        lines.append(f"{i}: " + ", ".join(f"{fmt(x)}->{fmt(img[x])}" for x in order if img[x] >= 0))
    isolated = [
        fmt(x) for x in order if not f.owner_sym[x] and all(img[x] < 0 for img in f.images)
    ]
    if isolated:
        lines.append("0: " + ", ".join(isolated))
    return "\n".join(lines) + "\n"


# Dumps over the full 2x2 matrix that each name a label the writer refuses,
# with that label: a space inside, a "~" past the first letter, and a "->"
# in a target, where the first "->" splits the edge.
CLASHING_DUMPS = [
    ("2 4\n1: 2->q r, q r->~112\n2: 2->~22, q r->2\n", "q r"),
    ("2 4\n1: 2->x~q, x~q->~112\n2: 2->~22, x~q->2\n", "x~q"),
    ("2 4\n1: 2->12, 12->~1->12\n2: 2->~22, 12->2\n", "1->12"),
]


def oracle_load_bfs(text: str, matrix: TransitionMatrix) -> BranchingSystem:
    """The dump read token by token into per-symbol edge dicts, interning
    each endpoint through one Python call, which refuses a label that
    `oracle_dump_bfs` would refuse or whose ends a load would strip; an
    edge into a point that an edge read earlier enters is refused before
    it reaches the dicts."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise DumpFormatError("empty dump")

    def number(token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise DumpFormatError(f"bad {what} {token!r}") from None

    head = lines[0].split()
    if len(head) != 2:
        raise DumpFormatError(f"bad header {lines[0]!r}")
    n, size = number(head[0], "header field"), number(head[1], "header field")
    if n != matrix.n:
        raise DumpFormatError(f"dump is for {n} symbols, matrix has {matrix.n}")

    frontier: set[int] = set()
    index: dict[str, int] = {}

    def intern(token: str) -> int:
        token = token.strip()
        is_front = token.startswith("~")
        if is_front:
            token = token[1:]
        if any(tok in token for tok in (",", "->", "~", " ")) or token != token.strip():
            raise DumpFormatError(f"label {token!r} clashes with the dump separators")
        x = index.setdefault(token, len(index))
        if is_front:
            frontier.add(x)
        return x

    maps: dict[int, dict[int, int]] = {i: {} for i in range(1, n + 1)}
    entered: dict[int, tuple[int, int]] = {}  # target -> (symbol, source) of its edge, in read order
    for line in lines[1:]:
        sym_text, _, rest = line.partition(":")
        sym = number(sym_text, "symbol")
        if not 0 <= sym <= n:
            raise DumpFormatError(f"bad symbol {sym_text!r}")
        for item in filter(None, (p.strip() for p in rest.split(","))):
            if sym == 0:
                intern(item)
                continue
            if "->" not in item:
                raise DumpFormatError(f"bad edge {item!r}")
            src, dst = item.split("->", 1)
            target, source = intern(dst), intern(src)
            if source in maps[sym]:
                raise DumpFormatError(f"symbol {sym} maps {list(index)[source]!r} twice")
            if target in entered:
                labels = list(index)
                j, w = entered[target]
                raise DumpFormatError(_second_edge_message(j, labels[w], sym, labels[source], labels[target]))
            maps[sym][source] = target
            entered[target] = (sym, source)
    if len(index) != size:
        raise DumpFormatError(f"header says {size} points, found {len(index)}")
    return BranchingSystem._indexed(matrix, list(index), maps, frontier)


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


OracleVector = dict[Label, OracleRootSum]


def _oracle_add_term(vec: OracleVector, label: Label, coeff: OracleRootSum) -> None:
    cur = vec.get(label)
    vec[label] = coeff if cur is None else cur + coeff


def oracle_apply_symbol(m: MatrixRealization, i: int, vec: OracleVector) -> OracleVector:
    out: OracleVector = {}
    f = m.system
    edges, twists = f.images[i - 1], m.weights.get(i, {})
    for x, coeff in vec.items():
        k = f.position.get(x)
        if k is not None and edges[k] >= 0:
            twist = twists.get(x)
            term = coeff if twist is None else coeff * OracleRootSum.from_phase(twist)
            _oracle_add_term(out, f.labels[edges[k]], term)
    return out


def oracle_apply_word(m: MatrixRealization, word: Word, vec: OracleVector) -> OracleVector:
    """s_word = s_{j_1} ... s_{j_k}; the rightmost factor acts first."""
    for i in reversed(word):
        vec = oracle_apply_symbol(m, i, vec)
    return vec


def oracle_inner_product(v: OracleVector, w: OracleVector) -> OracleRootSum:
    total = OracleRootSum.zero()
    for x, c in v.items():
        d = w.get(x)
        if d is not None:
            total = total + c.conjugate() * d
    return total


def oracle_vectors_equal(v: OracleVector, w: OracleVector) -> bool:
    for x in set(v) | set(w):
        if not (v.get(x, OracleRootSum.zero()) - w.get(x, OracleRootSum.zero())).is_zero():
            return False
    return True


class OraclePhase(_Key, namedtuple("OraclePhase", "turns approx")):
    """A unit complex number, exact (rational turns) or approximate.

    Exactly one of ``turns`` / ``approx`` is set.  ``turns`` is reduced to
    ``[0, 1)`` so structural equality of exact phases is semantic equality.
    """

    __slots__ = ()

    def __new__(cls, turns: Fraction | None = None, approx: complex | None = None):
        if (turns is None) == (approx is None):
            raise PhaseError("phase needs exactly one of turns/approx")
        if turns is not None and not 0 <= turns < 1:
            turns = turns % 1
        if approx is not None and not abs(abs(approx) - 1.0) <= APPROX_TOL:  # NaN too
            raise PhaseError(f"|z| = {abs(approx)} is not 1 within {APPROX_TOL}")
        return super().__new__(cls, turns, approx)

    @staticmethod
    def exact(num: int, den: int = 1) -> OraclePhase:
        if den == 0:
            raise PhaseError(f"phase {num}/{den} has a zero denominator")
        return OraclePhase(turns=Fraction(num, den) % 1)

    @staticmethod
    def from_complex(z: complex) -> OraclePhase:
        return OraclePhase(approx=complex(z))

    @property
    def is_exact(self) -> bool:
        return self.turns is not None

    def as_complex(self) -> complex:
        if self.turns is not None:
            return cmath.exp(2j * cmath.pi * float(self.turns))
        return self.approx

    def is_one(self) -> bool:
        if self.turns is not None:
            return self.turns == 0
        return abs(self.approx - 1.0) <= APPROX_TOL

    def __mul__(self, other: OraclePhase) -> OraclePhase:
        if not isinstance(other, OraclePhase):
            return NotImplemented
        if self.turns is not None and other.turns is not None:
            return OraclePhase(turns=(self.turns + other.turns) % 1)
        return OraclePhase(approx=self.as_complex() * other.as_complex())

    def conjugate(self) -> OraclePhase:
        if self.turns is not None:
            return OraclePhase(turns=(-self.turns) % 1)
        return OraclePhase(approx=self.approx.conjugate())

    def root(self, p: int) -> OraclePhase:
        if p < 1:
            raise PhaseError("root order must be >= 1")
        if self.turns is not None:
            return OraclePhase(turns=self.turns / p)
        r, phi = cmath.polar(self.approx)
        return OraclePhase(approx=cmath.rect(1.0, (phi % (2 * cmath.pi)) / p))


def oracle_phases_equal(a: OraclePhase, b: OraclePhase, tol: float = APPROX_TOL) -> bool:
    if a.is_exact and b.is_exact:
        return a.turns == b.turns
    return abs(a.as_complex() - b.as_complex()) <= tol


def oracle_format_phase(p: OraclePhase) -> str:
    if p.is_exact:
        return f"{p.turns.numerator}/{p.turns.denominator}"
    z = p.as_complex()
    return f"{z.real:.12g}{z.imag:+.12g}i"


def oracle_phase_json(p: OraclePhase) -> dict:
    if p.is_exact:
        return {"num": p.turns.numerator, "den": p.turns.denominator}
    z = p.as_complex()
    return {"re": z.real, "im": z.imag}
