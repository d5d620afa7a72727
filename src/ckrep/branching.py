"""Branching function systems over a transition matrix.

A branching function system is a family {f_i} of partial injections on a
countable carrier with pairwise disjoint ranges covering the carrier and
D(f_i) equal to the union of the ranges R(f_j) over the symbols j that i
may precede.  This module holds finite truncations of such systems:
axiom validation, the coding map, orbit/cycle/chain analysis, direct sums,
and the explicit constructions (cycle carriers, chain carriers, the
standard system on {1..B}, and a fixed-width stand-in for the one-sided
shift).

Truncation honesty: a carrier point is *frontier* when some axiom-relevant
datum (an image under some f_i, or the coding preimage) falls outside the
truncation.  Axioms and component structure are asserted only on the
non-frontier part; nothing is ever guessed past the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import filterfalse, repeat
from typing import Callable, Container, Iterable, Sequence, Union

from .words import (
    NotAdmissibleError,
    NotCyclicallyAdmissibleError,
    TailWord,
    TransitionMatrix,
    Word,
    admissible_words,
    format_word,
    is_cyclically_admissible,
    tail_is_admissible,
    _border_length,
)

Label = Union[int, str]

#: A source of chain letters: an eventually periodic tail, or an arbitrary
#: generator mapping 1-based positions to symbols (declared non-eventually
#: periodic; its equivalence class is opaque beyond object identity).
TailSource = Union[TailWord, Callable[[int], int]]


class BranchingError(ValueError):
    """A branching-system argument violates an operation contract."""


class MatrixMismatchError(BranchingError):
    pass


class UnresolvedPointError(BranchingError):
    pass


class InvalidSystemError(BranchingError):
    pass


class DumpFormatError(BranchingError):
    pass


@dataclass(frozen=True, eq=False)
class BranchingSystem:
    """A finite truncation of a branching function system.

    `maps[i]` is the recorded part of the partial injection f_i (domain
    point -> image point); `frontier` marks points with incomplete data.
    Immutable after construction; analyses are pure.
    """

    matrix: TransitionMatrix
    carrier: tuple[Label, ...]
    maps: dict[int, dict[Label, Label]]
    frontier: frozenset[Label]
    origin: str = "custom"
    declared_tails: dict[Label, TailSource] = field(default_factory=dict)

    @cached_property
    def position(self) -> dict[Label, int]:
        return {x: k for k, x in enumerate(self.carrier)}

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def owner(self) -> dict[Label, tuple[int, Label]]:
        """For each recorded image y = f_i(x), the pair (i, x).

        Raises InvalidSystemError if two recorded edges share an image.
        """
        maps = [self.maps.get(i, {}) for i in range(1, self.n + 1)]
        out: dict[Label, tuple[int, Label]] = {}
        for i, edges in enumerate(maps, start=1):
            out.update(zip(edges.values(), zip(repeat(i), edges)))
        if len(out) < sum(map(len, maps)):
            first: dict[Label, int] = {}
            for i, edges in enumerate(maps, start=1):
                for y in edges.values():
                    if y in first:
                        raise InvalidSystemError(
                            f"point {y!r} lies in two ranges: {first[y]} and {i}"
                        )
                    first[y] = i
        return out


@dataclass(frozen=True)
class Violation:
    kind: str
    symbols: tuple[int, ...]
    points: tuple[Label, ...]
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checked_points: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _edge_violations(f: BranchingSystem) -> list[Violation]:
    violations: list[Violation] = []
    owner: dict[Label, tuple[int, Label]] = {}
    for i in range(1, f.n + 1):
        images: dict[Label, Label] = {}
        for x in sorted(f.maps.get(i, {}), key=f.position.get):
            y = f.maps[i][x]
            if y in images:
                violations.append(Violation("InjectivityFail", (i,), (images[y], x, y)))
            else:
                images[y] = x
            if y in owner and owner[y][0] != i:
                violations.append(Violation("RangeOverlap", (owner[y][0], i), (y,)))
            else:
                owner.setdefault(y, (i, x))
    return violations


def _outside(points: Iterable[Label], *sets: Container[Label]) -> Iterable[Label]:
    """The points that lie in none of `sets`, lazily."""
    for s in sets:
        points = filterfalse(s.__contains__, points)
    return points


def _axiom_scan(f: BranchingSystem) -> tuple[int, list[Violation], list[tuple]]:
    """One pass over the recorded data, shared by both axiom reports.

    Returns the number of non-frontier points, the injectivity and
    range-overlap failures edge by edge in carrier order (the position
    sort runs only when some image repeats), and the suspect points in
    carrier order with their membership in D(f_i) and in R(f_i).  Suspect
    means non-frontier and in no range, in two or more, or in just one of
    D(f_i) and the union of R(f_j) over j with a_ij = 1; at every other
    point every per-point axiom holds.
    """
    frontier = f.frontier
    maps = [f.maps.get(i, {}) for i in range(1, f.n + 1)]
    ranges = [set(m.values()) for m in maps]
    overlap: set[Label] = set()
    for k, r in enumerate(ranges):
        for other in ranges[k + 1 :]:
            overlap |= r & other
    suspect = set(_outside(overlap, frontier))
    for row, m in zip(f.matrix.rows, maps):
        feeders = [r for a_ij, r in zip(row, ranges) if a_ij]
        suspect.update(_outside(m, *feeders, frontier))
        for r in feeders:
            suspect.update(_outside(r, m, frontier))
    suspect.update(_outside(f.carrier, *ranges, frontier))
    injective = all(len(r) == len(m) for r, m in zip(ranges, maps))
    return (
        len(f.carrier) - sum(map(frontier.__contains__, f.carrier)),
        [] if injective and not overlap else _edge_violations(f),
        [
            (x, tuple(x in m for m in maps), tuple(x in r for r in ranges))
            for x in (f.carrier if suspect else ())
            if x in suspect
        ],
    )


def validate_bfs(f: BranchingSystem) -> ValidationReport:
    """Check the system axioms on all recorded data.

    Injectivity and range disjointness are checked globally; coverage
    (every point in exactly one range) and the domain law
    D(f_i) = union of R(f_j) over j with a_ij = 1 are checked at every
    non-frontier point.  Violations are report entries, not exceptions.
    """
    checked, violations, suspects = _axiom_scan(f)
    for x, in_domain, in_range in suspects:
        if not any(in_range):
            violations.append(Violation("NotCovered", (), (x,)))
        for i, (row, recorded) in enumerate(zip(f.matrix.rows, in_domain), start=1):
            if recorded != any(a_ij and r for a_ij, r in zip(row, in_range)):
                violations.append(
                    Violation(
                        "DomainMismatch",
                        (i,),
                        (x,),
                        "recorded" if recorded else "missing",
                    )
                )
    return ValidationReport(checked_points=checked, violations=tuple(violations))


@dataclass(frozen=True)
class CodingMap:
    """The left inverse F of the system: F(f_i(x)) = x.

    Defined on non-frontier points; each entry is (symbol, preimage).
    """

    entries: dict[Label, tuple[int, Label]]

    def __call__(self, point: Label) -> tuple[int, Label]:
        if point not in self.entries:
            raise UnresolvedPointError(f"coding data for {point!r} is outside the truncation")
        return self.entries[point]


def coding_map(f: BranchingSystem) -> CodingMap:
    owner = f.owner
    return CodingMap({y: owner[y] for y in f.carrier if y not in f.frontier and y in owner})


@dataclass(frozen=True)
class ComponentSkeleton:
    """One orbit of the system inside the truncation.

    kind "cycle": `word` is the cycle word read from `points[0]` and
    f_{word[l]}(points[l+1]) = points[l] around the cycle.
    kind "chain": the system was built from a declared tail; `word` is the
    observed prefix and `points` the chain spine.
    kind "unresolved": the orbit leaves through the frontier with no
    declared tail; `word` is the observed coding prefix.
    """

    kind: str
    word: Word
    points: tuple[Label, ...]
    basin: tuple[Label, ...]
    declared: TailSource | None = None


def find_components(f: BranchingSystem) -> tuple[ComponentSkeleton, ...]:
    """Partition the truncation into orbits and classify each one.

    Follows the coding map from a deterministic start until it either
    closes (cycle, provided the whole cycle is non-frontier) or exits
    through the frontier (chain when the system declares a tail for the
    orbit, unresolved otherwise).  Orbits with no non-frontier point are
    truncation noise and are not reported.
    """
    owner = f.owner  # raises on range overlaps
    # The coding map is a functional graph: a point joins the group of the
    # first labelled point its forward walk meets, or opens a new group.
    # Groups come in order of first point, each in carrier order.
    label: dict[Label, int] = {}
    groups: list[list[Label]] = []
    for x in f.carrier:
        g = label.get(x)
        if g is None and x in owner:
            g = label.get(owner[x][1])  # the usual case: one step suffices
        if g is None:
            path = [x]
            label[x] = fresh = len(groups)
            cur = x
            while cur in owner and (g := label.get(cur := owner[cur][1])) is None:
                path.append(cur)
                label[cur] = fresh
            if g is None or g == fresh:
                g = fresh
                groups.append([])
            else:
                for p in path:
                    label[p] = g
        label[x] = g
        groups[g].append(x)

    def walk(start: Label) -> tuple[list[Label], list[int], Label | None]:
        # Follow F until a repeat (returns repeat point) or a dead end.
        seen: dict[Label, int] = {}
        points: list[Label] = []
        letters: list[int] = []
        cur = start
        while cur not in seen:
            seen[cur] = len(points)
            points.append(cur)
            if cur not in owner:
                return points, letters, None
            sym, nxt = owner[cur]
            letters.append(sym)
            cur = nxt
        return points, letters, cur

    components: list[ComponentSkeleton] = []
    for group in groups:
        if f.frontier.issuperset(group):
            continue
        basin = tuple(group)
        points, letters, revisit = walk(group[0])
        if revisit is not None:
            cycle_pts = points[points.index(revisit):]
            # restart at the cycle's first-in-carrier point for determinism
            on_cycle = set(cycle_pts)
            anchor = next(x for x in group if x in on_cycle)
            cyc_points: list[Label] = []
            cyc_word: list[int] = []
            cur = anchor
            for _ in cycle_pts:
                cyc_points.append(cur)
                sym, cur = owner[cur]
                cyc_word.append(sym)
            kind = "cycle" if f.frontier.isdisjoint(cyc_points) else "unresolved"
            components.append(
                ComponentSkeleton(
                    kind=kind,
                    word=tuple(cyc_word),
                    points=tuple(cyc_points),
                    basin=basin,
                )
            )
            continue
        anchors = [x for x in group if x in f.declared_tails]
        if len(anchors) == 1:
            a_points, a_letters, a_repeat = walk(anchors[0])
            if a_repeat is None:
                components.append(
                    ComponentSkeleton(
                        kind="chain",
                        word=tuple(a_letters),
                        points=tuple(a_points),
                        basin=basin,
                        declared=f.declared_tails[anchors[0]],
                    )
                )
                continue
        components.append(
            ComponentSkeleton(
                kind="unresolved",
                word=tuple(letters),
                points=tuple(points),
                basin=basin,
            )
        )
    return tuple(components)


def direct_sum(*systems: BranchingSystem) -> BranchingSystem:
    """Disjoint union; labels gain a "<part>:" prefix."""
    if not systems:
        raise BranchingError("direct_sum needs at least one system")
    first = systems[0]
    for g in systems[1:]:
        if g.matrix.rows != first.matrix.rows:
            raise MatrixMismatchError("summands live over different matrices")

    def tag(k: int, x: Label) -> str:
        return f"{k}:{x}"

    carrier: list[Label] = []
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, first.n + 1)}
    frontier: set[Label] = set()
    declared: dict[Label, TailSource] = {}
    for k, g in enumerate(systems):
        carrier.extend(tag(k, x) for x in g.carrier)
        for i in range(1, g.n + 1):
            for x, y in g.maps.get(i, {}).items():
                maps[i][tag(k, x)] = tag(k, y)
        frontier.update(tag(k, x) for x in g.frontier)
        for x, src in g.declared_tails.items():
            declared[tag(k, x)] = src
    return BranchingSystem(
        matrix=first.matrix,
        carrier=tuple(carrier),
        maps=maps,
        frontier=frozenset(frontier),
        origin="sum",
        declared_tails=declared,
    )


def _separator(n: int) -> str:
    """The label rule for points named by a word over n symbols.

    The label of a word is its symbols joined by `_separator(n)`: nothing
    when n <= 9 (the word literal), "." when n >= 10.  Distinct words get
    distinct labels, and no label contains a dump separator.
    """
    return "" if n <= 9 else "."


def _grow_trees(
    a: TransitionMatrix,
    level: list[tuple[int, str]],
    depth: int,
    carrier: list[Label],
    maps: dict[int, dict[Label, Label]],
) -> set[Label]:
    """Append the branch points `level`, pairs (first symbol, label), and
    their feeding trees to tree depth `depth` to `carrier` and `maps`.

    Each child (i,)+w is created with its edge f_i(w) and the label of w
    prefixed by symbol i; returns the points at the depth bound, whose
    images lie outside the truncation.
    """
    sep = _separator(a.n)
    prefix = [f"{i}{sep}" for i in range(a.n + 1)]
    carrier.extend(x for _, x in level)
    for _ in range(depth):
        children: list[tuple[int, str]] = []
        for s, x in level:
            for i in a.predecessors(s):
                maps[i][x] = y = prefix[i] + x
                children.append((i, y))
        carrier.extend(y for _, y in children)
        level = children
    assert len(set(carrier)) == len(carrier)
    return {x for _, x in level}


def build_cycle_system(a: TransitionMatrix, word: Word, depth: int) -> BranchingSystem:
    """The cycle carrier for a cyclically admissible word.

    Carrier points are multiindices: the suffixes of `word` (the cycle,
    the full word first), the one-letter side branches that are not cycle
    edges, and the feeding trees on those branches, truncated to tree
    depth `depth`.  Maps prepend their symbol, except the single wrap edge
    sending the full word to its last suffix.  Tree leaves at the depth
    bound are frontier.
    """
    if not word or not is_cyclically_admissible(a, word):
        raise NotCyclicallyAdmissibleError(f"{format_word(word)} is not cyclically admissible")
    if depth < 0:
        raise BranchingError("depth must be >= 0")
    sep = _separator(a.n)
    suffixes = [sep.join(map(str, word[l:])) for l in range(len(word))]
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    branches: list[tuple[int, str]] = []
    for l, x in enumerate(suffixes):
        prev = word[l - 1]  # letter before position l+1, cyclically
        for i in a.predecessors(word[l]):
            if i == prev:  # at l = 0 the wrap edge to the last suffix
                maps[i][x] = suffixes[l - 1]
            else:
                maps[i][x] = y = f"{i}{sep}{x}"
                branches.append((i, y))
    carrier: list[Label] = list(suffixes)
    frontier = _grow_trees(a, branches, depth, carrier, maps)
    return BranchingSystem(
        matrix=a,
        carrier=tuple(carrier),
        maps=maps,
        frontier=frozenset(frontier),
        origin="cycle",
    )


def _chain_letters(a: TransitionMatrix, source: TailSource, count: int) -> list[int]:
    if isinstance(source, TailWord):
        if not tail_is_admissible(a, source):
            raise NotAdmissibleError(f"tail {source} is not admissible")
        return [source.letter(m) for m in range(1, count + 1)]
    letters = [source(m) for m in range(1, count + 1)]
    for m, letter in enumerate(letters, start=1):
        if not 1 <= letter <= a.n:
            raise NotAdmissibleError(f"generator letter {letter} at {m} outside 1..{a.n}")
    for m in range(1, count):
        if not a.entry(letters[m - 1], letters[m]):
            raise NotAdmissibleError(
                f"generator letters {letters[m-1]},{letters[m]} break admissibility at {m}"
            )
    return letters


def build_chain_system(
    a: TransitionMatrix, source: TailSource, chain_len: int, depth: int
) -> BranchingSystem:
    """The chain carrier for an infinite word given by `source`.

    Spine points 1..chain_len with f_{j_{m-1}}(m) = m-1, side branches
    "(j)@m" for the symbols that enter position m without being the chain
    edge (all of them at m = 1), and feeding trees to `depth`.  The spine
    end and the tree boundary are frontier; the spine head declares the
    source, so the orbit classifies as a chain.
    """
    if chain_len < 2:
        raise BranchingError("chain_len must be >= 2")
    if depth < 0:
        raise BranchingError("depth must be >= 0")
    letters = _chain_letters(a, source, chain_len)
    carrier: list[Label] = list(range(1, chain_len + 1))
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    branches: list[tuple[int, str]] = []
    for m in range(1, chain_len + 1):
        for i in a.predecessors(letters[m - 1]):
            if m >= 2 and i == letters[m - 2]:
                maps[i][m] = m - 1
            else:
                maps[i][m] = y = f"{i}@{m}"
                branches.append((i, y))
    frontier = _grow_trees(a, branches, depth, carrier, maps)
    frontier.add(chain_len)  # its coding preimage is chain_len + 1
    return BranchingSystem(
        matrix=a,
        carrier=tuple(carrier),
        maps=maps,
        frontier=frozenset(frontier),
        origin="chain",
        declared_tails={1: source},
    )


@dataclass(frozen=True)
class ACoordinate:
    """Per-row data (B_i, M_i, q_i) of the standard system.

    q_i ranks the members of B_i = {j : a_ij = 1}; it is the order
    isomorphism onto {1..M_i}.
    """

    b_sets: tuple[tuple[int, ...], ...]

    def m(self, i: int) -> int:
        return len(self.b_sets[i - 1])

    def q(self, i: int, j: int) -> int:
        return self.b_sets[i - 1].index(j) + 1


def a_coordinate(a: TransitionMatrix) -> ACoordinate:
    return ACoordinate(tuple(a.successors(i) for i in range(1, a.n + 1)))


def standard_bfs(a: TransitionMatrix, truncation: int) -> BranchingSystem:
    """The standard system on {1..B}: f_i(N(m-1)+j) = N(M_i(m-1)+q_i(j)-1)+i.

    R(f_i) is the residue class of i; the formula is invertible, so a point
    is frontier exactly when one of its images or its unique preimage lands
    beyond the truncation.
    """
    n = a.n
    if truncation < n:
        raise BranchingError(f"truncation must be >= {n}")
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, n + 1)}
    frontier: set[Label] = set()
    for i in range(1, n + 1):
        b_set = a.successors(i)
        for q, j in enumerate(b_set):
            # preimages N(m-1)+j and images N(M_i(m-1)+q)+i, m = 1, 2, ...:
            # an unpaired tail of either progression is frontier
            sources = range(j, truncation + 1, n)
            images = range(n * q + i, truncation + 1, n * len(b_set))
            maps[i].update(zip(sources, images))
            frontier.update(sources[len(images):], images[len(sources):])
    return BranchingSystem(
        matrix=a,
        carrier=tuple(range(1, truncation + 1)),
        maps=maps,
        frontier=frozenset(frontier),
        origin="standard",
    )


def phi_map(a: TransitionMatrix) -> dict[int, int]:
    """The min-successor map i -> min{j : a_ij = 1}."""
    return {i: min(a.successors(i)) for i in range(1, a.n + 1)}


@dataclass(frozen=True)
class ACycleSet:
    """Cycle words of the min-successor map, split by multiplicity.

    `once` lists the cycles appearing once in the standard system;
    `infinite` those whose letters all sit on delta rows, which recur with
    infinite multiplicity.
    """

    cycles: tuple[Word, ...]
    once: tuple[Word, ...]
    infinite: tuple[Word, ...]


def a_cycle_set(a: TransitionMatrix) -> ACycleSet:
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


def _periodic_extension(word: Word) -> int:
    """The next letter when `word` continues with its minimal period."""
    return word[_border_length(word)]


def shift_bfs(a: TransitionMatrix, word_len: int) -> BranchingSystem:
    """Fixed-width stand-in for the shift system on one-sided sequences.

    Points are admissible words of length `word_len` standing for the
    sequences extending them.  Each point's coding image drops the first
    letter and extends by the minimal period of the remainder, which is
    the true shift for genuinely periodic points of period at most
    word_len/2; everything whose extension is not forced this way is
    frontier.  Only cycle detection up to that period is claimed.
    """
    if word_len < 2:
        raise BranchingError("word_len must be >= 2")
    sep = _separator(a.n)
    label = {w: sep.join(map(str, w)) for w in admissible_words(a, word_len)}
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    backward_defined: set[Word] = set()
    for y in label:
        rest = y[1:]
        ext = _periodic_extension(rest)
        if a.entry(y[-1], ext):
            x = rest + (ext,)
            maps[y[0]][label[x]] = label[y]
            backward_defined.add(y)
    frontier = {
        label[w]
        for w in label
        if not (w in backward_defined and _periodic_extension(w[:-1]) == w[-1])
    }
    return BranchingSystem(
        matrix=a,
        carrier=tuple(label.values()),
        maps=maps,
        frontier=frozenset(frontier),
        origin="shift",
    )


def truncated_from_rules(
    a: TransitionMatrix,
    size: int,
    rules: Sequence[tuple[Callable[[int], bool], Callable[[int], int]]],
) -> BranchingSystem:
    """Truncate a system given on all of {1,2,...} by per-symbol rules.

    `rules[i-1]` is a (domain test, image) pair describing f_i on the full
    carrier.  Points whose image escapes {1..size}, or that no recorded
    edge covers, are frontier; coverage gaps are attributed to the
    truncation, so the rules are trusted to describe a genuine system.
    """
    if len(rules) != a.n:
        raise BranchingError(f"need {a.n} rules, got {len(rules)}")
    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, a.n + 1)}
    frontier: set[Label] = set()
    covered: set[int] = set()
    for i, (dom, img) in enumerate(rules, start=1):
        for x in range(1, size + 1):
            if dom(x):
                y = img(x)
                if y < 1:
                    raise BranchingError(f"rule {i} sends {x} to {y}, below the carrier")
                if y <= size:
                    maps[i][x] = y
                    covered.add(y)
                else:
                    frontier.add(x)
    frontier.update(x for x in range(1, size + 1) if x not in covered)
    return BranchingSystem(
        matrix=a,
        carrier=tuple(range(1, size + 1)),
        maps=maps,
        frontier=frozenset(frontier),
        origin="rules",
    )


def dump_bfs(f: BranchingSystem) -> str:
    """Line format: header "N B", one "i: x->y, ..." line per symbol.

    Frontier points carry a "~" prefix at each occurrence; points with no
    incident edge are listed on a trailing "0:" line.  Labels may not
    contain the separators.
    """

    def fmt(x: Label) -> str:
        s = str(x)
        if any(tok in s for tok in (",", "->", "~", " ")):
            raise DumpFormatError(f"label {s!r} clashes with the dump separators")
        return f"~{s}" if x in f.frontier else s

    def order(x: Label) -> tuple[int, str]:
        # label-intrinsic ordering so a dump survives a load/dump cycle
        return (len(str(x)), str(x))

    lines = [f"{f.n} {len(f.carrier)}"]
    touched: set[Label] = set()
    for i in range(1, f.n + 1):
        edges = sorted(f.maps.get(i, {}).items(), key=lambda e: order(e[0]))
        lines.append(f"{i}: " + ", ".join(f"{fmt(x)}->{fmt(y)}" for x, y in edges))
        touched.update(x for x, _ in edges)
        touched.update(y for _, y in edges)
    isolated = sorted((x for x in f.carrier if x not in touched), key=order)
    if isolated:
        lines.append("0: " + ", ".join(fmt(x) for x in isolated))
    return "\n".join(lines) + "\n"


def load_bfs(text: str, matrix: TransitionMatrix) -> BranchingSystem:
    """Parse the dump format back into a system over the given matrix.

    Labels are opaque in the text format and come back as strings; the
    carrier keeps first-mention order.  Components and decompositions do
    not depend on either choice.
    """
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

    frontier: set[Label] = set()
    carrier: list[Label] = []
    seen: set[Label] = set()

    def intern(token: str) -> Label:
        token = token.strip()
        is_front = token.startswith("~")
        if is_front:
            token = token[1:]
        label: Label = token
        if label not in seen:
            seen.add(label)
            carrier.append(label)
        if is_front:
            frontier.add(label)
        return label

    maps: dict[int, dict[Label, Label]] = {i: {} for i in range(1, n + 1)}
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
            target, source = intern(dst), intern(src)  # carrier order: target first
            if source in maps[sym]:
                raise DumpFormatError(f"symbol {sym} maps {source!r} twice")
            maps[sym][source] = target
    if len(carrier) != size:
        raise DumpFormatError(f"header says {size} points, found {len(carrier)}")
    return BranchingSystem(
        matrix=matrix,
        carrier=tuple(carrier),
        maps=maps,
        frontier=frozenset(frontier),
        origin="loaded",
    )
