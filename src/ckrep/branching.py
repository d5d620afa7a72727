"""Branching function systems over a transition matrix.

A branching function system is a family {f_i} of partial injections on a
countable carrier with pairwise disjoint ranges covering the carrier and
D(f_i) equal to the union of the ranges R(f_j) over the symbols j that i
may precede.  This module holds finite truncations of such systems:
axiom validation, orbit/cycle/chain analysis, direct sums, and the
explicit constructions (cycle carriers, chain carriers, the standard
system on {1..B}, and a fixed-width stand-in for the one-sided shift).
The cycles of the min-successor map, which give the standard system's
decomposition without building it, are `cycles.a_cycle_set`.

Truncation honesty: a carrier point is *frontier* when some axiom-relevant
datum (an image under some f_i, or the coding preimage) falls outside the
truncation.  Axioms and component structure are asserted only on the
non-frontier part; nothing is ever guessed past the boundary.
"""

import sys
from array import array
from collections import Counter, namedtuple
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from functools import cached_property
from itertools import chain, compress, repeat

from .words import (
    CkError,
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

Label = int | str

#: A source of chain letters: an eventually periodic tail, or an arbitrary
#: generator mapping 1-based positions to symbols (declared non-eventually
#: periodic; its equivalence class is opaque beyond object identity).
TailSource = TailWord | Callable[[int], int]


class BranchingError(CkError):
    """A branching-system argument violates an operation contract."""


class MatrixMismatchError(BranchingError):
    pass


class InvalidSystemError(BranchingError):
    pass


class DumpFormatError(BranchingError):
    pass


#: The element type of the index tables: a machine int, 4 bytes per slot.
_INT = "i"
_WIDTH = array(_INT).itemsize
#: Tables hold indices below this bound, so an entry's top byte is 0xFF at -1 only.
_LIMIT = 1 << (8 * _WIDTH - 1)
_TOP = _WIDTH - 1 if sys.byteorder == "little" else 0
_DEFINED = b"\1" * 255 + b"\0"  # byte map: top byte 0xFF (the entry -1) -> 0, else 1


def _table(size: int) -> array:
    """An index table of `size` slots, all -1."""
    return array(_INT, [-1]) * size


def _defined(img: array) -> bytes:
    """One byte per slot: 1 where the entry is an index, 0 where it is -1."""
    return img.tobytes()[_TOP::_WIDTH].translate(_DEFINED)


def _arange(size: int) -> array:
    """The table 0, 1, ..., size-1, written one byte plane at a time.

    Byte k of entry x is (x >> 8k) & 255: each value v < 256 repeated 256^k
    times, the block repeated until it covers `size` entries.  Converting
    `range(size)` entry by entry takes several times longer."""
    planes = bytearray(size * _WIDTH)
    for k in range(_WIDTH):
        run = 1 << 8 * k
        block = b"".join(bytes((v,)) * min(run, size) for v in range(min(256, -(-size // run))))
        at = k if sys.byteorder == "little" else _WIDTH - 1 - k
        planes[at::_WIDTH] = (block * -(-size // len(block)))[:size] if size else b""
    return array(_INT, planes)


def _second_edge(labels: Sequence[Label], j: int, w: int, i: int, x: int, y: int) -> str:
    """Why the edge f_i(x) = y, read after f_j(w) = y, is refused."""
    if i == j:
        return f"symbol {i} maps {labels[w]!r} and {labels[x]!r} to {labels[y]!r}"
    return f"point {labels[y]!r} lies in two ranges: {j} and {i}"


class BranchingSystem:
    """A finite truncation of a branching function system.

    Points are the indices 0..B-1 in carrier order.  `images[i-1][x]` is
    f_i(x), -1 where the recorded part of f_i is undefined; `front[x]` is
    1 at frontier points (points with incomplete data); `owner_sym[y]`
    and `owner_pre[y]` are i and x for the edge f_i(x) = y, 0 and -1 where
    no edge ends; `tails` maps points to their declared tails.  Each
    `images[i-1]` and `owner_pre` is an `array('i')`, 4 bytes a slot, so B
    stays below 2^31; `front` is a bytearray, and so is `owner_sym` while
    symbols fit below 255 (a list beyond).  A point costs 4(N+1) + 2
    bytes, 18 at N = 3.  `validate_bfs` reads an image table through
    its top bytes, 0xFF exactly at the entries -1.  `labels[x]`
    names point x (x + 1 for integer-labelled systems) and is read only
    by dumps and messages.  The constructor takes label-level data;
    `carrier`, `maps`, `frontier`, `declared_tails` and `position` are
    label-level views built on demand.  Not changed after construction.

    At most one edge ends at each point: the maps are injective with
    disjoint ranges, so a point's owner is its one coding preimage.  The
    constructor and every builder that goes through it refuse a second
    edge into a point with `InvalidSystemError`, and `load_bfs` with
    `DumpFormatError`; `standard_bfs` and `direct_sum` make disjoint
    edges by construction.  Truncating a genuine system only drops
    edges, so it keeps this rule; it can break coverage and the domain
    law at the frontier, which `validate_bfs` checks.
    """

    def __init__(
        self,
        matrix: TransitionMatrix,
        carrier: tuple[Label, ...],
        maps: dict[int, dict[Label, Label]],
        frontier: frozenset[Label],
        declared_tails: dict[Label, TailSource] | None = None,
    ):
        self.position = index = {x: k for k, x in enumerate(carrier)}
        if len(index) < len(carrier):
            repeated = next(x for k, x in enumerate(carrier) if index[x] != k)
            raise InvalidSystemError(f"carrier label {repeated!r} is repeated")
        for i in maps:
            if i not in range(1, matrix.n + 1):
                raise InvalidSystemError(f"symbol {i!r} is outside 1..{matrix.n}")
        try:
            edges = {i: {index[x]: index[y] for x, y in m.items()} for i, m in maps.items()}
            tails = {index[x]: src for x, src in (declared_tails or {}).items()}
            front = list(map(index.__getitem__, frontier))
        except KeyError as err:
            raise InvalidSystemError(f"point {err.args[0]!r} is not in the carrier") from None
        self._fill(matrix, carrier, edges, front, tails)

    @classmethod
    def _indexed(cls, matrix, labels, maps, frontier, tails=None) -> "BranchingSystem":
        """A system from per-symbol edge dicts {x: f_i(x)} of point indices."""
        f = cls.__new__(cls)
        f._fill(matrix, labels, maps, frontier, tails or {})
        return f

    def _fill(self, matrix, labels, maps, frontier, tails) -> None:
        size = len(labels)
        owner_sym = bytearray(size) if matrix.n < 255 else [0] * size  # bytes while they fit
        images, owner_pre = [_table(size) for _ in range(matrix.n)], _table(size)
        pre = memoryview(owner_pre)  # a store through a view skips the array's argument parsing
        for i, img in enumerate(map(memoryview, images), start=1):
            for x, y in maps.get(i, {}).items():
                if j := owner_sym[y]:  # a second edge into y
                    raise InvalidSystemError(_second_edge(labels, j, pre[y], i, x, y))
                img[x] = y
                owner_sym[y], pre[y] = i, x
        front = bytearray(size)
        for x in frontier:
            front[x] = 1
        self._set(matrix, labels, images, front, owner_sym, owner_pre, tails)

    def _set(self, matrix, labels, images, front, owner_sym, owner_pre, tails) -> None:
        self.matrix, self.labels, self.images, self.front = matrix, labels, images, front
        self.owner_sym, self.owner_pre, self.tails = owner_sym, owner_pre, tails

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def position(self) -> dict[Label, int]:
        return {x: k for k, x in enumerate(self.labels)}

    @cached_property
    def carrier(self) -> tuple[Label, ...]:
        return tuple(self.labels)

    @cached_property
    def maps(self) -> dict[int, dict[Label, Label]]:
        labels = self.labels
        return {
            i: {labels[x]: labels[y] for x, y in enumerate(img) if y >= 0}
            for i, img in enumerate(self.images, start=1)
        }

    @cached_property
    def frontier(self) -> frozenset[Label]:
        return frozenset(compress(self.labels, self.front))

    @cached_property
    def declared_tails(self) -> dict[Label, TailSource]:
        return {self.labels[x]: src for x, src in self.tails.items()}


_NOT = b"\1".ljust(256, b"\0")  # byte map 0 -> 1, 1 -> 0


Violation = namedtuple("Violation", "kind symbols points detail", defaults=("",))


class ValidationReport(namedtuple("ValidationReport", "checked_points violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_bfs(f: BranchingSystem) -> ValidationReport:
    """Check the system axioms on all recorded data; this is also the
    check of both defining relations of the algebra on the basis.

    Injectivity and disjoint ranges hold from construction (see
    `BranchingSystem`), and truncation cannot break them, since it only
    drops edges.  Coverage (every point in some range) and the domain law
    D(f_i) = union of R(f_j) over j with a_ij = 1 are checked at every
    non-frontier point, in carrier order.  Violations are report entries,
    not exceptions.

    The axioms and the relations agree.  A realization (`realization.realize`)
    weights each edge by a phase of unit modulus, which neither relation
    sees: s_i^* s_i projects onto D(f_i) and s_i s_i^* onto R(f_i), f_i
    being injective.  The first relation then holds at a point exactly
    where the domain law does, and the second exactly where the point
    lies in one range.  A point in two ranges would break the second
    relation whatever data is missing, frontier or not, which is why no
    system holds one.

    The axioms are checked at all points at once.  A point lies in the
    range of its owner symbol, 0 when it has none, so each row of A turns
    the owner symbols into a byte plane of the points that should be in
    D(f_i): by `translate` while symbols fit a byte, entry by entry
    beyond.  Read as big ints off the frontier, each plane must equal the
    defined slots of f_i (from the top bytes of its table), and the plane
    of unowned points must be empty.  Only the points where some plane
    differs are then read one by one, each from its owner symbol alone.
    """
    images, front, owner_sym = f.images, f.front, f.owner_sym
    tables = [(0, *row) for row in f.matrix.rows]  # owner symbol -> 1 where it feeds D(f_i)
    unowned = (1,) + (0,) * f.n
    if f.n < 255:
        planes = (owner_sym.translate(bytes(t).ljust(256, b"\0")) for t in (unowned, *tables))
    else:
        planes = (bytes(map(t.__getitem__, owner_sym)) for t in (unowned, *tables))
    suspect = int.from_bytes(next(planes), "little")  # the unowned points
    for plane, img in zip(planes, images):
        suspect |= int.from_bytes(_defined(img), "little") ^ int.from_bytes(plane, "little")
    suspect &= int.from_bytes(front.translate(_NOT), "little")
    checked = len(front) - front.count(1)
    if not suspect:
        return ValidationReport(checked_points=checked, violations=())
    violations = []
    for x in compress(range(len(front)), suspect.to_bytes(len(front), "little")):
        sym = owner_sym[x]
        if not sym:
            violations.append(Violation("NotCovered", (), (f.labels[x],)))
        for i, (table, img) in enumerate(zip(tables, images), start=1):
            if (recorded := img[x] >= 0) != table[sym]:
                detail = "recorded" if recorded else "missing"
                violations.append(Violation("DomainMismatch", (i,), (f.labels[x],), detail))
    return ValidationReport(checked_points=checked, violations=tuple(violations))


class ComponentSkeleton(
    namedtuple("ComponentSkeleton", "kind word points size declared", defaults=(None, None))
):
    """One orbit of the system inside the truncation: `kind`, `word`,
    `points`, `size` and `declared`.

    kind "cycle": `word` is the cycle word read from `points[0]` and
    f_{word[l]}(points[l+1]) = points[l] around the cycle.
    kind "chain": the system was built from a declared tail; `word` is the
    observed prefix, `points` the chain spine and `declared` the tail.
    kind "unresolved": the orbit leaves through the frontier with no
    declared tail; `word` is the observed coding prefix and `size` the
    number of carrier points in the orbit.  `size` is None for the other
    kinds, as `declared` is for all but chains.
    """

    __slots__ = ()


def find_components(f: BranchingSystem) -> tuple[ComponentSkeleton, ...]:
    """Partition the truncation into orbits and classify each one.

    Follows the coding map from each orbit's first point until it either
    closes (cycle, provided the whole cycle is non-frontier) or exits
    through the frontier (chain when the system declares a tail for the
    orbit, unresolved otherwise).  Orbits with no non-frontier point are
    truncation noise and are not reported.  Orbit sizes are counted, in
    one pass over all points, only once some orbit is unresolved.
    """
    owner_sym, owner_pre = f.owner_sym, f.owner_pre
    labels, front = f.labels, f.front
    # The coding map is a functional graph: a point joins the group of the
    # first grouped point its forward walk meets, or opens a new group.
    # Groups are numbered in order of first point, and the walk that opens
    # a group is the walk from its first point x: `ends` keeps the point
    # where it closed its cycle, or ~x when it ended at a dead end.
    group_of = [-1] * len(labels)
    ends: list[int] = []
    for x, p in enumerate(owner_pre):
        if p >= 0 and (g := group_of[p]) >= 0:
            # the usual case: one step suffices; a grouped x has its
            # preimage in its own group, so the store then changes nothing
            group_of[x] = g
            continue
        if group_of[x] >= 0:
            continue
        group_of[x] = fresh = len(ends)
        cur, g = p, -1
        while cur >= 0 and (g := group_of[cur]) < 0:
            group_of[cur] = fresh
            cur = owner_pre[cur]
        if g < 0 or g == fresh:
            ends.append(cur if cur >= 0 else ~x)
        else:  # the walk ran into group g: walk it again, moving its points to g
            cur = x
            while group_of[cur] == fresh:
                group_of[cur] = g
                cur = owner_pre[cur]

    anchors: dict[int, list[int]] = {}
    for x in f.tails:
        anchors.setdefault(group_of[x], []).append(x)
    sizes: Counter | None = None
    components: list[ComponentSkeleton] = []
    # groups with no non-frontier point are truncation noise
    for g in sorted(set(compress(group_of, front.translate(_NOT)))):
        end, size, declared = ends[g], None, None
        if end >= 0:  # a cycle: restart at its first point in carrier order
            path = [end]
            while (p := owner_pre[path[-1]]) != end:
                path.append(p)
            if k := path.index(min(path)):
                path = path[k:] + path[:k]
            kind = "unresolved" if any(map(front.__getitem__, path)) else "cycle"
            word = tuple(map(owner_sym.__getitem__, path))
        else:
            kind, path = "unresolved", [~end]
            if len(anchors.get(g, ())) == 1:
                kind, declared = "chain", f.tails[anchors[g][0]]
                path = anchors[g][:]
            while (p := owner_pre[path[-1]]) >= 0:
                path.append(p)
            word = tuple(map(owner_sym.__getitem__, path[:-1]))
        if kind == "unresolved":
            sizes = sizes or Counter(group_of)
            size = sizes[g]
        points = tuple(map(labels.__getitem__, path))
        components.append(ComponentSkeleton(kind, word, points, size, declared))
    return tuple(components)


def direct_sum(*systems: BranchingSystem) -> BranchingSystem:
    """Disjoint union; labels gain a "<part>:" prefix."""
    if not systems:
        raise BranchingError("direct_sum needs at least one system")
    first = systems[0]
    for g in systems[1:]:
        if g.matrix.rows != first.matrix.rows:
            raise MatrixMismatchError("summands live over different matrices")
    labels: list[Label] = []
    images = [_table(0) for _ in range(first.n)]
    front, owner_sym, owner_pre = bytearray(), first.owner_sym[:0], _table(0)
    tails: dict[int, TailSource] = {}
    for k, g in enumerate(systems):
        off = len(labels)
        labels.extend(f"{k}:{x}" for x in g.labels)
        for img, g_img in zip(images, g.images):
            img.extend(y + off if y >= 0 else -1 for y in g_img)
        front += g.front
        owner_sym += g.owner_sym
        owner_pre.extend(x + off if x >= 0 else -1 for x in g.owner_pre)
        tails.update((x + off, src) for x, src in g.tails.items())
    f = BranchingSystem.__new__(BranchingSystem)
    f._set(first.matrix, labels, images, front, owner_sym, owner_pre, tails)
    return f


def _separator(n: int) -> str:
    """The label rule for points named by a word over n symbols.

    The label of a word is its symbols joined by `_separator(n)`: nothing
    when n <= 9 (the word literal), "." when n >= 10.  Distinct words get
    distinct labels, and no label contains a dump separator.
    """
    return "" if n <= 9 else "."


def _grow_trees(
    a: TransitionMatrix,
    level: list[tuple[int, int]],
    depth: int,
    labels: list[Label],
    maps: dict[int, dict[int, int]],
) -> list[int]:
    """Grow the feeding trees of the branch points `level`, pairs (first
    symbol, point), to tree depth `depth`, appending to `labels` and `maps`.

    Each child (i,)+w is created with its edge f_i(w) and the label of w
    prefixed by symbol i; returns the points at the depth bound, whose
    images lie outside the truncation.
    """
    sep = _separator(a.n)
    # per symbol s: the symbols i that may precede it, with f_i's edges and label prefix
    feeders = [()] + [
        [(i, maps[i], f"{i}{sep}") for i in a.predecessors(s)] for s in range(1, a.n + 1)
    ]
    for _ in range(depth):
        children: list[tuple[int, int]] = []
        for s, x in level:
            name = labels[x]
            for i, edges, prefix in feeders[s]:
                edges[x] = y = len(labels)
                labels.append(prefix + name)
                children.append((i, y))
        level = children
    assert len(set(labels)) == len(labels)
    return [x for _, x in level]


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
    labels: list[Label] = [sep.join(map(str, word[l:])) for l in range(len(word))]
    maps: dict[int, dict[int, int]] = {i: {} for i in range(1, a.n + 1)}
    branches: list[tuple[int, int]] = []
    for l in range(len(word)):
        prev = word[l - 1]  # letter before position l+1, cyclically
        for i in a.predecessors(word[l]):
            if i == prev:  # at l = 0 the wrap edge to the last suffix
                maps[i][l] = (l - 1) % len(word)
            else:
                maps[i][l] = y = len(labels)
                labels.append(f"{i}{sep}{labels[l]}")
                branches.append((i, y))
    frontier = _grow_trees(a, branches, depth, labels, maps)
    return BranchingSystem._indexed(a, labels, maps, frontier)


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
    labels: list[Label] = list(range(1, chain_len + 1))
    maps: dict[int, dict[int, int]] = {i: {} for i in range(1, a.n + 1)}
    branches: list[tuple[int, int]] = []
    for m in range(1, chain_len + 1):
        for i in a.predecessors(letters[m - 1]):
            if m >= 2 and i == letters[m - 2]:
                maps[i][m - 1] = m - 2
            else:
                maps[i][m - 1] = y = len(labels)
                labels.append(f"{i}@{m}")
                branches.append((i, y))
    frontier = _grow_trees(a, branches, depth, labels, maps)
    frontier.append(chain_len - 1)  # its coding preimage is chain_len + 1
    return BranchingSystem._indexed(a, labels, maps, frontier, {0: source})


def standard_bfs(a: TransitionMatrix, truncation: int) -> BranchingSystem:
    """The standard system on {1..B}: f_i(N(m-1)+j) = N(M_i(m-1)+q_i(j)-1)+i.

    R(f_i) is the residue class of i; the formula is invertible, so a point
    is frontier exactly when one of its images or its unique preimage lands
    beyond the truncation.  Point x is labelled x + 1; every array is filled
    by extended-slice assignment, one arithmetic progression at a time.
    """
    n = a.n
    if truncation < n:
        raise BranchingError(f"truncation must be >= {n}")
    if truncation >= _LIMIT:
        raise BranchingError(f"truncation must be < {_LIMIT}")
    pool = _arange(truncation)  # each progression is a slice of it
    images = [_table(truncation) for _ in range(n)]
    front = bytearray(truncation)
    owner_sym = bytearray(truncation) if n < 255 else [0] * truncation
    owner_pre = _table(truncation)
    for i, img in enumerate(images, start=1):
        b_set = a.successors(i)
        for q, j in enumerate(b_set):
            # the points labelled N(m-1)+j and their images N(M_i(m-1)+q)+i,
            # m = 1, 2, ...: an unpaired tail of either progression is frontier
            sources = range(j - 1, truncation, n)
            targets = range(n * q + i - 1, truncation, n * len(b_set))
            k = min(len(sources), len(targets))
            img[_slice(sources[:k])] = pool[_slice(targets[:k])]
            owner_pre[_slice(targets[:k])] = pool[_slice(sources[:k])]
            owner_sym[_slice(targets[:k])] = [i] * k
            for tail in (sources[k:], targets[k:]):
                front[_slice(tail)] = b"\1" * len(tail)
    f = BranchingSystem.__new__(BranchingSystem)
    f._set(a, range(1, truncation + 1), images, front, owner_sym, owner_pre, {})
    return f


def _slice(points: range) -> slice:
    """The extended slice that selects the indices of an ascending range."""
    return slice(points.start, points.stop, points.step)


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
    points = admissible_words(a, word_len)
    index = {w: k for k, w in enumerate(points)}
    maps: dict[int, dict[int, int]] = {i: {} for i in range(1, a.n + 1)}
    backward_defined: set[Word] = set()
    for y in points:
        rest = y[1:]
        ext = _periodic_extension(rest)
        if a.entry(y[-1], ext):
            maps[y[0]][index[rest + (ext,)]] = index[y]
            backward_defined.add(y)
    frontier = [
        index[w]
        for w in points
        if not (w in backward_defined and _periodic_extension(w[:-1]) == w[-1])
    ]
    sep = _separator(a.n)
    labels = [sep.join(map(str, w)) for w in points]
    return BranchingSystem._indexed(a, labels, maps, frontier)


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
    maps: dict[int, dict[int, int]] = {i: {} for i in range(1, a.n + 1)}
    frontier: set[int] = set()
    covered: set[int] = set()
    for i, (dom, img) in enumerate(rules, start=1):
        for x in filter(dom, range(1, size + 1)):
            y = img(x)
            if y < 1:
                raise BranchingError(f"rule {i} sends {x} to {y}, below the carrier")
            if y <= size:
                maps[i][x - 1] = y - 1
                covered.add(y - 1)
            else:
                frontier.add(x - 1)
    frontier.update(x for x in range(size) if x not in covered)
    return BranchingSystem._indexed(a, range(1, size + 1), maps, frontier)


def _clashes(text: str) -> bool:
    """Whether `text` holds a dump separator or a line break, or has
    whitespace at either end, which a load would strip."""
    return (
        any(map(text.__contains__, (",", "->", "~", " ")))
        or "".join(text.splitlines()) != text
        or text != text.strip()
    )


def _refuse_clashes(names: Sequence[str], text: str) -> None:
    """Refuse the first of `names`, tab-joined in `text`, that clashes.  Past
    the separators and line breaks, the whitespace an ASCII label can hold
    is a tab or "\x1f", so `text` alone shows when none does."""
    if _clashes(text) or not text.isascii() or text.count("\t") >= len(names) or "\x1f" in text:
        if bad := next(filter(_clashes, names), None):
            raise DumpFormatError(f"label {bad!r} clashes with the dump separators")


def _printed_alike(labels: Sequence[Label], names: list[str], order: list[int]) -> tuple[int, int] | None:
    """Two points whose labels print alike, an int and a str such as 7 and
    "7", or None.  Two equal names sit side by side in (length, label)
    `order`, so each int label's name is looked up there by bisection."""
    ints = list(compress(range(len(labels)), map(isinstance, labels, repeat(int))))
    if len(ints) == len(labels):  # no str label
        return None

    def rank(x: int) -> tuple[int, str]:
        return len(names[x]), names[x]

    for x in ints:
        k = bisect_left(order, rank(x), key=rank)
        if k + 1 < len(order) and names[order[k + 1]] == names[x]:
            return order[k], order[k + 1]
    return None


def dump_bfs(f: BranchingSystem) -> str:
    """Line format: header "N B", one "i: x->y, ..." line per symbol.

    Frontier points carry a "~" prefix at each occurrence; points with no
    incident edge are listed on a trailing "0:" line.  Points go in (length,
    label) order, so a dump survives a load/dump cycle; for the labels
    1..B of `standard_bfs` and `truncated_from_rules` that is index order,
    and nothing is sorted.  Labels may contain neither the separators nor a
    line break, and may not begin or end with whitespace, which a load
    strips; a point with no edge may not have the empty label, which a load
    skips; and no two labels may print alike, as the int 7 and the str "7"
    do.  Besides the text written so far and one name per point, a symbol
    line holds the edge strings of 256 points at a time.
    """
    labels = f.labels
    names = [str(x) for x in labels]
    if labels == range(1, len(labels) + 1):  # (length, label) order is index order
        order: Sequence[int] = range(len(names))
    else:
        try:  # all str: distinct labels print distinctly
            text, mixed = "\t".join(labels), False
        except TypeError:  # an int label may print as a str label does
            text, mixed = "\t".join(names), True
        _refuse_clashes(names, text)  # a tab is neither a separator nor a line break
        del text
        order = sorted(range(len(names)), key=names.__getitem__)
        order.sort(key=list(map(len, names)).__getitem__)  # stable: by length, then by label
        if mixed and (pair := _printed_alike(labels, names, order)):
            a, b = pair
            raise DumpFormatError(f"labels {labels[a]!r} and {labels[b]!r} both print as {names[a]}")
    owner_sym = f.owner_sym
    isolated = [x for x in order if not owner_sym[x]] if 0 in owner_sym else []
    for x in compress(range(len(names)), f.front):
        names[x] = "~" + names[x]
    out = [f"{f.n} {len(names)}\n"]
    for i, img in enumerate(f.images, start=1):
        chunks = (
            ", ".join([f"{names[x]}->{names[y]}" for x in order[k : k + 256] if (y := img[x]) >= 0])
            for k in range(0, len(order), 256)
        )
        out += f"{i}: ", ", ".join(filter(None, chunks)), "\n"
        isolated = [x for x in isolated if img[x] < 0]
    if isolated:
        if "" in (lone := [names[x] for x in isolated]):  # a load would skip it
            raise DumpFormatError("the empty label names a point with no edge")
        out.append("0: " + ", ".join(lone) + "\n")
    return "".join(out)


def _lines(text: str) -> Iterator[str]:
    """The lines of `text`, cut where `str.splitlines` cuts them, one at a
    time; an empty line may be dropped.  A line is cut at each "\n" and
    then at any other break inside it, and the reader keeps no reference
    to a line it has yielded."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        lines = text[start:end].splitlines()[::-1]
        start = end + 1
        while lines:
            yield lines.pop()


def _batches(line: str) -> Iterator[list[str]]:
    """The items of `line`, as `line.split(",")` cuts them, 256 at a time.

    Each batch is split off a window of the line that starts at 256
    characters and doubles until it holds 256 commas, so a batch copies a
    small multiple of the widest batch's span and never the rest of the
    line, however long the line."""
    pos, span = 0, 256
    while pos < len(line):
        window = line[pos : pos + span]
        items = window.split(",", 256)
        if len(items) > 256:  # the last one is the window's unsplit rest
            pos += len(window) - len(items.pop())
        elif pos + span < len(line):  # the window cut an item
            span *= 2
            continue
        else:
            pos = len(line)
        yield items


def load_bfs(text: str, matrix: TransitionMatrix) -> BranchingSystem:
    """Parse the dump format back into a system over the given matrix.

    Whitespace around a token is ignored, lines for one symbol merge, and
    a "~" on any occurrence marks a point as frontier.  A label that
    `dump_bfs` refuses is refused, so what loads dumps, and so is a second
    edge into a point, which no system holds.  Labels come back as
    strings; the carrier keeps first-mention order, target before source.
    Components and decompositions do not depend on either choice.  Lines
    are read one at a time and a symbol line is split 256 items at a time,
    so besides the text and the tables and labels built so far a load
    holds one line, a window of it and one batch of its items.
    """
    lines = filter(str.strip, _lines(text))
    if (first := next(lines, None)) is None:
        raise DumpFormatError("empty dump")

    def number(token: str, what: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise DumpFormatError(f"bad {what} {token!r}") from None

    head = first.split()
    if len(head) != 2:
        raise DumpFormatError(f"bad header {first!r}")
    n, size = number(head[0], "header field"), number(head[1], "header field")
    if n != matrix.n:
        raise DumpFormatError(f"dump is for {n} symbols, matrix has {matrix.n}")

    index: dict[str, int] = {}  # label -> point, in first-mention order
    images = [_table(0) for _ in range(n)]
    front, owner_sym, owner_pre = bytearray(), bytearray() if n < 255 else [], _table(0)
    blanks = [(front, bytes(1)), (owner_sym, bytes(1)), *zip((owner_pre, *images), repeat(_table(1)))]
    for sym_text, _, rest in map(str.partition, lines, repeat(":")):  # map lets each line go
        sym = number(sym_text, "symbol")
        if not 0 <= sym <= n:
            raise DumpFormatError(f"bad symbol {sym_text!r}")
        # batches of 256 free their strings before the next is split off: kept labels pack densely
        for items in _batches(rest):
            tokens = list(filter(None, map(str.strip, items)))
            if sym and tokens:
                sources, arrows, targets = zip(*map(str.partition, tokens, repeat("->")))
                if "" in arrows:
                    raise DumpFormatError(f"bad edge {tokens[arrows.index('')]!r}")
                tokens = list(map(str.strip, chain.from_iterable(zip(targets, sources))))
            names = list(map(str.removeprefix, tokens, repeat("~")))
            ids = [index.setdefault(name, len(index)) for name in names]
            if added := len(index) - len(front):  # new points, with no data yet
                _refuse_clashes(names, "\t".join(names))  # the labels seen before have passed
                for arr, blank in blanks:
                    arr += blank * added
            for x in compress(ids, map(str.startswith, tokens, repeat("~"))):
                front[x] = 1
            if sym:  # views as in `_fill`, released before the tables grow again
                with memoryview(images[sym - 1]) as img, memoryview(owner_pre) as pre:
                    for y, x in zip(ids[::2], ids[1::2]):
                        if img[x] >= 0:
                            raise DumpFormatError(f"symbol {sym} maps {names[ids.index(x)]!r} twice")
                        if j := owner_sym[y]:  # a second edge into y, refused as in `_fill`
                            raise DumpFormatError(_second_edge(list(index), j, pre[y], sym, x, y))
                        img[x] = y
                        owner_sym[y], pre[y] = sym, x
        del rest  # the last line is not kept while the system is built
    if len(index) != size:
        raise DumpFormatError(f"header says {size} points, found {len(index)}")
    labels = list(index)
    del index  # the system reads labels only
    f = BranchingSystem.__new__(BranchingSystem)
    f._set(matrix, labels, images, front, owner_sym, owner_pre, {})
    return f
