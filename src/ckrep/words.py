"""Word calculus over a 0/1 transition matrix.

Multiindices over the alphabet {1..N}: admissibility along a transition
matrix, the base-N positional order on each fixed length, canonical
rotations, primitive roots, eventually periodic tails, enumeration of
cyclic rotation classes, and the finite/infinite verdict for the set of
irreducible permutative classes.

A word is a plain tuple of 1-based symbols; the empty tuple is the unit
index.  Everything here is a pure function of immutable values.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property


Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class WordError(ValueError):
    """An argument violates a word/matrix operation contract."""


class MatrixShapeError(WordError):
    pass


class MatrixTooSmallError(WordError):
    pass


class NonBinaryEntryError(WordError):
    pass


class ZeroRowError(WordError):
    def __init__(self, index: int):
        super().__init__(f"row {index} is identically zero")
        self.index = index


class ZeroColumnError(WordError):
    def __init__(self, index: int):
        super().__init__(f"column {index} is identically zero")
        self.index = index


class SymbolOutOfRangeError(WordError):
    pass


class EmptyWordError(WordError):
    pass


class LengthMismatchError(WordError):
    pass


class NotAdmissibleError(WordError):
    pass


class NotCyclicallyAdmissibleError(WordError):
    pass


@dataclass(frozen=True)
class TransitionMatrix:
    """An N x N matrix over {0,1} with no zero row and no zero column."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """a_ij with 1-based indices."""
        return self.rows[i - 1][j - 1]

    def successors(self, i: int) -> tuple[int, ...]:
        """{j : a_ij = 1}, ascending."""
        return self._successor_table[i - 1]

    def predecessors(self, j: int) -> tuple[int, ...]:
        """{i : a_ij = 1}, ascending."""
        return self._predecessor_table[j - 1]

    @cached_property
    def _successor_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(j for j, e in enumerate(row, 1) if e) for row in self.rows)

    @cached_property
    def _predecessor_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(i for i, e in enumerate(col, 1) if e) for col in zip(*self.rows))

    @staticmethod
    def from_text(text: str) -> TransitionMatrix:
        """Parse the matrix file format: one row of 0/1 characters per line."""
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        try:
            entries = [[int(ch) for ch in line] for line in lines]
        except ValueError as exc:
            raise NonBinaryEntryError(f"bad matrix line: {exc}") from None
        return validate_matrix(entries)

    def to_text(self) -> str:
        return "\n".join("".join(str(e) for e in row) for row in self.rows) + "\n"


def validate_matrix(entries) -> TransitionMatrix:
    """Validate a square 0/1 array and wrap it as a TransitionMatrix.

    Raises MatrixShapeError, MatrixTooSmallError, NonBinaryEntryError,
    ZeroRowError or ZeroColumnError.
    """
    rows = tuple(tuple(row) for row in entries)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise MatrixShapeError("matrix is not square")
    if n < 2:
        raise MatrixTooSmallError("need at least 2 symbols")
    for row in rows:
        for e in row:
            if e not in (0, 1):
                raise NonBinaryEntryError(f"entry {e!r} is not 0 or 1")
    for i, row in enumerate(rows, start=1):
        if not any(row):
            raise ZeroRowError(i)
    for j in range(n):
        if not any(row[j] for row in rows):
            raise ZeroColumnError(j + 1)
    return TransitionMatrix(rows)


def _check_symbols(a: TransitionMatrix, word: Word) -> None:
    for s in word:
        if not 1 <= s <= a.n:
            raise SymbolOutOfRangeError(f"symbol {s} outside 1..{a.n}")


def is_admissible(a: TransitionMatrix, word: Word) -> bool:
    """True iff every consecutive pair (x, y) of `word` has a_xy = 1.

    Words of length 0 and 1 are admissible.
    """
    _check_symbols(a, word)
    return all(a.entry(word[i - 1], word[i]) for i in range(1, len(word)))


def is_cyclically_admissible(a: TransitionMatrix, word: Word) -> bool:
    """True iff `word` is admissible and wraps around: a_{last,first} = 1."""
    if not word:
        raise EmptyWordError("cyclic admissibility needs a nonempty word")
    return is_admissible(a, word) and bool(a.entry(word[-1], word[0]))


def concat(left: Word, right: Word) -> Word:
    return tuple(left) + tuple(right)


def power(word: Word, p: int) -> Word:
    """p-fold self-concatenation; p = 0 yields the unit (empty word)."""
    if p < 0:
        raise WordError("power needs p >= 0")
    return tuple(word) * p


def rotate(word: Word, r: int) -> Word:
    """The r-step cyclic rotation (symbols move r places to the left)."""
    if not word:
        raise EmptyWordError("cannot rotate the empty word")
    r %= len(word)
    return word[r:] + word[:r]


def precedes(first: Word, second: Word) -> bool:
    """Base-N positional order on words of equal length.

    With symbols in 1..N the positional value order coincides with tuple
    order, so no alphabet size is needed.
    """
    if len(first) != len(second):
        raise LengthMismatchError(f"lengths {len(first)} != {len(second)}")
    return first <= second


def _border_length(word: Word) -> int:
    # Length of the longest proper border (prefix == suffix), KMP table.
    table = [0] * len(word)
    k = 0
    for i in range(1, len(word)):
        while k and word[i] != word[k]:
            k = table[k - 1]
        if word[i] == word[k]:
            k += 1
        table[i] = k
    return table[-1] if word else 0


def primitive_root(word: Word) -> tuple[Word, int]:
    """Shortest word J0 and the multiplicity m with word = J0^m.

    m = 1 exactly when the word is non-periodic.
    """
    if not word:
        raise EmptyWordError("the empty word has no primitive root")
    k = len(word)
    p = k - _border_length(word)
    if p < k and k % p == 0:
        return word[:p], k // p
    return word, 1


def is_periodic(word: Word) -> bool:
    """True iff word = J0^m for some m >= 2."""
    return primitive_root(word)[1] >= 2


def canonical_rotation(word: Word) -> Word:
    """The positional-order minimum among all cyclic rotations.

    Booth's least-rotation algorithm; the brute-force minimum over all
    rotations is kept as an independent oracle in the test suite.
    """
    if not word:
        raise EmptyWordError("cannot canonicalize the empty word")
    doubled = word + word
    fail = [-1] * len(doubled)
    start = 0
    for j in range(1, len(doubled)):
        sym = doubled[j]
        i = fail[j - start - 1]
        while i != -1 and sym != doubled[start + i + 1]:
            if sym < doubled[start + i + 1]:
                start = j - i - 1
            i = fail[i]
        if sym != doubled[start + i + 1]:
            if sym < doubled[start]:
                start = j
            fail[j - start] = -1
        else:
            fail[j - start] = i + 1
    return word[start:] + word[:start]


def words_equivalent_finite(first: Word, second: Word) -> bool:
    """True iff the words have equal length and are cyclic rotations."""
    if not first or not second:
        raise EmptyWordError("finite equivalence needs nonempty words")
    return len(first) == len(second) and canonical_rotation(first) == canonical_rotation(second)


@dataclass(frozen=True)
class TailWord:
    """An eventually periodic infinite word: preperiod followed by period^oo.

    The period is reduced to its primitive root on construction, so the
    stored period is never a proper power.
    """

    preperiod: Word
    period: Word

    def __post_init__(self):
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise EmptyWordError("a tail word needs a nonempty period")
        root, _ = primitive_root(self.period)
        object.__setattr__(self, "period", root)

    def letter(self, m: int) -> int:
        """The m-th letter, 1-based."""
        if m <= len(self.preperiod):
            return self.preperiod[m - 1]
        return self.period[(m - len(self.preperiod) - 1) % len(self.period)]

    def prefix(self, length: int) -> Word:
        return tuple(self.letter(m) for m in range(1, length + 1))

    def __str__(self) -> str:
        return format_tail(self)


def tail_is_admissible(a: TransitionMatrix, tail: TailWord) -> bool:
    """Preperiod+period runs admissibly and the period wraps cyclically."""
    return is_admissible(a, tail.preperiod + tail.period) and is_cyclically_admissible(
        a, tail.period
    )


def tail_canonical(a: TransitionMatrix, tail: TailWord) -> TailWord:
    """Canonical representative of the tail-equivalence class.

    Empty preperiod, primitive period in canonical rotation.  Any finite
    preperiod is tail-equivalent to none at all, so it is dropped; the
    rotation is then the unique normal form of the purely periodic tail.
    """
    if not tail_is_admissible(a, tail):
        raise NotAdmissibleError(f"tail {tail} is not admissible")
    return TailWord(EMPTY_WORD, canonical_rotation(tail.period))


def words_equivalent_infinite(a: TransitionMatrix, first: TailWord, second: TailWord) -> bool:
    """True iff the two eventually periodic words share a tail."""
    return tail_canonical(a, first) == tail_canonical(a, second)


def admissible_words(a: TransitionMatrix, length: int) -> list[Word]:
    """All admissible words of exactly `length`, in lexicographic order."""
    if length == 0:
        return [EMPTY_WORD]
    words: list[Word] = [(i,) for i in range(1, a.n + 1)]
    for _ in range(length - 1):
        words = [w + (j,) for w in words for j in a.successors(w[-1])]
    return words


def enumerate_cyclic_classes(a: TransitionMatrix, max_len: int) -> list[tuple[Word, bool]]:
    """Minimal cyclically admissible words of length <= max_len.

    One representative per rotation class, each flagged (word, periodic).
    Ordering is by (length, base-N value); the non-periodic sublist is the
    primitive class list up to max_len.

    The representatives are the cyclically admissible necklaces, generated
    as admissible prenecklaces (the FKM algorithm with the zeros of A as
    forbidden 2-factors; Ruskey & Sawada, COCOON 2000).  A prenecklace w of
    length t whose longest Lyndon prefix has length p extends by a
    successor j of its last letter iff j >= w[t-p] (0-based); p stays when
    j equals that letter and becomes t+1 when j is larger.  w is a necklace
    iff p divides t, and then it is periodic iff p < t.  The depth-first
    walk keeps an explicit stack and visits children in ascending order, so
    each length comes out in base-N order.
    """
    if max_len < 1:
        raise WordError("max_len must be >= 1")
    rows = a.rows
    succ = a._successor_table
    by_len: list[list[tuple[Word, bool]]] = [[] for _ in range(max_len + 1)]
    stack: list[tuple[Word, int]] = [((i,), 1) for i in range(a.n, 0, -1)]
    while stack:
        w, p = stack.pop()
        t = len(w)
        if t % p == 0 and rows[w[-1] - 1][w[0] - 1]:
            by_len[t].append((w, p < t))
        if t < max_len:
            c = w[t - p]
            for j in reversed(succ[w[-1] - 1]):
                if j > c:
                    stack.append((w + (j,), t + 1))
                elif j == c:
                    stack.append((w + (j,), p))
    return [entry for level in by_len for entry in level]


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


def _strongly_connected_components(a: TransitionMatrix) -> list[list[int]]:
    # Tarjan, on vertices 1..N with edges i -> j where a_ij = 1.  The
    # depth-first walk keeps (vertex, successor iterator) pairs on its own
    # stack, so its depth is not bounded by the interpreter's recursion limit.
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    out: list[list[int]] = []
    work: list[tuple[int, Iterator[int]]] = []

    def visit(v: int) -> None:
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(a.successors(v))))

    for root in range(1, a.n + 1):
        if root not in index:
            visit(root)
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(sorted(comp))
    return out


def _simple_cycle_word(a: TransitionMatrix, comp: list[int]) -> Word | None:
    """The cycle word of an SCC that is a bare cycle, else None.

    A nontrivial SCC is a simple cycle iff every vertex has exactly one
    successor and one predecessor inside the component.
    """
    inside = set(comp)
    succ: dict[int, int] = {}
    for v in comp:
        nxt = [w for w in a.successors(v) if w in inside]
        prv = [w for w in a.predecessors(v) if w in inside]
        if len(nxt) != 1 or len(prv) != 1:
            return None
        succ[v] = nxt[0]
    start = min(comp)
    word = [start]
    v = succ[start]
    while v != start:
        word.append(v)
        v = succ[v]
    return tuple(word)


def _cycle_words(a: TransitionMatrix) -> tuple[Word, ...] | None:
    """The structural spectrum verdict: the simple cycle words of A in
    (length, base-N) order when every nontrivial strongly connected
    component is a bare cycle, else None (infinitely many classes)."""
    cycle_words: list[Word] = []
    for comp in _strongly_connected_components(a):
        if len(comp) == 1 and not a.entry(comp[0], comp[0]):
            continue  # trivial component, no cycle through it
        word = _simple_cycle_word(a, comp)
        if word is None:
            return None
        cycle_words.append(word)
    return tuple(sorted(cycle_words, key=lambda w: (len(w), w)))


@dataclass(frozen=True)
class PSpecSummary:
    """Finite/infinite verdict and bounded enumeration of primitive classes.

    `finite` is decided structurally: every nontrivial strongly connected
    component of the digraph of A is a bare cycle iff there are finitely
    many primitive cyclic classes and no non-eventually-periodic tails.
    `cross_check_ok` records agreement with the enumeration up to max_len.
    """

    finite: bool
    class_count: int | None
    tails_empty: bool
    counts_by_length: tuple[int, ...]
    cycle_words: tuple[Word, ...]
    cross_check_ok: bool


def pspec_summary(a: TransitionMatrix, max_len: int) -> PSpecSummary:
    """Summary of the irreducible permutative classes of the algebra of A.

    With q_k the number of primitive cyclic classes of length k (by the
    trace formula, (1/k) * sum over d | k of mu(k/d) * tr(A^d)), the
    structural verdict is finite iff q_k = 0 for N < k <= 2N.  Proof: a
    closed walk stays inside one strongly connected component.  If every
    nontrivial component is a bare cycle, a primitive closed walk goes
    once round one of them, so q_k = 0 for every k > N.  Otherwise some
    vertex v of a component S has two successors u1 != u2 in S (if each
    vertex had one, counting edges would make S a bare cycle).  Closing
    v -> u1 and v -> u2 by shortest paths back to v gives closed walks x
    and y at v of lengths l1, l2 in [1, N] in which v occurs only first,
    and x != y.  In the cyclic word x^i y (i >= 1) the occurrences of v
    cut it into i blocks x and one block y; a rotation fixing the word
    would shift that block sequence nontrivially, which the single y
    forbids, so x^i y is primitive.  Its lengths l2 + i*l1 start at most
    2N and rise in steps of l1 <= N, so one lies in (N, 2N].
    """
    counts = [0] * max_len
    primitive: set[Word] = set()
    for w, periodic in enumerate_cyclic_classes(a, max_len):
        if not periodic:
            counts[len(w) - 1] += 1
            primitive.add(w)

    cycle_words = _cycle_words(a)
    if cycle_words is not None:
        return PSpecSummary(
            finite=True,
            class_count=len(cycle_words),
            tails_empty=True,
            counts_by_length=tuple(counts),
            cycle_words=cycle_words,
            cross_check_ok=primitive == {w for w in cycle_words if len(w) <= max_len},
        )
    return PSpecSummary(
        finite=False,
        class_count=None,
        tails_empty=False,
        counts_by_length=tuple(counts),
        cycle_words=(),
        cross_check_ok=True,
    )


def format_word(word: Word) -> str:
    """Word literal: digit string when all symbols fit one digit, else
    comma separated, with a trailing comma when there is one symbol
    ("11," is the word (11,), "11" the word (1, 1)); the unit is "0"."""
    if not word:
        return "0"
    if max(word) <= 9:
        return "".join(str(s) for s in word)
    return ",".join(str(s) for s in word) + ("," if len(word) == 1 else "")


def parse_word(text: str) -> Word:
    """Inverse of format_word; accepts "" as the unit too."""
    text = text.strip()
    if text in ("", "0"):
        return EMPTY_WORD
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) == 2 and not parts[1]:
            parts.pop()  # "11,": one symbol
    else:
        parts = list(text)
    try:
        word = tuple(int(p) for p in parts)
    except ValueError:
        raise WordError(f"bad word literal {text!r}") from None
    if any(s < 1 for s in word):
        raise WordError(f"bad word literal {text!r}: symbols are 1-based")
    return word


def format_tail(tail: TailWord) -> str:
    """Tail literal: "pre|(period)", e.g. "1|(2)" or "|(12)"."""
    return f"{format_word(tail.preperiod) if tail.preperiod else ''}|({format_word(tail.period)})"


def parse_tail(text: str) -> TailWord:
    text = text.strip()
    if "|" not in text:
        raise WordError(f"bad tail literal {text!r}: missing '|'")
    pre_text, per_text = text.split("|", 1)
    per_text = per_text.strip()
    if per_text.startswith("(") and per_text.endswith(")"):
        per_text = per_text[1:-1]
    return TailWord(parse_word(pre_text), parse_word(per_text))
