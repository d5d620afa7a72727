"""Word calculus over a 0/1 transition matrix.

Multiindices over the alphabet {1..N}: admissibility along a transition
matrix, the base-N positional order on each fixed length, canonical
rotations, primitive roots, eventually periodic tails, and enumeration of
cyclic rotation classes.  The cycle structure of A lives in `cycles`,
which `pspec_summary` imports when it runs.

A word is a plain tuple of 1-based symbols; the empty tuple is the unit
index.  Everything here is a pure function of immutable values.
"""

from collections import namedtuple
from functools import cached_property

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .cycles import PSpecSummary

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


class CkError(ValueError):
    """Base of every error the caller can fix; `ck` exits 1 on it."""


class WordError(CkError):
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


class NotAdmissibleError(WordError):
    pass


class NotCyclicallyAdmissibleError(WordError):
    pass


class _Key(tuple):
    """Base of the immutable records used as dict keys: a record equals
    only a record of its own type, never another kind or a bare tuple."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


# The bytes of the ASCII characters 0 and 1, mapped to the entries 0 and 1.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class TransitionMatrix(_Key, namedtuple("TransitionMatrix", "rows")):
    """An N x N matrix over {0,1} with no zero row and no zero column."""

    # no __slots__: the successor tables are cached in the instance dict

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
    def from_text(text: str) -> "TransitionMatrix":
        """Parse the matrix file format: one row of 0/1 characters per line.

        The entries are the ASCII characters 0 and 1, read a row at a time.
        A row with any other character is refused, naming the first one
        that is not an ASCII digit, or else the first other digit.
        """
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if any(line.strip("01") for line in lines):
            for ch in "".join(lines):
                if ch not in "0123456789":
                    raise NonBinaryEntryError(
                        f"bad matrix line: invalid literal for int() with base 10: {ch!r}"
                    )
            return validate_matrix([[int(ch) for ch in line] for line in lines])
        rows = tuple(tuple(line.encode().translate(_BITS)) for line in lines)
        return _checked_matrix(rows, entries_known=True)

    def to_text(self) -> str:
        return "\n".join("".join(str(e) for e in row) for row in self.rows) + "\n"


def validate_matrix(entries) -> TransitionMatrix:
    """Validate a square array of the ints 0 and 1 and wrap it as a
    TransitionMatrix; a float or a bool entry is refused, even 1.0 or True.

    Raises MatrixShapeError, MatrixTooSmallError, NonBinaryEntryError,
    ZeroRowError or ZeroColumnError.
    """
    return _checked_matrix(tuple(tuple(row) for row in entries), entries_known=False)


def _checked_matrix(rows: tuple[tuple[int, ...], ...], entries_known: bool) -> TransitionMatrix:
    """`validate_matrix` of `rows`, whose entries are only checked unless
    `entries_known` says that each is the int 0 or 1."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise MatrixShapeError("matrix is not square")
    if n < 2:
        raise MatrixTooSmallError("need at least 2 symbols")
    if not entries_known:
        for row in rows:
            for e in row:
                if type(e) is not int or e not in (0, 1):
                    raise NonBinaryEntryError(f"entry {e!r} is not 0 or 1")
    for i, row in enumerate(rows, start=1):
        if not any(row):
            raise ZeroRowError(i)
    for j, column in enumerate(zip(*rows), start=1):
        if not any(column):
            raise ZeroColumnError(j)
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


def power(word: Word, p: int) -> Word:
    """p-fold self-concatenation; p = 0 yields the unit (empty word)."""
    if p < 0:
        raise WordError("power needs p >= 0")
    return tuple(word) * p


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


class TailWord(_Key, namedtuple("TailWord", "preperiod period")):
    """An eventually periodic infinite word: preperiod followed by period^oo.

    The period is reduced to its primitive root on construction, so the
    stored period is never a proper power.
    """

    __slots__ = ()

    def __new__(cls, preperiod: Word, period: Word):
        period = tuple(period)
        if not period:
            raise EmptyWordError("a tail word needs a nonempty period")
        return super().__new__(cls, tuple(preperiod), primitive_root(period)[0])

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


def pspec_summary(a: TransitionMatrix, max_len: int) -> "PSpecSummary":
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
    from .cycles import PSpecSummary, _cycle_words, _trace_formula_counts

    enumerated = enumerate_cyclic_classes(a, max_len)
    counts = [0] * max_len
    for w, periodic in enumerated:
        if not periodic:
            counts[len(w) - 1] += 1

    cycle_words = _cycle_words(a)
    if cycle_words is not None:
        return PSpecSummary(
            finite=True,
            class_count=len(cycle_words),
            tails_empty=True,
            counts_by_length=tuple(counts),
            cycle_words=cycle_words,
            cross_check_ok={w for w, periodic in enumerated if not periodic}
            == {w for w in cycle_words if len(w) <= max_len},
        )
    return PSpecSummary(
        finite=False,
        class_count=None,
        tails_empty=False,
        counts_by_length=tuple(counts),
        cycle_words=(),
        cross_check_ok=counts == _trace_formula_counts(a, max_len),
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
