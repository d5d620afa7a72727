"""Representation classes, their calculus and decomposition reports.

The cyclic building blocks are P(J; z) for a cyclically admissible finite
word J and unit phase z (a cycle with one phase-twisted edge), P(K) for an
infinite word K (a chain), and the direct-integral class into which an
eventually periodic chain splits.  This module holds the class calculus
(equivalence, gauge twist, irreducible expansion) and produces cyclic
and irreducible-level decomposition reports; the two defining relations
of the algebra are `branching.validate_bfs`'s check.  The functions that
build, realize or scan a branching system import `branching` and
`realization` when they run, and the structural reports import
`cycles`, so the class calculus alone loads none of them.
"""

from collections import namedtuple

from .phases import ONE, Phase, RootSum, phases_equal
from .words import (
    CkError,
    EMPTY_WORD,
    _Key,
    TailWord,
    TransitionMatrix,
    Word,
    canonical_rotation,
    enumerate_cyclic_classes,
    format_tail,
    format_word,
    is_cyclically_admissible,
    is_periodic,
    power,
    primitive_root,
    tail_canonical,
    tail_is_admissible,
)

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .branching import BranchingSystem, ComponentSkeleton, Label
    from .realization import GPReport, Vector

INFINITY = float("inf")

Multiplicity = int | float  # positive int, or INFINITY


class RepError(CkError):
    """A representation-level argument violates an operation contract."""


class IntegralClassUnsupportedError(RepError):
    pass


class UndecidableEquivalenceError(RepError):
    pass


class FiniteClass(_Key, namedtuple("FiniteClass", "word phase", defaults=(ONE,))):
    """P(word; phase): word canonical (minimal rotation), phase = the
    product of edge phases around the cycle."""

    __slots__ = ()


class TailClass(_Key, namedtuple("TailClass", "tail")):
    """P(tail) for an eventually periodic tail in canonical form."""

    __slots__ = ()


class IntegralClass(_Key, namedtuple("IntegralClass", "word")):
    """The direct integral of P(word; c) over the unit circle."""

    __slots__ = ()


class OpaqueTailClass:
    """P(K) for a declared non-eventually-periodic generator.

    Identity of the generator object is the only handle on the class;
    finite shifts of the same generator stay in one class.
    """

    def __init__(self, prefix: Word, source: object):
        self.prefix = prefix
        self.source = source

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OpaqueTailClass) and self.source is other.source

    def __hash__(self) -> int:
        return hash(id(self.source))


RepClass = FiniteClass | TailClass | IntegralClass | OpaqueTailClass


def finite_class(word: Word, phase: Phase = ONE, matrix: TransitionMatrix | None = None) -> FiniteClass:
    """Canonical P(word; phase); validates cyclic admissibility when a
    matrix is supplied.  The phase is rotation-invariant, so it carries
    over to the canonical rotation unchanged."""
    if matrix is not None and not is_cyclically_admissible(matrix, word):
        raise RepError(f"{format_word(word)} is not cyclically admissible")
    return FiniteClass(word=canonical_rotation(word), phase=phase)


def tail_class(tail: TailWord, matrix: TransitionMatrix | None = None) -> TailClass:
    if matrix is not None:
        return TailClass(tail_canonical(matrix, tail))
    return TailClass(TailWord(EMPTY_WORD, canonical_rotation(tail.period)))


def integral_class(word: Word, matrix: TransitionMatrix | None = None) -> IntegralClass:
    if matrix is not None and not is_cyclically_admissible(matrix, word):
        raise RepError(f"{format_word(word)} is not cyclically admissible")
    if is_periodic(word):
        raise RepError("integral classes carry non-periodic words only")
    return IntegralClass(word=canonical_rotation(word))


def class_literal(c: RepClass) -> str:
    """Round-trippable literal: P(12), P(12;1/2), P((1|2)^inf), Int(12)."""
    if isinstance(c, FiniteClass):
        if c.phase.is_one():
            return f"P({format_word(c.word)})"
        return f"P({format_word(c.word)};{format_phase(c.phase)})"
    if isinstance(c, TailClass):
        pre = format_word(c.tail.preperiod) if c.tail.preperiod else ""
        return f"P(({pre}|{format_word(c.tail.period)})^inf)"
    if isinstance(c, IntegralClass):
        return f"Int({format_word(c.word)})"
    return f"P((~{format_word(c.prefix)}...)^inf)"  # opaque: not round-trippable


def format_phase(p: Phase) -> str:
    if p.is_exact:
        num, den = p.pair
        return f"{num}/{den}"
    z = p.as_complex()
    return f"{z.real:.12g}{z.imag:+.12g}i"


def parse_phase(text: str) -> Phase:
    text = text.strip()

    def number(kind, part: str):
        try:
            return kind(part)
        except ValueError:
            raise RepError(f"bad phase literal {text!r}") from None

    if text.endswith("i"):
        body = text[:-1]
        split = max(body.rfind("+", 1), body.rfind("-", 1))
        if split <= 0:
            raise RepError(f"bad phase literal {text!r}")
        return Phase.from_complex(complex(number(float, body[:split]), number(float, body[split:])))
    num, slash, den = text.partition("/")
    return Phase.exact(number(int, num), number(int, den) if slash else 1)


def parse_class_literal(text: str, matrix: TransitionMatrix | None = None) -> RepClass:
    from .words import parse_tail, parse_word

    text = text.strip()
    if text.startswith("Int(") and text.endswith(")"):
        return integral_class(parse_word(text[4:-1]), matrix)
    if not (text.startswith("P(") and text.endswith(")")):
        raise RepError(f"bad class literal {text!r}")
    body = text[2:-1]
    if body.endswith("^inf"):
        inner = body[:-4].strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        tail = parse_tail(inner if "|" in inner else f"|({inner})")
        if matrix is not None and not tail_is_admissible(matrix, tail):
            raise RepError(f"tail {format_tail(tail)} is not admissible")
        return tail_class(tail, matrix)
    word_text, _, phase_text = body.partition(";")
    phase = parse_phase(phase_text) if phase_text else ONE
    return finite_class(parse_word(word_text), phase, matrix)


def is_irreducible(c: RepClass) -> bool:
    """Finite classes: non-periodic word.  Eventually periodic tails are
    never irreducible; declared non-eventually-periodic generators are.
    A direct integral is not irreducible."""
    if isinstance(c, FiniteClass):
        return not is_periodic(c.word)
    return isinstance(c, OpaqueTailClass)


def equivalent(c1: RepClass, c2: RepClass) -> bool:
    """Unitary equivalence of cyclic classes over one matrix.

    Finite classes match on rotation class and phase; tails on their
    canonical tail; integrals on their word; kinds never mix.  Two
    distinct opaque generators are undecidable and raise.
    """
    if isinstance(c1, FiniteClass) and isinstance(c2, FiniteClass):
        return c1.word == c2.word and phases_equal(c1.phase, c2.phase)
    if isinstance(c1, TailClass) and isinstance(c2, TailClass):
        return c1.tail == c2.tail
    if isinstance(c1, IntegralClass) and isinstance(c2, IntegralClass):
        return c1.word == c2.word
    if isinstance(c1, OpaqueTailClass) and isinstance(c2, OpaqueTailClass):
        if c1.source is c2.source:
            return True
        raise UndecidableEquivalenceError(
            "equivalence of two distinct tail generators is not finitely decidable"
        )
    return False


def twist_by_gauge(c: RepClass, gauge: tuple[Phase, ...]) -> RepClass:
    """Compose with the gauge automorphism s_i -> g_i s_i.

    A finite class picks up the product of the gauge phases along its
    word; chain-type classes are untouched.
    """
    if isinstance(c, IntegralClass):
        raise IntegralClassUnsupportedError("gauge twist of a direct integral is not supported")
    if isinstance(c, FiniteClass):
        if max(c.word) > len(gauge):
            raise RepError(f"gauge too short for word {format_word(c.word)}")
        acc = c.phase
        for s in c.word:
            acc = acc * gauge[s - 1]
        return FiniteClass(word=c.word, phase=acc)
    return c


class Decomposition:
    """A multiset of cyclic classes with multiplicities in {1,2,...,inf}.

    Keys are canonical, so equivalent components merge; components the
    truncation could not resolve are listed, never merged.  `level` is
    "cyclic" or "irreducible"; `tail_marker` (shift reports) records
    whether non-eventually-periodic classes exist.
    """

    def __init__(self, entries=None, unresolved=(), level="cyclic", matrix=None, tail_marker=None):
        self.entries = {} if entries is None else entries
        self.unresolved = unresolved
        self.level = level
        self.matrix = matrix
        self.tail_marker = tail_marker

    def add(self, c: RepClass, mult: Multiplicity = 1) -> None:
        self.entries[c] = self.entries.get(c, 0) + mult

    def sorted_entries(self) -> list[tuple[RepClass, Multiplicity]]:
        return sorted(self.entries.items(), key=lambda kv: class_literal(kv[0]))

    def __repr__(self) -> str:
        entries = [(class_literal(c), mult) for c, mult in self.sorted_entries()]
        unresolved = [(format_word(c.word), c.size) for c in self.unresolved]
        return (
            f"Decomposition(level={self.level!r}, entries={entries}, "
            f"unresolved={unresolved}, tail_marker={self.tail_marker})"
        )


def decompose(
    f: "BranchingSystem", phases: "dict[tuple[int, Label], Phase] | None" = None
) -> Decomposition:
    """Cyclic-level decomposition of a realized system, as counted.

    Each multiplicity is the number of resolved components of its class
    inside the truncation, however the system was built; unresolved
    components are listed untouched.  The standard representation's
    structural multiplicities, "inf" for the delta-row classes, are
    `decompose_standard`'s.  Without twists, every cycle has phase 1,
    and cycles that read the same word are classified once.
    """
    from .branching import find_components, validate_bfs
    from .realization import classify_component, realize

    report = validate_bfs(f)
    if not report.ok:
        raise RepError(f"system fails validation: {report.violations[0]}")
    m = realize(f, phases)
    out = Decomposition(matrix=f.matrix)
    unresolved: list[ComponentSkeleton] = []
    copies: dict[Word, int] = {}  # untwisted cycle word as read -> components
    for comp in find_components(f):
        if comp.kind == "unresolved":
            unresolved.append(comp)
        elif comp.kind == "cycle" and not m.weights:
            copies[comp.word] = copies.get(comp.word, 0) + 1
        else:
            out.add(classify_component(comp, m))
    for word, count in copies.items():
        out.add(finite_class(word, ONE, f.matrix), count)
    out.unresolved = tuple(unresolved)
    return out


def expand_irreducible(d: Decomposition) -> Decomposition:
    """Split every reducible entry into its irreducible constituents.

    P(J0^p; c) becomes the p classes P(J0; c^(1/p) * xi^j) with xi the
    first p-th root of unity; an eventually periodic tail becomes the
    direct integral over its primitive cycle word.  Opaque tails pass
    through; the result is idempotent under this map.
    """
    out = Decomposition(
        level="irreducible", matrix=d.matrix, unresolved=d.unresolved, tail_marker=d.tail_marker
    )
    for c, mult in d.entries.items():
        if isinstance(c, FiniteClass):
            root, p = primitive_root(c.word)
            if p == 1:
                out.add(c, mult)
            else:
                base = c.phase.root(p)
                for j in range(1, p + 1):
                    out.add(FiniteClass(word=root, phase=base * Phase.exact(j, p)), mult)
        elif isinstance(c, TailClass):
            out.add(IntegralClass(word=c.tail.period), mult)
        else:
            out.add(c, mult)
    return out


def gp_vector_check(a: TransitionMatrix, word: Word, p: int, depth: int = 2) -> "GPReport":
    """Verify, in exact cyclotomic arithmetic, that the direct sum of the
    p phase-twisted copies of P(word) carries the power class.

    Builds P(word; xi^j) for j = 1..p, forms the unnormalized sum of the
    cyclic vectors, and checks (i) s_{word^p} fixes it, (ii) the kp
    partial-orbit vectors have Gram matrix p * identity, (iii) decomposing
    the sum reproduces the irreducible expansion of P(word^p).
    """
    from .branching import build_cycle_system, direct_sum
    from .realization import GPReport, apply_word, inner_product, realize

    if p < 1:
        raise RepError("p must be >= 1")
    if is_periodic(word):
        raise RepError("the power-splitting check needs a non-periodic word")
    summand = build_cycle_system(a, word, depth)
    total = direct_sum(*[summand] * p)
    anchors = [f"{j}:{summand.labels[0]}" for j in range(p)]  # the full word, per copy
    phases = {(word[-1], x): Phase.exact(j, p) for j, x in enumerate(anchors, start=1)}
    m = realize(total, phases)

    omega: Vector = {total.position[x]: 0 for x in anchors}
    fixed_ok = apply_word(m, power(word, p), omega) == omega

    family: list[Vector] = []  # s_{word[l-1:]} s_{word^reps} omega, reps < p, l = k..1
    v = omega
    for _ in range(p):
        for letter in reversed(word):
            v = apply_word(m, (letter,), v)
            family.append(v)
    gram_ok = True
    expect_p = RootSum(1, {0: p})
    for u_idx, u in enumerate(family):
        for w_idx, w in enumerate(family):
            ip = inner_product(m, u, w)
            if not (ip == expect_p if u_idx == w_idx else ip.is_zero()):
                gram_ok = False

    observed = decompose(total, phases=phases)
    expected = expand_irreducible(
        Decomposition(entries={finite_class(power(word, p), ONE, a): 1}, matrix=a)
    )
    deco_ok = observed.entries == expected.entries and not observed.unresolved
    return GPReport(
        word=word,
        p=p,
        fixed_point_ok=fixed_ok,
        orthonormal_ok=gram_ok,
        family_size=len(family),
        decomposition_matches=deco_ok,
    )


def decompose_standard(a: TransitionMatrix) -> Decomposition:
    """Exact decomposition of the standard representation.

    Each cycle of the min-successor map contributes once, except the
    delta-row cycles, which contribute with infinite multiplicity.  These
    multiplicities are structural: no truncation is built or counted.
    `cross_check_standard` checks them against a truncated system.
    """
    from .cycles import a_cycle_set

    cycles = a_cycle_set(a)
    out = Decomposition(matrix=a)
    for word in cycles.once:
        out.add(finite_class(word, ONE, a), 1)
    for word in cycles.infinite:
        out.add(finite_class(word, ONE, a), INFINITY)
    return out


def cross_check_standard(d: Decomposition, f: "BranchingSystem") -> None:
    """Check the structural decomposition `d` against the counts that
    `decompose` reads off the truncated standard system `f`.  A class
    that `d` gives as inf must be observed at least once, and every
    other class exactly as often as `d` says; the error names every class
    that fails, with its structural and its observed value."""
    observed = decompose(f).entries
    differ = [
        f"{class_literal(c)} structural {want}, observed {got}"
        for c in sorted(set(d.entries) | set(observed), key=class_literal)
        if (want := d.entries.get(c, 0)) != (got := observed.get(c, 0))
        and not (want == INFINITY and got >= 1)
    ]
    if differ:
        raise RepError(
            f"truncation at {len(f.labels)} disagrees with the structural "
            f"standard decomposition: {'; '.join(differ)}"
        )


def decompose_shift(a: TransitionMatrix, max_period: int) -> Decomposition:
    """Decomposition of the shift representation up to a period bound.

    Every primitive cyclic class of length <= max_period appears exactly
    once; the tail marker records whether non-eventually-periodic classes
    (each also of multiplicity one) exist at all.
    """
    from .cycles import _cycle_words

    if max_period < 1:
        raise RepError("max_period must be >= 1")
    out = Decomposition(matrix=a)
    for word, periodic in enumerate_cyclic_classes(a, max_period):
        if not periodic:
            out.add(finite_class(word, ONE, a), 1)
    out.tail_marker = _cycle_words(a) is None
    return out


def phase_json(p: Phase) -> dict:
    if p.is_exact:
        num, den = p.pair
        return {"num": num, "den": den}
    z = p.as_complex()
    return {"re": z.real, "im": z.imag}


def decomposition_json(d: Decomposition) -> dict:
    """The report's record, which `readback.decomposition_from_json` reads back."""
    components = []
    for c, mult in d.sorted_entries():
        if isinstance(c, FiniteClass):
            entry = {"kind": "finite", "word": format_word(c.word), "phase": phase_json(c.phase)}
        elif isinstance(c, TailClass):
            entry = {"kind": "tail", "word": format_word(c.tail.period)}
        elif isinstance(c, IntegralClass):
            entry = {"kind": "integral", "word": format_word(c.word)}
        else:
            raise RepError("opaque tail classes have no report form")
        entry["multiplicity"] = "inf" if mult == INFINITY else mult
        components.append(entry)
    out = {
        "matrix": [list(row) for row in d.matrix.rows] if d.matrix else None,
        "level": d.level,
        "components": components,
        "unresolved": [{"prefix": format_word(c.word), "size": c.size} for c in d.unresolved],
    }
    if d.tail_marker is not None:
        out["tail_classes_present"] = d.tail_marker
    return out
