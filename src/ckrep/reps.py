"""Representation classes, realizations and decomposition reports.

The cyclic building blocks are P(J; z) for a cyclically admissible finite
word J and unit phase z (a cycle with one phase-twisted edge), P(K) for an
infinite word K (a chain), and the direct-integral class into which an
eventually periodic chain splits.  This module realizes branching systems
as sparse phase-weighted partial permutations, verifies the two defining
relations of the algebra, classifies components, and produces cyclic and
irreducible-level decomposition reports.  The functions that build or
scan a branching system import `branching` when they run, so the class
calculus alone loads without it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import lcm

from .phases import ONE, Phase, PhaseError, RootSum, phases_equal
from .words import (
    EMPTY_WORD,
    _Key,
    TailWord,
    TransitionMatrix,
    Word,
    _cycle_words,
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
    from .branching import BranchingSystem, ComponentSkeleton, Label, ValidationReport

    Vector = dict[int, int]  # {x: e}, the sum of zeta_N^e e_x over distinct points x

INFINITY = float("inf")

Multiplicity = int | float  # positive int, or INFINITY


class RepError(ValueError):
    """A representation-level argument violates an operation contract."""


class PhaseOffDomainError(RepError):
    pass


class UnresolvedComponentError(RepError):
    pass


class IntegralClassUnsupportedError(RepError):
    pass


class PhaseUnsupportedError(RepError):
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
    if isinstance(c, TailClass):
        return False
    if isinstance(c, OpaqueTailClass):
        return True
    return False


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


class MatrixRealization:
    """pi_f as a sparse phase-weighted partial permutation per symbol.

    s_i sends the basis vector at x to weight * basis vector at f_i(x)
    on the recorded domain and to 0 elsewhere.  `weights` holds the
    twisted edges only; every other recorded edge has weight 1.  Every
    weight is a root of unity, so the vector calculus keeps a vector as
    {point index: e}, the sum of zeta_N^e e_x, with N from `exponents`.
    """

    def __init__(self, system: BranchingSystem, weights: dict[int, dict[Label, Phase]]):
        self.system = system
        self.weights = weights

    @property
    def matrix(self) -> TransitionMatrix:
        return self.system.matrix

    @cached_property
    def exponents(self) -> tuple[int, list[dict[int, int]]]:
        """(N, per symbol {point index: e}): the twisted edge at x has
        weight zeta_N^e, where the order N is the lcm of the twists'
        denominators (1 without twists).  PhaseError on an approximate
        twist; InvalidSystemError if two edges share an image."""
        f = self.system
        f.owner  # the vector calculus needs injective maps
        twists = [(i, x, t) for i, per in self.weights.items() for x, t in per.items()]
        if not all(t.is_exact for _, _, t in twists):
            raise PhaseError("exact arithmetic requires an exact phase")
        order = lcm(*(t.pair[1] for _, _, t in twists))
        exps: list[dict[int, int]] = [{} for _ in range(f.n)]
        for i, x, t in twists:
            num, den = t.pair
            exps[i - 1][f.position[x]] = num * (order // den)
        return order, exps


def realize(
    f: BranchingSystem, phases: dict[tuple[int, Label], Phase] | None = None
) -> MatrixRealization:
    """Attach the supplied twists to their edges; every other recorded
    edge has weight 1."""
    weights: dict[int, dict[Label, Phase]] = {}
    for (i, x), phase in (phases or {}).items():
        k = f.position.get(x)
        if k is None or not 0 < i <= f.n or f.images[i - 1][k] < 0:
            raise PhaseOffDomainError(f"no edge for symbol {i} at point {x!r}")
        weights.setdefault(i, {})[x] = phase
    return MatrixRealization(system=f, weights=weights)


def apply_word(m: MatrixRealization, word: Word, vec: Vector) -> Vector:
    """s_word = s_{j_1} ... s_{j_k}; the rightmost factor acts first.
    Each f_i is injective, so each step maps the point x to f_i(x) and
    adds the edge's twist exponent mod N."""
    f = m.system
    if word and not 0 < min(word) <= max(word) <= f.n:
        raise RepError(f"word {word} has a letter outside 1..{f.n}")
    order, exps = m.exponents
    images = f.images
    for i in reversed(word):
        img, twist = images[i - 1], exps[i - 1]
        vec = {y: (e + twist.get(x, 0)) % order for x, e in vec.items() if (y := img[x]) >= 0}
    return vec


def inner_product(m: MatrixRealization, v: Vector, w: Vector) -> RootSum:
    """<v, w>, conjugate-linear in v: a point with v[x] = a and w[x] = b
    adds zeta_N^(b - a)."""
    order = m.exponents[0]
    counts: dict[int, int] = {}
    for x in v.keys() & w.keys():
        d = (w[x] - v[x]) % order
        counts[d] = counts.get(d, 0) + 1
    return RootSum(order, counts)


def verify_ck_relations(m: MatrixRealization) -> ValidationReport:
    """Both defining relations on the basis, as `validate_bfs`'s report on
    the underlying system.

    The weights have unit modulus, so neither relation sees them: s_i^* s_i
    projects onto D(f_i) and s_i s_i^* onto R(f_i) once f_i is injective.
    The first relation then holds at a point exactly where the domain law
    does, and the second exactly where the point lies in one range.  Edge
    violations (a non-injective map, an image in two ranges) are reported
    at every point, frontier included, since there the sum of the
    s_j s_j^* already exceeds the identity whatever data is missing;
    coverage and the domain law are checked at non-frontier points."""
    from .branching import validate_bfs

    return validate_bfs(m.system)


def classify_component(c: ComponentSkeleton, m: MatrixRealization) -> RepClass:
    """Read off the class of a resolved component.

    A cycle yields P(canonical word; product of edge phases); the product
    is rotation invariant, so no rebasing is needed.  A chain yields the
    canonical tail class of its declared tail, or an opaque class when the
    tail came from a generator.
    """
    if c.kind == "cycle":
        phase = ONE
        k = len(c.points)
        for l in range(k):
            twist = m.weights.get(c.word[l], {}).get(c.points[(l + 1) % k])
            if twist is not None:  # untwisted edges have weight 1
                phase = phase * twist
        return finite_class(c.word, phase, m.matrix)
    if c.kind == "chain":
        if isinstance(c.declared, TailWord):
            return tail_class(c.declared, m.matrix)
        return OpaqueTailClass(prefix=c.word, source=c.declared)
    raise UnresolvedComponentError(
        f"component through {c.points[0]!r} is not resolved inside the truncation"
    )


def decompose(
    f: BranchingSystem,
    phases: dict[tuple[int, Label], Phase] | None = None,
    structural_infinities: bool = True,
) -> Decomposition:
    """Cyclic-level decomposition of a realized system.

    Counts the resolved components per canonical class; unresolved
    components are listed untouched.  For an untwisted standard-system
    truncation (origin "standard", which only `standard_bfs` sets) the
    delta-row cycle classes recur with infinite multiplicity; their
    observed counts corroborate that and the reported multiplicity is the
    structural "inf".  The other cycle classes appear once each there, as
    the paper shows; `cross_check_standard` compares those counts.
    Without twists, every cycle has phase 1, and cycles that read the same
    word are classified once.
    """
    from .branching import a_cycle_set, find_components, validate_bfs

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
    if structural_infinities and not phases and f.origin == "standard":
        for word in a_cycle_set(f.matrix).infinite:
            key = finite_class(word)
            if key in out.entries:
                out.entries[key] = INFINITY
    return out


def expand_irreducible(d: Decomposition) -> Decomposition:
    """Split every reducible entry into its irreducible constituents.

    P(J0^p; c) becomes the p classes P(J0; c^(1/p) * xi^j) with xi the
    first p-th root of unity; an eventually periodic tail becomes the
    direct integral over its primitive cycle word.  Opaque tails pass
    through; the result is idempotent under this map.
    """
    out = Decomposition(
        level="irreducible",
        matrix=d.matrix,
        unresolved=d.unresolved,
        tail_marker=d.tail_marker,
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


def state_value(a: TransitionMatrix, c: RepClass, left: Word, right: Word) -> int:
    """The vector state of the class at s_left s_right^*; exact 0 or 1.

    Cycle case: 1 iff both words lie in a common set
    I_p = {J^a + J[:p] : a >= 0}, 0 <= p < |J|.  Chain case: 1 iff both
    words are the same prefix of the tail.  Inadmissible words give 0.
    The state is written for phase 1 only; other phases are refused.
    """
    if isinstance(c, FiniteClass):
        if not c.phase.is_one():
            raise PhaseUnsupportedError("the state formula covers phase 1 only")
        word = c.word
        k = len(word)

        def in_ip(w: Word, p: int) -> bool:
            if len(w) < p or (len(w) - p) % k:
                return False
            reps = (len(w) - p) // k
            return w == power(word, reps) + word[:p]

        for p in range(k):
            if in_ip(left, p) and in_ip(right, p):
                return 1
        return 0
    if isinstance(c, TailClass):
        if left != right:
            return 0
        return 1 if left == c.tail.prefix(len(left)) else 0
    raise RepError("the state formula covers cycle and tail classes only")


def is_pure(c: RepClass) -> bool:
    """Purity of the associated state; coincides with irreducibility."""
    if isinstance(c, FiniteClass) and not c.phase.is_one():
        raise PhaseUnsupportedError("the state formula covers phase 1 only")
    if isinstance(c, IntegralClass):
        raise RepError("the state formula covers cycle and tail classes only")
    return is_irreducible(c)


class GPReport(
    namedtuple(
        "GPReport",
        "word p fixed_point_ok orthonormal_ok family_size decomposition_matches",
    )
):
    """Outcome of the cyclic-vector check for a split power class."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.fixed_point_ok and self.orthonormal_ok and self.decomposition_matches


def gp_vector_check(a: TransitionMatrix, word: Word, p: int, depth: int = 2) -> GPReport:
    """Verify, in exact cyclotomic arithmetic, that the direct sum of the
    p phase-twisted copies of P(word) carries the power class.

    Builds P(word; xi^j) for j = 1..p, forms the unnormalized sum of the
    cyclic vectors, and checks (i) s_{word^p} fixes it, (ii) the kp
    partial-orbit vectors have Gram matrix p * identity, (iii) decomposing
    the sum reproduces the irreducible expansion of P(word^p).
    """
    from .branching import build_cycle_system, direct_sum

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


def decompose_standard(
    a: TransitionMatrix, cross_check_truncation: int | None = None
) -> Decomposition:
    """Exact decomposition of the standard representation.

    Each cycle of the min-successor map contributes once, except the
    delta-row cycles, which contribute with infinite multiplicity.  With a
    truncation bound the symbolic answer is checked against an actual
    truncated system.
    """
    from .branching import a_cycle_set, standard_bfs

    cycles = a_cycle_set(a)
    out = Decomposition(matrix=a)
    for word in cycles.once:
        out.add(finite_class(word, ONE, a), 1)
    for word in cycles.infinite:
        out.add(finite_class(word, ONE, a), INFINITY)
    if cross_check_truncation is not None:
        cross_check_standard(out, standard_bfs(a, cross_check_truncation))
    return out


def cross_check_standard(d: Decomposition, f: BranchingSystem) -> None:
    """Check the structural decomposition `d` against the truncated
    standard system `f`; the error names every class whose multiplicity
    differs, with its structural and its observed value."""
    observed = decompose(f).entries
    differ = [
        f"{class_literal(c)} structural {d.entries.get(c, 0)}, observed {observed.get(c, 0)}"
        for c in sorted(set(d.entries) | set(observed), key=class_literal)
        if d.entries.get(c, 0) != observed.get(c, 0)
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
    if max_period < 1:
        raise RepError("max_period must be >= 1")
    out = Decomposition(matrix=a)
    for word, periodic in enumerate_cyclic_classes(a, max_period):
        if not periodic:
            out.add(finite_class(word, ONE, a), 1)
    out.tail_marker = _cycle_words(a) is None
    return out


def standard_is_multiplicity_free(a: TransitionMatrix) -> bool:
    from .branching import a_cycle_set

    return not a_cycle_set(a).infinite


def standard_is_irreducible(a: TransitionMatrix) -> bool:
    from .branching import a_cycle_set

    cycles = a_cycle_set(a)
    return not cycles.infinite and len(cycles.once) == 1


def phase_json(p: Phase) -> dict:
    if p.is_exact:
        num, den = p.pair
        return {"num": num, "den": den}
    z = p.as_complex()
    return {"re": z.real, "im": z.imag}


def phase_from_json(data) -> Phase:
    """Read the form `phase_json` writes; a missing phase is trivial."""
    if data is None:
        return ONE
    try:
        if "num" in data:
            return Phase.exact(data["num"], data["den"])
        return Phase.from_complex(complex(data["re"], data["im"]))
    except (KeyError, TypeError):
        raise RepError(f"bad phase {data!r}: need num/den integers or re/im numbers") from None


def decomposition_json(d: Decomposition) -> dict:
    """The report schema used by the CLI and the golden tests."""
    components = []
    for c, mult in d.sorted_entries():
        entry: dict = {}
        if isinstance(c, FiniteClass):
            entry["kind"] = "finite"
            entry["word"] = format_word(c.word)
            entry["phase"] = phase_json(c.phase)
        elif isinstance(c, TailClass):
            entry["kind"] = "tail"
            entry["word"] = format_word(c.tail.period)
        elif isinstance(c, IntegralClass):
            entry["kind"] = "integral"
            entry["word"] = format_word(c.word)
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
