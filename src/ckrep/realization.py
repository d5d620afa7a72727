"""Matrix realizations of branching systems, and the vector states of classes.

A realization is a system's maps as sparse phase-weighted partial
permutations; its vector calculus reads a component's class off its
cycle or its chain, and checks the cyclic vectors of a split power
class.  `state_value` evaluates the vector state of a cycle or tail
class.  `reps.decompose` and `reps.gp_vector_check` import this module
when they run, so the verbs that read a class's word, phase or tail
alone never compile it.
"""

from collections import namedtuple
from functools import cached_property
from math import lcm

from .phases import ONE, Phase, PhaseError, RootSum
from .reps import (
    FiniteClass,
    OpaqueTailClass,
    RepClass,
    RepError,
    TailClass,
    finite_class,
    tail_class,
)
from .words import TailWord, TransitionMatrix, Word, _check_symbols, power

TYPE_CHECKING = False  # typing's flag, without importing typing
if TYPE_CHECKING:
    from .branching import BranchingSystem, ComponentSkeleton, Label

    Vector = dict[int, int]  # {x: e}, the sum of zeta_N^e e_x over distinct points x


class PhaseOffDomainError(RepError):
    pass


class UnresolvedComponentError(RepError):
    pass


class PhaseUnsupportedError(RepError):
    pass


class MatrixRealization:
    """pi_f as a sparse phase-weighted partial permutation per symbol.

    s_i sends the basis vector at x to weight * basis vector at f_i(x)
    on the recorded domain and to 0 elsewhere.  `weights` holds the
    twisted edges only; every other recorded edge has weight 1.  Every
    weight is a root of unity, so the vector calculus keeps a vector as
    {point index: e}, the sum of zeta_N^e e_x, with N from `exponents`.
    """

    def __init__(self, system: "BranchingSystem", weights: "dict[int, dict[Label, Phase]]"):
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
        twist."""
        f = self.system
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
    f: "BranchingSystem", phases: "dict[tuple[int, Label], Phase] | None" = None
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


def apply_word(m: MatrixRealization, word: Word, vec: "Vector") -> "Vector":
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


def inner_product(m: MatrixRealization, v: "Vector", w: "Vector") -> RootSum:
    """<v, w>, conjugate-linear in v: a point with v[x] = a and w[x] = b
    adds zeta_N^(b - a)."""
    order = m.exponents[0]
    counts: dict[int, int] = {}
    for x in v.keys() & w.keys():
        d = (w[x] - v[x]) % order
        counts[d] = counts.get(d, 0) + 1
    return RootSum(order, counts)


def classify_component(c: "ComponentSkeleton", m: MatrixRealization) -> RepClass:
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


def state_value(a: TransitionMatrix, c: RepClass, left: Word, right: Word) -> int:
    """The vector state of the class at s_left s_right^*; exact 0 or 1.

    Cycle case: 1 iff both words lie in a common set
    I_p = {J^a + J[:p] : a >= 0}, 0 <= p < |J|.  Chain case: 1 iff both
    words are the same prefix of the tail.  Inadmissible words give 0; a
    letter outside 1..N is refused.  The state is written for phase 1
    only; other phases are refused.
    """
    _check_symbols(a, left)
    _check_symbols(a, right)
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
