"""The cycle structure of a transition matrix A.

One walk over the cycles of a map on the alphabet reads both: the
finite/infinite verdict for the set of irreducible permutative classes,
and the cycles of the min-successor map that give the standard
representation.  `words.pspec_summary`, `reps.decompose_standard` and
`reps.decompose_shift` import this module when they run, so the verbs
that read a class's word, phase or tail alone never compile it.
"""

from collections import namedtuple

from .words import TransitionMatrix, Word


def _cycles(step: dict[int, int]) -> tuple[Word, ...]:
    """The cycles of the map v -> step[v], each read from its least letter,
    in (length, base-N) order; a walk that leaves the map's domain closes
    no cycle."""
    seen: set[int] = set()
    cycles: list[Word] = []
    for start in step:
        trail: list[int] = []
        v = start
        while v in step and v not in seen:
            seen.add(v)
            trail.append(v)
            v = step[v]
        if v in trail:  # the walk closed a new cycle; rotate it to its least letter
            cyc = trail[trail.index(v):]
            head = cyc.index(min(cyc))
            cycles.append(tuple(cyc[head:] + cyc[:head]))
    return tuple(sorted(cycles, key=lambda w: (len(w), w)))


def _cycle_words(a: TransitionMatrix) -> tuple[Word, ...] | None:
    """The structural spectrum verdict: the simple cycle words of A in
    (length, base-N) order when every nontrivial strongly connected
    component is a bare cycle, else None (infinitely many classes).

    The components come from Kosaraju's two walks, each with its own
    stack: a forward walk for the finishing order, then backward walks
    over the predecessors in reverse finishing order.  A component is a
    bare cycle iff each of its vertices has exactly one successor inside
    it; a vertex with none lies on no cycle.
    """
    succ, pred = a._successor_table, a._predecessor_table
    order: list[int] = []
    visited = [False] * (a.n + 1)
    for root in range(1, a.n + 1):
        if visited[root]:
            continue
        visited[root] = True
        work = [(root, iter(succ[root - 1]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not visited[w]:
                    visited[w] = True
                    work.append((w, iter(succ[w - 1])))
                    break
            else:
                work.pop()
                order.append(v)
    comp = [0] * (a.n + 1)  # the root of each vertex's component
    for root in reversed(order):
        if comp[root]:
            continue
        comp[root] = root
        stack = [root]
        while stack:
            for u in pred[stack.pop() - 1]:
                if not comp[u]:
                    comp[u] = root
                    stack.append(u)
    step: dict[int, int] = {}
    for v in range(1, a.n + 1):
        inside = [w for w in succ[v - 1] if comp[w] == comp[v]]
        if len(inside) > 1:
            return None
        if inside:
            step[v] = inside[0]
    return _cycles(step)


def phi_map(a: TransitionMatrix) -> dict[int, int]:
    """The min-successor map i -> min{j : a_ij = 1}."""
    return {i: min(a.successors(i)) for i in range(1, a.n + 1)}


class ACycleSet(namedtuple("ACycleSet", "cycles once infinite")):
    """Cycle words of the min-successor map, split by multiplicity.

    `once` lists the cycles appearing once in the standard system;
    `infinite` those whose letters all sit on delta rows, which recur with
    infinite multiplicity.
    """

    __slots__ = ()


def a_cycle_set(a: TransitionMatrix) -> ACycleSet:
    cycles = _cycles(phi_map(a))
    # a cycle of phi lies on delta rows exactly when each of its letters has one successor
    infinite = tuple(w for w in cycles if all(len(a.successors(i)) == 1 for i in w))
    once = tuple(w for w in cycles if w not in infinite)
    return ACycleSet(cycles=cycles, once=once, infinite=infinite)


class PSpecSummary(
    namedtuple(
        "PSpecSummary",
        "finite class_count tails_empty counts_by_length cycle_words cross_check_ok",
    )
):
    """Finite/infinite verdict and bounded enumeration of primitive classes.

    `finite` is decided structurally: every nontrivial strongly connected
    component of the digraph of A is a bare cycle iff there are finitely
    many primitive cyclic classes and no non-eventually-periodic tails.
    `cross_check_ok` records agreement of the enumeration up to max_len
    with the cycle words (finite) or with the trace formula (infinite).
    """

    __slots__ = ()


def _trace_formula_counts(a: TransitionMatrix, max_len: int) -> list[int]:
    """q_1..q_max_len from tr(A^k) = sum over d | k of d * q_d, the trace
    formula inverted divisor by divisor; the powers of A are kept as
    sparse rows of exact walk counts."""
    succ = a._successor_table
    walks = [{v: 1} for v in range(1, a.n + 1)]  # row v of A^k: end -> count
    q = [0]
    for _ in range(max_len):
        for v, row in enumerate(walks):
            step: dict[int, int] = {}
            for u, c in row.items():
                for w in succ[u - 1]:
                    step[w] = step.get(w, 0) + c
            walks[v] = step
        q.append(sum(row.get(v, 0) for v, row in enumerate(walks, 1)))
    for d in range(1, max_len + 1):
        q[d] //= d
        for k in range(2 * d, max_len + 1, d):
            q[k] -= d * q[d]
    return q[1:]
