"""Seeded inputs and invocation plans for the four benchmark workloads.

Nothing here imports `ckrep`: inputs are drawn from `random.Random`
seeded by the workload name and the seed, sized with exact counts taken
from powers of the transition matrix, and written out as the files and
literals `ck` reads.  The same (workload, seed, small) always gives the
same files and argument lists, byte for byte.

Sizes are stratified rather than drawn freely: each slot of a plan has a
fixed verb and size class, and the seed only picks the matrix, word or
tail inside that class.  That keeps the cost of a plan nearly the same
from seed to seed, so the run-to-run spread measures the program and
not the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("standard", "carriers", "cyclotomic", "words")


@dataclass(frozen=True)
class Op:
    """One `ck` invocation: its arguments and the oracle that checks it.

    `check` is a tuple whose first item names a check in `oracles.py`;
    the rest are that check's parameters.
    """

    argv: tuple[str, ...]
    check: tuple

    @property
    def verb(self) -> str:
        return self.argv[0]


@dataclass
class Plan:
    """The files an invocation plan reads, and the invocations in order."""

    workload: str
    seed: int
    files: dict[str, str] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


# ---------------------------------------------------------------- matrices


def mat_mul(x, y):
    n = len(x)
    return [[sum(x[i][k] * y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def mat_powers(a, count):
    """[A^1, ..., A^count] as integer matrices."""
    out = [a]
    while len(out) < count:
        out.append(mat_mul(out[-1], a))
    return out


def word_counts(a, max_len: int) -> list[int]:
    """[W(1), ..., W(max_len)], W(k) = 1^T A^(k-1) 1 admissible words of length k."""
    v = [1] * len(a)
    out = []
    for _ in range(max_len):
        out.append(sum(v))
        v = [sum(e * x for e, x in zip(row, v)) for row in a]
    return out


def is_valid(m) -> bool:
    n = len(m)
    return all(any(r) for r in m) and all(any(r[j] for r in m) for j in range(n))


def random_matrix(rng: random.Random, n: int, density: float):
    """A valid 0/1 matrix with entries 1 at the given density."""
    while True:
        m = [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        if is_valid(m):
            return m


def irreducible(m) -> bool:
    """Whether the digraph of m is strongly connected."""
    n = len(m)
    for edge in (lambda i, j: m[i][j], lambda i, j: m[j][i]):
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            for j in range(n):
                if edge(i, j) and j not in seen:
                    seen.add(j)
                    todo.append(j)
        if len(seen) < n:
            return False
    return True


def phi_cycles(m) -> list[tuple[list[int], bool]]:
    """Cycles of the min-successor map i -> min{j : a_ij = 1}, each with
    whether all its letters sit on delta rows (rows holding a single 1)."""
    n = len(m)
    phi = {i: min(j for j in range(1, n + 1) if m[i - 1][j - 1]) for i in range(1, n + 1)}
    seen: set[int] = set()
    out = []
    for start in range(1, n + 1):
        v, trail = start, []
        while v not in seen:
            seen.add(v)
            trail.append(v)
            v = phi[v]
        if v in trail:
            cycle = trail[trail.index(v) :]
            out.append((cycle, all(sum(m[i - 1]) == 1 for i in cycle)))
    return out


# Row sums per (N, kind).  They fix how many points of a standard truncation
# are frontier, as the kind fixes how many components it splits into.
ROW_SUMS = {
    (2, 0): (2, 2), (2, 1): (1, 2), (2, 2): (1, 2),
    (3, 0): (2, 2, 3), (3, 1): (1, 2, 3), (3, 2): (1, 2, 3),
    (4, 0): (2, 2, 3, 3), (4, 1): (1, 2, 3, 3), (4, 2): (1, 2, 3, 3),
}


def standard_matrix(rng: random.Random, n: int, kind: int):
    """A valid matrix with the row sums of ROW_SUMS[n, kind], of one of three
    kinds: 0, no delta row (row with a single 1); 1, a delta row on no cycle
    of the min-successor map made of delta rows; 2, one delta row, a
    self-loop, which then recurs with infinite multiplicity."""
    while True:
        m = []
        for ones in ROW_SUMS[n, kind]:
            cols = set(rng.sample(range(n), ones))
            m.append([1 if j in cols else 0 for j in range(n)])
        rng.shuffle(m)
        if not is_valid(m):
            continue
        deltas = [i for i, row in enumerate(m) if sum(row) == 1]
        delta_cycles = [c for c, delta in phi_cycles(m) if delta]
        if kind != 2 and not delta_cycles:
            return m
        if kind == 2 and delta_cycles == [[deltas[0] + 1]]:
            return m


def finite_spectrum_matrix(rng: random.Random, n: int):
    """A valid matrix whose nontrivial strongly connected components are
    bare cycles: a permutation plus edges that only run forward between
    its cycles."""
    perm = list(range(n))
    rng.shuffle(perm)
    cycle_of: dict[int, int] = {}
    for i in range(n):
        if i in cycle_of:
            continue
        j, c = i, len(set(cycle_of.values()))
        while j not in cycle_of:
            cycle_of[j] = c
            j = perm[j]
    rank = list(range(len(set(cycle_of.values()))))
    rng.shuffle(rank)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][perm[i]] = 1
        for j in range(n):
            if rank[cycle_of[i]] < rank[cycle_of[j]] and rng.random() < 0.4:
                m[i][j] = 1
    return m


def matrix_text(m) -> str:
    return "".join("".join(str(e) for e in row) + "\n" for row in m)


def successors(m, i: int) -> list[int]:
    """1-based successors of 1-based symbol i."""
    return [j + 1 for j, e in enumerate(m[i - 1]) if e]


def predecessors(m, j: int) -> list[int]:
    return [i + 1 for i in range(len(m)) if m[i][j - 1]]


# ------------------------------------------------------------------- words


def fmt_word(w) -> str:
    """The word literal `ck` reads; symbols are single digits, as N <= 4."""
    return "".join(map(str, w))


def is_periodic(w) -> bool:
    s = fmt_word(w)
    return s in (s + s)[1:-1]


def closed_walk(rng: random.Random, m, length: int, tries: int = 40):
    """A random cyclically admissible, non-periodic word, or None: a window
    of a random walk twice as long whose last letter may precede its first."""
    succ = [successors(m, i) for i in range(1, len(m) + 1)]
    for _ in range(tries):
        walk = [rng.randint(1, len(m))]
        for _ in range(2 * length - 1):
            walk.append(rng.choice(succ[walk[-1] - 1]))
        for i in range(length):
            w = tuple(walk[i : i + length])
            if m[w[-1] - 1][w[0] - 1] and not is_periodic(w):
                return w
    return None


def tree_size(powers, j: int, depth: int) -> int:
    """Words of length 1..depth that may precede symbol j: sum_l (1^T A^l)_j."""
    return sum(sum(p[i][j - 1] for i in range(len(p))) for p in powers[:depth])


def cycle_carrier_size(m, word, depth: int) -> int:
    """Points of the cycle carrier of `word` at tree depth `depth`."""
    powers = mat_powers(m, max(depth, 1))
    size = len(word)
    for l in range(len(word)):
        prev = word[l - 1]
        for j in predecessors(m, word[l]):
            if j != prev:
                size += 1 + tree_size(powers, j, depth)
    return size


def chain_carrier_size(m, letters, depth: int) -> int:
    """Points of the chain carrier spelled by `letters` at tree depth `depth`."""
    powers = mat_powers(m, max(depth, 1))
    size = len(letters)
    for idx, letter in enumerate(letters):
        for j in predecessors(m, letter):
            if idx == 0 or j != letters[idx - 1]:
                size += 1 + tree_size(powers, j, depth)
    return size


def random_tail(rng: random.Random, m):
    """(preperiod, period) with an admissible preperiod leading into a
    non-periodic cyclically admissible period, or None."""
    period = closed_walk(rng, m, rng.randint(1, 4))
    if period is None:
        return None
    pre: list[int] = []
    for _ in range(rng.randint(0, 3)):
        head = pre[0] if pre else period[0]
        choices = predecessors(m, head)
        pre.insert(0, rng.choice(choices))
    return tuple(pre), period


def tail_letters(pre, period, count: int) -> list[int]:
    out = list(pre)
    while len(out) < count:
        out.extend(period)
    return out[:count]


def tail_literal(pre, period) -> str:
    return f"{fmt_word(pre) if pre else ''}|({fmt_word(period)})"


# ------------------------------------------------------------------ phases


def phase_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def class_text(word, q: Fraction) -> str:
    return f"P({fmt_word(word)})" if q == 0 else f"P({fmt_word(word)};{phase_text(q)})"


def random_phase(rng: random.Random) -> Fraction:
    """A high-order root of unity, as turns in (0, 1)."""
    den = rng.randint(60, 997)
    return Fraction(rng.randint(1, den - 1), den)


# ------------------------------------------------------------------- plans


class _PlanWriter:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"ckrep-bench:{workload}:{seed}")
        self.plan = Plan(workload, seed)

    def matrix_file(self, m) -> str:
        name = f"m{len(self.plan.files)}.txt"
        self.plan.files[name] = matrix_text(m)
        return name

    def dump_file(self) -> str:
        return f"d{len(self.plan.ops)}.bfs"

    def add(self, argv, check) -> int:
        self.plan.ops.append(Op(tuple(str(x) for x in argv), tuple(check)))
        return len(self.plan.ops) - 1


def _standard(b: _PlanWriter, small: bool) -> None:
    # Every (N, verb) pair twice, each slot with a fixed matrix kind and
    # row sums: these decide how many components and frontier points the
    # standard system has, which sets the cost, so the seed varies the
    # matrix only inside its kind.  The twelve slots take the twelve rungs
    # of a geometric ladder of truncations from 2^14 to 2^17, dealt so that
    # each N and each verb gets low and high rungs: the latencies then have
    # no gap for the median to jump across, and one pass takes about 5 s.
    lo, hi = (64, 256) if small else (2**14, 2**17)
    ladder = [round(lo * (hi / lo) ** (k / 11)) for k in range(12)]
    slot = 0
    for n in (2, 3, 4):
        for v, verb in enumerate(("decompose-standard", "verify-relations")):
            for t in (0, 1):
                m = standard_matrix(b.rng, n, kind=(t + v + n) % 3)
                path = b.matrix_file(m)
                trunc = ladder[slot * 5 % 12]
                slot += 1
                if verb == "decompose-standard":
                    b.add([verb, "--matrix", path, "--truncate", trunc],
                          ("standard_decomposition", m))
                else:
                    b.add([verb, "--matrix", path, "--system", "standard", "--truncate", trunc],
                          ("relations_ok",))


def _within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * target


def _draw_cycle_carrier(rng, n: int, target: int):
    while True:
        m = random_matrix(rng, n, rng.uniform(0.45, 0.9))
        word = closed_walk(rng, m, rng.randint(2, 5))
        if word is None:
            continue
        for depth in range(8, 4, -1):
            if _within(cycle_carrier_size(m, word, depth), target, 0.05):
                return m, word, depth


def _draw_chain_carrier(rng, n: int, target: int, chain_len: int):
    while True:
        m = random_matrix(rng, n, rng.uniform(0.45, 0.9))
        tail = random_tail(rng, m)
        if tail is None:
            continue
        letters = tail_letters(*tail, chain_len)
        for depth in range(8, 4, -1):
            if _within(chain_carrier_size(m, letters, depth), target, 0.05):
                return m, tail, depth


def _carriers(b: _PlanWriter, small: bool) -> None:
    # Tree carriers in fixed size classes (depth 5..8 picks the size), each
    # written with --dump-bfs and read back by decompose-bfs; standard
    # dumps take the same write-then-read path, one of them with a delta
    # cycle so that decompose-standard says inf where the dump says a count.
    targets = (60, 240, 120, 180) if small else (4000, 16000, 8000, 12000)
    for k, target in enumerate(targets):
        n = 3 + k % 2
        m, word, depth = _draw_cycle_carrier(b.rng, n, target)
        path, dump = b.matrix_file(m), b.dump_file()
        b.add(["verify-relations", "--matrix", path, "--system", "cycle", "--word", fmt_word(word),
               "--depth", depth, "--dump-bfs", dump], ("relations_ok",))
        b.add(["decompose-bfs", "--matrix", path, "--bfs", dump], ("cycle_dump", word))

        chain_len = 8 + 2 * k
        m, (pre, period), depth = _draw_chain_carrier(b.rng, 7 - n, target, chain_len)
        path, dump = b.matrix_file(m), b.dump_file()
        b.add(["verify-relations", "--matrix", path, "--system", "chain", "--tail",
               tail_literal(pre, period), "--chain-len", chain_len, "--depth", depth,
               "--dump-bfs", dump], ("relations_ok",))
        b.add(["decompose-bfs", "--matrix", path, "--bfs", dump], ("chain_dump",))
    for kind, trunc in ((1, 64), (2, 256)) if small else ((1, 2**14), (2, 2**15)):
        m = standard_matrix(b.rng, 3, kind)
        path, dump = b.matrix_file(m), b.dump_file()
        std = b.add(["decompose-standard", "--matrix", path, "--truncate", trunc, "--dump-bfs", dump],
                    ("standard_decomposition", m))
        b.add(["decompose-bfs", "--matrix", path, "--bfs", dump], ("same_classes", std))


def _cyclotomic(b: _PlanWriter, small: bool) -> None:
    # Power classes whose Gram matrix holds (k*p)^2 exact inner products;
    # the word length k falls as p grows, and the 3x3 matrix is drawn so
    # the depth-2 cycle carrier has about 10 points per letter, so every
    # slot costs about the same whatever the seed.  The short expand,
    # twist and equiv invocations sit between them.
    ladder = ((3, 4), (2, 6)) if small else ((14, 4), (2, 16), (8, 6), (3, 12), (5, 8), (2, 14), (3, 10))
    powers = []
    for k, p in ladder:
        while True:
            m = random_matrix(b.rng, 3, b.rng.uniform(0.5, 0.9))
            word = closed_walk(b.rng, m, k)
            if word is not None and _within(cycle_carrier_size(m, word, 2), 10 * k, 0.2):
                break
        powers.append((m, word, p))
    short = []
    for m, word, _ in powers[:3]:
        reps = b.rng.randint(2, 16)
        q = random_phase(b.rng)
        short.append((["expand", "--class", class_text(word * reps, q)], ("expansion", word, reps, q)))
    for m, word, _ in powers[:3]:
        q = random_phase(b.rng)
        gauge = [random_phase(b.rng) for _ in range(len(m))]
        short.append((["twist", "--class", class_text(word, q), "--gauge", ",".join(map(phase_text, gauge))],
                      ("twist", word, q, tuple(gauge))))
    for n_pair, (m, word, _) in enumerate(powers[:3]):
        q = random_phase(b.rng)
        shift = b.rng.randrange(1, len(word))
        rotated = word[shift:] + word[:shift]
        same = n_pair % 2 == 0
        q2 = q if same else (q + Fraction(1, q.denominator)) % 1
        short.append((["equiv", "--class", class_text(word, q), "--class", class_text(rotated, q2)],
                      ("equivalence", same)))
    short = short[0::3] + short[1::3] + short[2::3]
    for slot, (m, word, p) in enumerate(powers):
        b.add(["gp-check", "--matrix", b.matrix_file(m), "--word", fmt_word(word), "--power", p],
              ("gp_ok", word, p))
        b.add(*short[slot])
    for argv, check in short[len(powers):]:
        b.add(argv, check)


def _draw_words_matrix(rng, fits):
    while True:
        m = random_matrix(rng, rng.choice((2, 3, 4)), rng.uniform(0.35, 0.75))
        chosen = fits(m)
        if chosen is not None:
            return m, chosen


def _words(b: _PlanWriter, small: bool) -> None:
    # Enumeration and shift decompositions whose cost is pinned by exact
    # counts from powers of A: pspec grows sum_{k<=L} 1^T A^(k-1) 1 words
    # and Booth-rotates the tr(A^k) closing ones (about 0.56 of a grown
    # word per letter), decompose-shift builds and formats the
    # 1^T A^(2P-1) 1 words of length 2P.  The five slots of each verb take
    # alternate rungs of one ladder of ten costs, so the latencies around
    # the median have no gap for it to jump across.  Long words for canon
    # and classify-word; one pspec on a matrix with a finite spectrum.
    scales = (0.88, 0.4, 1.36, 0.64, 1.12)
    shift_scales = (1.24, 0.76, 1.48, 0.52, 1.0)
    pspec_cost = 600 if small else 275000
    shift_words = 150 if small else 16000
    max_lens = range(4, 8) if small else range(10, 16)
    periods = (3, 4) if small else (6, 7, 8)

    def pspec_len(target):
        def fits(m):
            grown = word_counts(m, max(max_lens))
            traces = [sum(p[i][i] for i in range(len(m))) for p in mat_powers(m, max(max_lens))]
            for L in reversed(max_lens):
                cost = sum(grown[:L]) + 0.56 * sum(k * traces[k - 1] for k in range(1, L + 1))
                if _within(cost, target, 0.05):
                    return L
            return None
        return fits

    def shift_period(target):
        def fits(m):
            grown = word_counts(m, 2 * max(periods))
            # points times label length: shift_bfs formats every point
            ok = [p for p in periods if _within(grown[2 * p - 1] * p / 7, target, 0.05)]
            return ok[-1] if ok else None
        return fits

    lengths = (60, 200) if small else (1000, 10000)
    for slot, scale in enumerate(scales):
        m, max_len = _draw_words_matrix(b.rng, pspec_len(scale * pspec_cost))
        b.add(["pspec", "--matrix", b.matrix_file(m), "--max-len", max_len], ("pspec", m, max_len))
        m, period = _draw_words_matrix(b.rng, shift_period(shift_scales[slot] * shift_words))
        b.add(["decompose-shift", "--matrix", b.matrix_file(m), "--max-period", period],
              ("shift", m, period))
        if slot >= len(lengths):
            continue
        while True:
            m = random_matrix(b.rng, b.rng.choice((2, 3, 4)), b.rng.uniform(0.4, 0.8))
            if irreducible(m) and max(map(sum, m)) > 1:  # long closed walks exist
                word = closed_walk(b.rng, m, lengths[slot])
                if word is not None:
                    break
        b.add(["canon", "--word", fmt_word(word)], ("canon", word))
        b.add(["classify-word", "--matrix", b.matrix_file(m), "--word", fmt_word(word)],
              ("classify", word))
    m = finite_spectrum_matrix(b.rng, b.rng.choice((3, 4)))
    b.add(["pspec", "--matrix", b.matrix_file(m), "--max-len", 12], ("pspec", m, 12))


_WORKLOAD_PLANS = {"standard": _standard, "carriers": _carriers, "cyclotomic": _cyclotomic, "words": _words}


def build_plan(workload: str, seed: int, small: bool = False) -> Plan:
    """The files and the ordered invocations of one pass of `workload`."""
    b = _PlanWriter(workload, seed)
    _WORKLOAD_PLANS[workload](b, small)
    return b.plan
