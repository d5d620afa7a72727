"""Output checks that do not trust the library.

Each check takes the parameters an `Op` carries and the stdout of one
invocation, and returns None when the output is right or a one-line
reason when it is not.  They rest on independent facts:

- the trace formula q_k = (1/k) sum_{d|k} mu(k/d) tr(A^d) for the number
  of primitive cyclic classes of length k (Lind & Marcus, *An
  Introduction to Symbolic Dynamics and Coding*, 1995, ch. 6), and the
  rule that the class spectrum is finite iff sum_{N<k<=2N} q_k = 0;
- brute-force minimum rotation and periodicity of a word;
- the cycles of the min-successor map for the standard representation;
- closed forms for `expand`, `twist` and `equiv` on exact phases.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import class_text, fmt_word, is_periodic, mat_powers, phi_cycles


def mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def primitive_counts(m, max_len: int) -> list[int]:
    """[q_1, ..., q_max_len] by the trace formula, in exact integers."""
    traces = [sum(p[i][i] for i in range(len(m))) for p in mat_powers(m, max_len)]
    out = []
    for k in range(1, max_len + 1):
        total = sum(mobius(k // d) * traces[d - 1] for d in range(1, k + 1) if k % d == 0)
        assert total % k == 0
        out.append(total // k)
    return out


def spectrum_finite(m) -> bool:
    n = len(m)
    return sum(primitive_counts(m, 2 * n)[n:]) == 0


def min_rotation(word) -> str:
    s = "".join(map(str, word))
    doubled = s + s
    return min(doubled[i : i + len(s)] for i in range(len(s)))


def is_lyndon(s: str) -> bool:
    return min_rotation(s) == s and not is_periodic(s)


def cyclically_admissible(m, s: str) -> bool:
    w = [int(c) for c in s]
    return all(m[w[i - 1] - 1][w[i] - 1] for i in range(len(w)))


def class_words(line: str) -> list[str]:
    """The words of a ' (+) '-joined list of P(word) literals."""
    if line == "(empty)":
        return []
    return [lit[2:-1] if lit.startswith("P(") and lit.endswith(")") else lit
            for lit in line.split(" (+) ")]


def strip_multiplicity(lit: str) -> str:
    return lit.split("^(", 1)[0] if lit.endswith(")") and "^(" in lit else lit


# ------------------------------------------------------------------ checks


def relations_ok(lines):
    if len(lines) != 4 or lines[3] != "relations: ok":
        return "relations not ok"
    checked = int(lines[0].split(": ")[1])
    if lines[2] != f"completeness checks: {checked}":
        return "completeness checks differ from checked points"
    if not lines[1].startswith("domain checks: "):
        return "no domain check count"
    return None


def standard_decomposition(lines, m):
    """Each cycle of the min-successor map once; those whose letters all
    sit on delta rows (rows with a single 1) with multiplicity inf."""
    literals = [f"P({min_rotation(cycle)})" + ("^(inf)" if delta else "")
                for cycle, delta in phi_cycles(m)]
    expected = " (+) ".join(sorted(literals, key=strip_multiplicity))
    return None if lines == [expected] else f"expected {expected!r}"


def cycle_dump(lines, word):
    expected = f"P({min_rotation(word)})"
    return None if lines == [expected] else f"expected {expected!r}"


def chain_dump(lines):
    # A dump keeps no declared tail, so the one chain orbit reads back as
    # unresolved and no class is named.
    expected = ["(empty)", "unresolved components: 1"]
    return None if lines == expected else f"expected {expected!r}"


def same_classes(lines, other_lines):
    """decompose-bfs of a standard dump names the classes decompose-standard
    names; multiplicities may differ (inf against a truncation count)."""
    if not other_lines:
        return "no decompose-standard output to compare with"
    ours = sorted(strip_multiplicity(x) for x in lines[0].split(" (+) "))
    theirs = sorted(strip_multiplicity(x) for x in other_lines[0].split(" (+) "))
    return None if ours == theirs and len(lines) == 1 else f"classes {ours} != {theirs}"


def gp_ok(lines, word, p):
    expected = [
        f"word: {fmt_word(word)} power: {p}",
        "fixed point: ok",
        f"orthonormal family of {len(word) * p}: ok",
        "decomposition match: ok",
    ]
    return None if lines == expected else f"expected {expected!r}"


def expansion(lines, word, reps, q):
    """P(w^r; q) = sum over j = 1..r of P(w; (q + j) / r)."""
    root = [int(c) for c in min_rotation(word)]
    lits = sorted(class_text(root, ((q + j) / reps) % 1) for j in range(1, reps + 1))
    expected = " (+) ".join(lits)
    return None if lines == [expected] else f"expected {expected!r}"


def twist(lines, word, q, gauge):
    """P(w; q) twisted by g is P(w; q + sum of g over the letters of w)."""
    turns = (q + sum((gauge[s - 1] for s in word), Fraction(0))) % 1
    expected = class_text([int(c) for c in min_rotation(word)], turns)
    return None if lines == [expected] else f"expected {expected!r}"


def equivalence(lines, same):
    expected = "equivalent" if same else "not equivalent"
    return None if lines == [expected] else f"expected {expected!r}"


def pspec(lines, m, max_len):
    q = primitive_counts(m, max(max_len, 2 * len(m)))
    finite = spectrum_finite(m)
    counts = " ".join(f"{k}:{c}" for k, c in enumerate(q[:max_len], start=1))
    expected = [f"verdict: {'finite' if finite else 'infinite'}"]
    if finite:
        expected.append(f"primitive classes: {sum(q)}")
        cycles = lines[2].removeprefix("cycle words: ").split() if len(lines) > 2 else []
        if len(cycles) != sum(q) or not all(
            is_lyndon(c) and cyclically_admissible(m, c) for c in cycles
        ):
            return f"cycle words {cycles} are not the {sum(q)} primitive classes"
        expected.append(lines[2])
    expected += [
        f"tail classes: {'empty' if finite else 'nonempty'}",
        f"primitive counts by length: {counts}",
        "enumeration cross-check: ok",
    ]
    return None if lines == expected else f"expected {expected!r}"


def shift(lines, m, max_period):
    words = class_words(lines[0]) if lines else []
    want = sum(primitive_counts(m, max_period))
    if len(words) != want or len(set(words)) != want:
        return f"{len(words)} classes, trace formula gives {want}"
    for w in words:
        if len(w) > max_period or not is_lyndon(w) or not cyclically_admissible(m, w):
            return f"P({w}) is not a primitive admissible class of length <= {max_period}"
    if lines[0] != " (+) ".join(sorted(f"P({w})" for w in words)):
        return "classes are not sorted by literal"
    marker = "none" if spectrum_finite(m) else "present (each multiplicity 1)"
    if lines[1:] != [f"non-eventually-periodic classes: {marker}"]:
        return f"expected tail marker {marker!r}"
    return None


def canon(lines, word):
    return None if lines == [min_rotation(word)] else "not the minimum rotation"


def classify(lines, word):
    s = fmt_word(word)
    c = min_rotation(word)
    expected = [
        f"word: {s}",
        "admissible: yes",
        "cyclically admissible: yes",
        "periodic: no",
        f"primitive root: {s}",
        "multiplicity: 1",
        f"minimal: {'yes' if c == s else 'no'}",
        f"canonical rotation: {c}",
    ]
    return None if lines == expected else "classify-word report differs from brute force"


CHECKS = {
    f.__name__: f
    for f in (relations_ok, standard_decomposition, cycle_dump, chain_dump, same_classes, gp_ok,
              expansion, twist, equivalence, pspec, shift, canon, classify)
}


def check_output(op, stdout: str, outputs: dict[int, str]) -> str | None:
    """None if `stdout` is right for `op`; else why not.  `outputs` maps
    plan indices to stdout already seen, for checks across invocations."""
    name, *params = op.check
    lines = stdout.splitlines()
    if name == "same_classes":
        other = outputs.get(params[0])
        return same_classes(lines, other.splitlines() if other is not None else None)
    try:
        return CHECKS[name](lines, *params)
    except Exception as exc:  # malformed output fails the invocation, not the run
        return f"unparsable output: {type(exc).__name__}: {exc}"
