import cmath
import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    OraclePhase,
    OracleRootSum,
    oracle_cyclotomic_polynomial,
    oracle_format_phase,
    oracle_phase_json,
    oracle_phases_equal,
)
from ckrep.phases import Phase, PhaseError, RootSum, cyclotomic_polynomial, phases_equal
from ckrep.reps import FiniteClass, format_phase, phase_json


def test_exact_phase_normalization():
    assert Phase.exact(3, 2).turns == Fraction(1, 2)
    assert Phase.exact(-1, 4).turns == Fraction(3, 4)
    assert Phase.exact(5).is_one()


def test_phase_arithmetic_is_exact():
    i = Phase.exact(1, 4)
    assert (i * i).turns == Fraction(1, 2)
    assert (i * i * i * i).is_one()
    assert i.conjugate().turns == Fraction(3, 4)
    assert i.root(2).turns == Fraction(1, 8)
    assert Phase.exact(0).root(3).turns == 0


@pytest.mark.parametrize("kwargs", [{}, {"turns": 0, "approx": 1}])
def test_a_phase_takes_exactly_one_of_turns_and_approx(kwargs):
    with pytest.raises(PhaseError, match="exactly one of turns/approx"):
        Phase(**kwargs)


def test_zero_denominator_is_a_phase_error():
    with pytest.raises(PhaseError, match="zero denominator"):
        Phase.exact(1, 0)


@pytest.mark.parametrize("turns", [0.5, 1e-3, "1/2", complex(1, 0)])
def test_turns_that_are_not_rational_are_a_phase_error(turns):
    with pytest.raises(PhaseError, match="is not a rational number"):
        Phase(turns=turns)


def test_approx_phase_tolerance():
    z = Phase.from_complex(cmath.exp(1j))
    assert not z.is_exact
    assert phases_equal(z, Phase.from_complex(cmath.exp(1j)))
    with pytest.raises(PhaseError):
        Phase.from_complex(1.1)


def test_nan_is_not_a_phase():
    with pytest.raises(PhaseError):
        Phase.from_complex(complex(float("nan"), 0.0))


def test_root():
    assert Phase.exact(1, 3).root(2) == Phase.exact(1, 6)
    with pytest.raises(PhaseError, match="root order"):
        Phase.exact(1, 3).root(0)
    # the principal root of an approximate phase divides its angle in [0, 2 pi)
    for angle, p in [(0.6, 3), (-0.6, 3), (2.5, 2)]:
        got = Phase.from_complex(cmath.exp(1j * angle)).root(p)
        assert not got.is_exact
        assert abs(got.as_complex() - cmath.exp(1j * (angle % (2 * cmath.pi)) / p)) < 1e-12
        assert abs(got.as_complex() ** p - cmath.exp(1j * angle)) < 1e-12


def test_phases_equal_across_kinds():
    assert phases_equal(Phase.exact(1, 2), Phase.from_complex(-1 + 0j))
    assert not phases_equal(Phase.exact(1, 2), Phase.exact(0))


def test_cyclotomic_polynomials_known_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        cyclotomic_polynomial(0)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_match_oracle():
    for n in range(1, 61):
        assert cyclotomic_polynomial(n) == oracle_cyclotomic_polynomial(n)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 8, 12])
def test_root_of_unity_sums_vanish(p):
    total = RootSum()
    for j in range(1, p + 1):
        total = total + RootSum(p, {j: 1})
    assert total.is_zero()
    # dropping one term leaves something nonzero
    assert not (total - RootSum(1, {0: 1})).is_zero()


def test_rootsum_ring_identities():
    zeta, one = RootSum(3, {1: 1}), RootSum(1, {0: 1})
    assert zeta * zeta * zeta == one
    assert (zeta + zeta.conjugate() + one).is_zero()
    assert (zeta - zeta).is_zero()
    prod = zeta * zeta.conjugate()
    assert prod == one


def test_rootsum_mixed_orders_compare_correctly():
    # zeta_3 written through order 6 must equal zeta_6 - 1
    zeta3 = RootSum(3, {1: 1})
    other = RootSum(6, {1: 1}) - RootSum(1, {0: 1})
    assert zeta3 == other


def test_rootsum_matches_floating_point():
    v = RootSum(5, {1: 1}).scaled(Fraction(2, 3)) + RootSum(1, {0: 1})
    z = v.as_complex()
    expect = 2 / 3 * cmath.exp(2j * cmath.pi / 5) + 1
    assert abs(z - expect) < 1e-12


def test_exact_arithmetic_refuses_approximate_phases():
    # the vector calculus, the one builder of root sums, takes exact twists only
    from ckrep.branching import build_cycle_system
    from ckrep.reps import realize
    from ckrep.words import validate_matrix

    f = build_cycle_system(validate_matrix([[1, 1], [1, 1]]), (1,), 1)
    m = realize(f, {(1, "1"): Phase.from_complex(cmath.exp(0.5j))})
    with pytest.raises(PhaseError, match="exact arithmetic requires an exact phase"):
        m.exponents


def test_rootsum_keys_reduce_modulo_the_order():
    # zeta_n^k depends on k mod n only; keys that meet after reduction add up
    assert RootSum(2, {-1: 1, 1: -1}).is_zero()
    assert RootSum(3, {-1: 1}) == RootSum(3, {2: 1})
    assert not RootSum(2, {3: 1}).is_zero()
    assert RootSum(2, {3: 1}) == RootSum(2, {1: 1}) == RootSum(1, {0: -1})
    assert RootSum(4, {1: 1, 5: 1, -3: 1}) == RootSum(4, {1: 3})
    assert RootSum(5, {7: 2, -8: -2}).is_zero()


# Differential test against the Fraction-keyed oracle: both are built from
# the same terms c * zeta_n^k, then every operation's result must agree on
# the zero test, numerically, and exactly (the oracle's terms read back).

COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _both(terms):
    new, old = RootSum(), OracleRootSum.zero()
    for n, k, c in terms:
        new = new + RootSum(n, {k % n: c})
        old = old + OracleRootSum({Fraction(k, n): c})
    return new, old


def _from_oracle(old: OracleRootSum) -> RootSum:
    total = RootSum()
    for t, c in old.terms.items():
        total = total + RootSum(t.denominator, {t.numerator: c})
    return total


def _agree(new: RootSum, old: OracleRootSum) -> None:
    assert new.is_zero() == old.is_zero()
    assert abs(new.as_complex() - old.as_complex()) < 1e-9
    assert new == _from_oracle(old)


@st.composite
def _cases(draw):
    orders = draw(st.lists(st.integers(1, 30), min_size=1, max_size=2))
    term = st.tuples(st.sampled_from(orders), st.integers(0, 29), COEFFS)
    a, b, x = (_both(draw(st.lists(term, max_size=4))) for _ in range(3))
    q = draw(COEFFS)
    p = max(2, orders[-1])
    # x * (zeta_p + ... + zeta_p^p) vanishes; adding r * zeta_p (r != 0) does not.
    roots = _both([(p, j, 1) for j in range(1, p + 1)])
    off = _both([(p, 1, draw(COEFFS.filter(bool)))])
    return a, b, x, q, roots, off


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_cases())
def test_rootsum_agrees_with_fraction_keyed_oracle(case):
    (a, oa), (b, ob), (x, ox), q, (roots, oroots), (off, ooff) = case
    for new, old in [(a, oa), (b, ob), (a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob),
                     (-a, -oa), (a.conjugate(), oa.conjugate()), (a.scaled(q), oa.scaled(q))]:
        _agree(new, old)
    assert (a == b) == (oa == ob)
    assert (a * b == b * a) and (oa * ob == ob * oa)
    zero, ozero = x * roots, ox * oroots
    assert zero.is_zero() and ozero.is_zero()
    assert a + zero == a and oa + ozero == oa
    nonzero, ononzero = zero + off, ozero + ooff
    assert not nonzero.is_zero() and not ononzero.is_zero()
    assert a + nonzero != a and oa + ononzero != oa
    _agree(a * zero + b, oa * ozero + ob)



# Differential test of the integer-pair Phase against the earlier
# Fraction-based one: every operation, comparison and rendering agrees, on
# exact phases num/den of any sign and on approximate ones.

NUMS = st.integers(-40, 40)
DENS = st.integers(-24, 24).filter(bool)


def _phase_pairs(a, b, c, d, p, angle):
    x, y = Phase.exact(a, b), Phase.exact(c, d)
    ox, oy = OraclePhase.exact(a, b), OraclePhase.exact(c, d)
    z, oz = Phase.from_complex(cmath.exp(1j * angle)), OraclePhase.from_complex(cmath.exp(1j * angle))
    return [
        (x, ox),
        (y, oy),
        (Phase(turns=Fraction(a, b)), OraclePhase(turns=Fraction(a, b))),
        (Phase(turns=a), OraclePhase(turns=Fraction(a))),
        (x * y, ox * oy),
        (x.conjugate(), ox.conjugate()),
        (x.root(p), ox.root(p)),
        (x * x.conjugate(), ox * ox.conjugate()),
        (z, oz),
        (x * z, ox * oz),
        (z * y, oz * oy),
        (z.conjugate(), oz.conjugate()),
        (z.root(p), oz.root(p)),
    ]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(NUMS, DENS, NUMS, DENS, st.integers(1, 7), st.floats(-7, 7))
def test_phase_agrees_with_fraction_based_oracle(a, b, c, d, p, angle):
    pairs = _phase_pairs(a, b, c, d, p, angle)
    for new, old in pairs:
        assert new.is_exact == old.is_exact
        assert new.turns == old.turns and type(new.turns) is type(old.turns)
        assert new.as_complex() == old.as_complex()
        assert new.is_one() == old.is_one()
        assert format_phase(new) == oracle_format_phase(old)
        assert phase_json(new) == oracle_phase_json(old)
        if new.is_exact:
            assert new.pair == (new.turns.numerator, new.turns.denominator)
            assert 0 <= new.pair[0] < new.pair[1]
    for new1, old1 in pairs:
        for new2, old2 in pairs:
            assert phases_equal(new1, new2) == oracle_phases_equal(old1, old2)
            assert (new1 == new2) == (old1 == old2)
            if new1 == new2:
                assert hash(new1) == hash(new2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(NUMS, DENS, NUMS, DENS, st.integers(1, 7), st.floats(-7, 7))
def test_phase_survives_pickle_and_copy(a, b, c, d, p, angle):
    for phase, _ in _phase_pairs(a, b, c, d, p, angle):
        record = FiniteClass((1, 2), phase)
        copies = [copy.copy(phase), copy.deepcopy(phase), copy.deepcopy(record).phase]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copies.append(pickle.loads(pickle.dumps(phase, protocol)))
            copies.append(pickle.loads(pickle.dumps(record, protocol)).phase)
        for twin in copies:
            assert type(twin) is Phase and twin == phase and hash(twin) == hash(phase)
            assert twin.is_exact == phase.is_exact and twin.turns == phase.turns
