"""Exact cyclotomic scalar arithmetic."""

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hopfcomm.errors import BadPrime, DenominatorCollision, DivisionByZero
from hopfcomm.exactnum import ONE, CycNum, _prime_factors, cyc, cyclotomic_poly, euler_phi, zeta


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_zeta_is_primitive(n):
    z = zeta(n)
    assert z ** n == 1
    for k in range(1, n):
        assert z ** k != 1


def test_basic_identities():
    assert zeta(4) * zeta(4) == -1
    assert 1 + zeta(3) + zeta(3) ** 2 == 0
    assert zeta(5) * zeta(5, 4) == 1


def test_as_rational():
    assert (zeta(3) + zeta(3, 2)).as_rational() == Fraction(-1)
    assert zeta(8).as_rational() is None
    embedded = cyc(Fraction(5, 3)) + zeta(12) - zeta(12)
    assert embedded.as_rational() == Fraction(5, 3)


def test_cross_order_equality_and_hash():
    a = zeta(6, 2)
    b = zeta(3)
    assert a == b
    assert hash(a) == hash(b)
    assert zeta(6) == -zeta(3, 2)
    assert cyc(7) == 7
    assert hash(cyc(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_conductor_normalization():
    # zeta_6 lives in Q(zeta_3); order 6 never survives canonicalization.
    assert zeta(6).order == 3
    assert zeta(12, 2).order == 3  # zeta_12^2 = zeta_6 = -zeta_3^2
    assert (zeta(8) + zeta(8, 7)).order == 8  # sqrt(2) needs order 8
    assert (zeta(12, 3)).order == 4


def _written_at(n, k):
    # zeta_n^k as the public constructor takes it at order n, unreduced.
    return CycNum(n, [0] * k + [1])


def test_equal_values_at_different_orders_compare_and_hash_equal():
    # 1 + 2*zeta_3, written at orders 24, 12 and 3.
    at24 = 1 + 2 * _written_at(24, 8)
    at12 = 1 + 2 * _written_at(12, 4)
    at3 = 1 + 2 * zeta(3)
    assert at24 == at12 == at3 and at3 == at24
    assert hash(at24) == hash(at12) == hash(at3)
    assert len({at24, at12, at3}) == 1
    assert at24.order == at12.order == at3.order == 3
    assert at24.coeffs == at3.coeffs
    assert at24 != at3 + _written_at(24, 1)
    assert zeta(24) ** 8 == zeta(3) and hash(zeta(24) ** 8) == hash(zeta(3))


def test_cancellation_to_a_rational():
    a, b = _written_at(24, 8), _written_at(24, 16)  # zeta_3, zeta_3^2
    for x, q in ((a + b, -1), (a * b, 1), ((zeta(8) + Fraction(3, 2)) - zeta(8), Fraction(3, 2))):
        assert x.is_rational and x.order == 1 and x.coeffs == (q,)
        assert x.as_rational() == q and x == q and hash(x) == hash(Fraction(q))
    assert not (zeta(8) - zeta(8)) and (zeta(8) - zeta(8)).order == 1


def test_residue_reads_the_conductor_when_the_written_order_is_not_in_the_field():
    # zeta_3 written at order 24; 24 does not divide 12 or 3, but 3 does.
    x = _written_at(24, 8)
    assert x.residue(2, 3, 7) == 2
    assert x.residue(2, x.order, 7) == 2
    assert x.residue(6, 12, 13) == pow(6, 4, 13)  # 6 has order 12 mod 13
    zeta6 = _written_at(24, 4)
    assert (x + zeta6).residue(6, 12, 13) == (pow(6, 4, 13) + pow(6, 2, 13)) % 13
    with pytest.raises(BadPrime):
        _written_at(24, 3).residue(6, 12, 13)  # zeta_8 is not in Q(zeta_12)


def test_galois_on_values_written_above_their_conductor():
    x = _written_at(24, 8)  # zeta_3
    assert x.galois(2) == zeta(3, 2)  # 2 is prime to the conductor, not to 24
    assert x.conjugate() == zeta(3, 2) and (x + 1).conjugate() == 1 + zeta(3, 2)
    assert _written_at(12, 3).galois(7) == zeta(4, 3)
    with pytest.raises(ValueError):
        x.galois(3)


def _galois_by_fraction_vector(x, k):
    # The twist as a loop over the Fraction coordinates at the conductor,
    # passed through the public constructor: the reference for galois.
    n, coeffs = x.order, x.coeffs
    if n == 1:
        return x
    k %= n
    vec = [Fraction(0)] * n
    for j, c in enumerate(coeffs):
        vec[(j * k) % n] += c
    return CycNum(n, vec)


def test_galois_matches_the_fraction_vector_twist():
    # random values of conductor dividing m, written at an order m t above
    # it, against every k prime to their conductor (and k shifted by one
    # period in each direction)
    rng = random.Random(0)
    cases = 0
    for m in (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24):
        for t in (1, 2, 3, 5):
            for _ in range(3):
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                          for _ in range(euler_phi(m))]
                vec = [Fraction(0)] * (m * t)
                for j, c in enumerate(coeffs):
                    vec[j * t] = c
                x = CycNum(m * t, vec)
                n = x.order
                for k in range(-n, 2 * n):
                    if gcd(k, n) != 1:
                        continue
                    got, want = x.galois(k), _galois_by_fraction_vector(x, k)
                    assert got == want and got.order == n
                    assert hash(got) == hash(want) and str(got) == str(want)
                    cases += 1
    assert cases > 2000


def _dixon_sum(e, mults):
    # sum_t mults[t] zeta_e^t one zeta product and one add at a time, as the
    # Dixon lift once built it: the reference for CycNum(e, mults).
    val = CycNum.rational(mults[0])
    for t in range(1, e):
        if mults[t]:
            val = val + CycNum.zeta(e, t) * CycNum.rational(mults[t])
    return val


def _lll_sum(n, best):
    # sum_j (a_j / b) zeta_n^j for the lattice vector (a_0, ..., a_{phi-1}, b),
    # b != 0, as the split's recognition once built it: the reference for
    # CycNum(n, [Fraction(a, b) ...]).
    if best[-1] < 0:
        best = [-x for x in best]
    b = best[-1]
    val = CycNum.rational(Fraction(best[0], b))
    for j in range(1, euler_phi(n)):
        if best[j]:
            val = val + CycNum.rational(Fraction(best[j], b)) * CycNum.zeta(n, j)
    return val


def _same(got, want):
    assert got == want and str(got) == str(want)
    assert hash(got) == hash(want) and got.sort_key() == want.sort_key()


def test_constructor_matches_the_dixon_and_lll_sums():
    # random multiplicity vectors (mostly zero, as a character's are) and
    # random lattice vectors with a nonzero last entry of either sign
    rng = random.Random(3)
    for e in range(1, 61):
        for _ in range(6):
            mults = [rng.choice((0, 0, 0, 1, 2, 5)) for _ in range(e)]
            _same(CycNum(e, mults), _dixon_sum(e, mults))
    for n in range(1, 97):
        phi = euler_phi(n)
        for _ in range(4):
            best = [rng.choice((0, 0, rng.randint(-40, 40))) for _ in range(phi)]
            best.append(rng.choice((-1, 1)) * rng.randint(1, 12))
            _same(CycNum(n, [Fraction(x, best[-1]) for x in best[:phi]]), _lll_sum(n, best))


def test_prime_factors_and_euler_phi_against_brute_force():
    for n in range(1, 1001):
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % q for q in range(2, p))]
        assert _prime_factors(n) == primes
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_division():
    a = zeta(5) + 2
    assert a / a == 1
    assert (zeta(3) / zeta(3)) == 1
    inv = (1 + zeta(4)).inverse()
    assert inv * (1 + zeta(4)) == 1
    with pytest.raises(DivisionByZero):
        cyc(1) / cyc(0)
    with pytest.raises(DivisionByZero):
        cyc(0).inverse()


def test_pow_negative():
    z = zeta(7)
    assert z ** -2 == z ** 5
    assert (2 * z) ** -1 * (2 * z) == 1


def test_conjugate_and_galois():
    z = zeta(5)
    assert z.conjugate() == z ** 4
    assert z.conjugate().conjugate() == z
    assert (z + z.conjugate()).conjugate() == z + z.conjugate()
    with pytest.raises(ValueError):
        zeta(6).galois(3)  # order normalizes to 3; 3 is not prime to 3


def test_reduce_mod_p_examples():
    assert cyc(1).residue(1, 1, 7) == 1
    assert zeta(3).residue(2, 3, 7) == 2  # 2^3 = 1 mod 7
    assert (1 + zeta(3) + zeta(3) ** 2).residue(2, 3, 7) == 0
    with pytest.raises(DenominatorCollision):
        cyc(Fraction(1, 7)).residue(1, 1, 7)


def test_serialization_round_trip():
    vals = [cyc(Fraction(-5, 3)), zeta(8) + 2 * zeta(8, 3), zeta(12) / 3 - 1]
    for v in vals:
        d = v.to_dict()
        assert set(d) == {"order", "coeffs"}
        assert CycNum.from_dict(d) == v
        assert pickle.loads(pickle.dumps(v)) == v and copy.deepcopy(v) == v


def test_str_forms():
    assert str(cyc(Fraction(5, 3))) == "5/3"
    assert str(zeta(3)) == "z3"
    assert str(1 - zeta(4)) == "1 - z4"


_orders = st.sampled_from([1, 3, 4, 5, 8, 12])
_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def cycnums(draw):
    n = draw(_orders)
    k = euler_phi(n)
    return CycNum(n, tuple(draw(st.lists(_fracs, min_size=k, max_size=k))))


@settings(max_examples=150, deadline=None)
@given(cycnums(), cycnums(), cycnums())
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a - a == 0
    if a:
        assert a * a.inverse() == 1


@st.composite
def cycnums_order_dividing_12(draw):
    n = draw(st.sampled_from([1, 3, 4, 12]))
    k = euler_phi(n)
    return CycNum(n, tuple(draw(st.lists(_fracs, min_size=k, max_size=k))))


@settings(max_examples=80, deadline=None)
@given(cycnums_order_dividing_12(), cycnums_order_dividing_12())
def test_reduce_mod_p_is_ring_hom(a, b):
    # 13 = 1 mod 12 covers all sampled orders; 6 has order 12 mod 13.
    p, w = 13, 6
    try:
        ra = a.residue(w, 12, p)
        rb = b.residue(w, 12, p)
        rs = (a + b).residue(w, 12, p)
        rm = (a * b).residue(w, 12, p)
    except DenominatorCollision:
        return
    assert rs == (ra + rb) % p
    assert rm == (ra * rb) % p


@settings(max_examples=100, deadline=None)
@given(cycnums())
def test_canonical_round_trip(a):
    assert CycNum.from_dict(a.to_dict()) == a
    assert CycNum(a.order, a.coeffs) == a


# ---------------------------------------------------------------------------
# Differential test of the integer-numerator layout against Fraction
# coordinates.  The oracle holds a value as (ambient order, Fraction power-
# basis coordinates there) and reduces modulo Phi_n by polynomial long
# division, independently of the power-row tables the class uses.


def _oracle_reduce(n, poly):
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    poly = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for k in range(len(poly) - 1, deg - 1, -1):
        c = poly[k]
        if c:
            for j, p in enumerate(phi):
                poly[k - deg + j] -= c * p
    return tuple(poly[:deg])


def _oracle_value(n, coords):
    # A result that cancelled to a rational is held at order 1.
    if n != 1 and not any(coords[1:]):
        return 1, coords[:1]
    return n, coords


def _oracle_embed(x, m):
    n, coords = x
    poly = [Fraction(0)] * m
    for j, c in enumerate(coords):
        poly[(m // n) * j] += c
    return _oracle_reduce(m, poly)


def _oracle_aligned(x, y):
    m = x[0] * y[0] // gcd(x[0], y[0])
    return m, _oracle_embed(x, m), _oracle_embed(y, m)


def oracle_add(x, y):
    m, a, b = _oracle_aligned(x, y)
    return _oracle_value(m, tuple(s + t for s, t in zip(a, b)))


def oracle_mul(x, y):
    m, a, b = _oracle_aligned(x, y)
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            prod[i + j] += s * t
    return _oracle_value(m, _oracle_reduce(m, prod))


def oracle_residue(x, w, ambient, modulus):
    # x's ambient order divides ``ambient``.
    n, coords = x
    step = pow(w, ambient // n, modulus)
    acc = 0
    for j, c in enumerate(coords):
        if c:
            try:
                inv = pow(c.denominator, -1, modulus)
            except ValueError:
                raise DenominatorCollision(c.denominator) from None
            acc += c.numerator * inv * pow(step, j, modulus)
    return acc % modulus


def _ambient(x):
    # (ambient order, Fraction coordinates there) of a CycNum.
    return x._n, tuple(Fraction(v, x._d) for v in x._v)


def _assert_invariants(x):
    assert x._d > 0 and all(type(v) is int for v in x._v) and type(x._d) is int
    assert gcd(x._d, *x._v) == 1
    assert len(x._v) == euler_phi(x._n)
    assert (x._n == 1) == (x.order == 1)
    if x._n == 1:
        assert x.as_rational() == Fraction(x._v[0], x._d)


_any_order = st.integers(min_value=1, max_value=24)
_small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _operand(draw, orders=_any_order):
    # (CycNum, oracle value); a quarter of the draws are rational or zero.
    n = draw(orders)
    kind = draw(st.sampled_from(("dense", "dense", "dense", "rational")))
    coords = [draw(_small_fracs)] + [
        draw(_small_fracs) if kind == "dense" else Fraction(0)
        for _ in range(euler_phi(n) - 1)]
    return CycNum(n, coords), _oracle_value(n, _oracle_reduce(n, coords))


@st.composite
def _operand_pairs(draw):
    # Operands at orders whose lcm is at most 24; or b = q - a, whose sum
    # with a cancels to q.
    a, oa = draw(_operand())
    if draw(st.booleans()):
        n = oa[0]
        partners = [m for m in range(1, 25) if n * m // gcd(n, m) <= 24]
        return (a, oa) + draw(_operand(st.sampled_from(partners)))
    q = draw(_small_fracs)
    n, coords = oa
    b_coords = (q - coords[0],) + tuple(-c for c in coords[1:])
    return a, oa, CycNum(n, b_coords), _oracle_value(n, b_coords)


@settings(max_examples=200, deadline=None)
@given(_operand_pairs())
def test_arithmetic_matches_fraction_coordinates(pair):
    a, oa, b, ob = pair
    assert _ambient(a) == oa and _ambient(b) == ob
    for x, want in ((a + b, oracle_add(oa, ob)), (a * b, oracle_mul(oa, ob)),
                    (a - b, oracle_add(oa, (ob[0], tuple(-c for c in ob[1])))),
                    (-a, (oa[0], tuple(-c for c in oa[1])))):
        _assert_invariants(x)
        assert _ambient(x) == want
    _, ea, eb = _oracle_aligned(oa, ob)
    assert (a == b) == (ea == eb)
    if b:
        q = a / b
        _assert_invariants(q)
        assert q * b == a


@settings(max_examples=100, deadline=None)
@given(_operand(), st.sampled_from([1, 2, 3, 4]))
def test_embedding_matches_fraction_coordinates(x, k):
    a, oa = x
    n = oa[0] * k
    lifted = a + zeta(n) - zeta(n)  # the same value, held at order n
    if a.is_rational:
        assert lifted._n == 1
    else:
        assert _ambient(lifted) == (n, _oracle_embed(oa, n))
    _assert_invariants(lifted)
    assert lifted == a and hash(lifted) == hash(a)


@settings(max_examples=100, deadline=None)
@given(_operand(st.sampled_from([1, 2, 3, 6])))
def test_residue_collides_exactly_where_the_fraction_coordinates_do(x):
    # 7 = 1 mod 6, and 3 has order 6 mod 7; denominators up to 6 never
    # collide with 7, so the value is also divided by 7 half the time.
    a, oa = x
    for value, coords in ((a, oa), (a / 7, (oa[0], tuple(c / 7 for c in oa[1])))):
        try:
            want = oracle_residue(coords, 3, 6, 7)
        except DenominatorCollision:
            with pytest.raises(DenominatorCollision):
                value.residue(3, 6, 7)
        else:
            assert value.residue(3, 6, 7) == want


@pytest.mark.parametrize("q", [0, 1, -3, Fraction(1, 2), Fraction(-7, 6), 10 ** 30 + 1,
                               Fraction(2 ** 70, 3)])
def test_rational_hash_matches_fraction(q):
    x = cyc(q)
    _assert_invariants(x)
    assert hash(x) == hash(q) == hash(Fraction(q))
    assert hash(x + zeta(5) - zeta(5)) == hash(q)


def test_pickle_and_copy_round_trips_keep_the_layout():
    for x in (cyc(0), cyc(Fraction(-5, 3)), zeta(12) / 3 - 1, _written_at(24, 8) / 7):
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert (y._n, y._v, y._d) == (x._n, x._v, x._d)
            assert y == x and hash(y) == hash(x)
            _assert_invariants(y)


@pytest.mark.parametrize("x", [cyc(Fraction(-7, 6)), cyc(3), cyc(0), zeta(12) / 3 - 1,
                               _written_at(24, 8) / 7])
def test_multiplication_by_one_keeps_the_value_and_its_layout(x):
    for y in (x * 1, 1 * x, ONE * x, x * ONE, x * Fraction(1), x._scaled(1, 1)):
        _assert_invariants(y)
        assert y == x and hash(y) == hash(x) and str(y) == str(x)
        assert (y._n, y._v, y._d) == (x._n, x._v, x._d)
