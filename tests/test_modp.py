"""Tests for the internal mod-p linear algebra helpers."""

import random
from fractions import Fraction

import pytest

from hopfcomm import _modp
from hopfcomm._modp import (
    _gso,
    charpoly,
    element_of_order,
    identity_matrix,
    is_prime,
    lift_root,
    lll_reduce,
    mat_mul,
    mat_vec,
    next_prime_in_ap,
    nullspace,
    poly_eval,
    poly_roots,
    rref,
    solve,
)
from hopfcomm.errors import BadPrime
from hopfcomm.exactnum import cyclotomic_poly, euler_phi


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 61, 97, 101, 7919}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n)) or n in primes
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_next_prime_in_ap():
    # Smallest prime above 2|S4| = 48 congruent to 1 mod exponent 12.
    assert next_prime_in_ap(48, 12) == 61
    assert next_prime_in_ap(24, 6) == 31
    assert next_prime_in_ap(12, 3, 2) == 17


def test_rref_and_solve():
    p = 7
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    rows, pivots = rref(a, p)
    assert pivots == [0, 1]
    x = solve(a, [6, 12 % p, 4], p)
    assert x is not None
    assert mat_vec(a, x, p) == [6, 5, 4]
    assert solve([[1, 1], [1, 1]], [0, 1], p) is None


def test_nullspace():
    p = 11
    a = [[1, 2, 3], [4, 5, 6]]
    basis = nullspace(a, 3, p)
    assert len(basis) == 1
    for v in basis:
        assert mat_vec(a, v, p) == [0, 0]
    assert len(nullspace([], 4, p)) == 4


def test_charpoly_companion():
    # Companion matrix of x^2 - x - 1.
    p = 101
    a = [[0, 1], [1, 1]]
    c = charpoly(a, p)
    assert c == [(-1) % p, (-1) % p, 1]
    with pytest.raises(BadPrime):
        charpoly(identity_matrix(5), 5)


def test_charpoly_diagonal_roots():
    p = 97
    diag = [3, 3, 10]
    a = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
    c = charpoly(a, p)
    assert sorted(poly_roots(c, p)) == [3, 10]
    assert poly_eval(c, 3, p) == 0


def test_mat_mul_identity():
    p = 13
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, identity_matrix(2), p) == a


def test_lift_root():
    r = lift_root([-2, 0, 1], 3, 7, 8)  # sqrt(2) mod 7^8
    assert r % 7 == 3
    assert (r * r - 2) % 7**8 == 0
    with pytest.raises(BadPrime):
        lift_root([0, 0, 1], 0, 7, 4)  # double root of x^2


def test_lll_recognises_cyclotomic_coordinate():
    # Recover x = (2 + 3i)/5 in Q(i) from its residue mod 13^6, where
    # i maps to a lifted square root of -1.
    p, k = 13, 6
    w = lift_root([1, 0, 1], 5, p, k)
    pk = p**k
    c = (2 + 3 * w) * pow(5, -1, pk) % pk
    basis = [[pk, 0, 0], [(-w) % pk, 1, 0], [c, 0, 1]]
    reduced = lll_reduce(basis)
    short = min(reduced, key=lambda v: sum(x * x for x in v))
    if short[2] < 0:
        short = [-x for x in short]
    assert short == [2, 3, 5]


def test_lll_handles_scaled_gcd_lattice():
    reduced = lll_reduce([[12, 0], [13, 1]])
    norms = sorted(sum(x * x for x in v) for v in reduced)
    assert norms[0] <= 2
    assert lll_reduce([[5]]) == [[5]]


def test_lll_preserves_lattice():
    basis = [[4, 1, 0], [1, 3, 1], [0, 1, 5]]
    reduced = lll_reduce(basis)
    # Same determinant up to sign => same lattice volume.
    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
    assert abs(det3(reduced)) == abs(det3(basis))


def test_lll_custom_delta():
    basis = [[7, 2], [3, 9]]
    out = lll_reduce(basis, delta=Fraction(99, 100))
    assert len(out) == 2


def _recompute_lll(basis, delta=Fraction(3, 4)):
    """LLL that recomputes the whole GSO after every size reduction and
    swap: the oracle for the in-place GSO updates of lll_reduce."""
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _gso(b)
    k = 1
    while k < n:
        changed = False
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                changed = True
        if changed:
            mu, norms = _gso(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gso(b)
            k = max(k - 1, 1)
    return b


def _random_lattice(rng, dependent):
    dim = rng.randint(2, 6)
    rows = [[rng.randint(-40, 40) for _ in range(dim)]
            for _ in range(rng.randint(2, dim))]
    if dependent:
        # An integer combination of earlier rows, a copy, or a zero row,
        # inserted anywhere: the GSO then has a zero norm.
        a, b = rng.choice(rows), rng.choice(rows)
        extra = rng.choice([
            [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)],
            list(a),
            [0] * dim,
        ])
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return rows


def _counting_gso(monkeypatch):
    calls = []

    def counted(basis):
        calls.append(len(basis))
        return _gso(basis)

    monkeypatch.setattr(_modp, "_gso", counted)
    return calls


@pytest.mark.parametrize("delta", [Fraction(3, 4), Fraction(99, 100)])
@pytest.mark.parametrize("dependent", [False, True])
def test_lll_matches_recompute_oracle_on_random_lattices(delta, dependent, monkeypatch):
    rng = random.Random(f"lll/{delta}/{dependent}")
    calls = _counting_gso(monkeypatch)
    recomputed = 0
    for _ in range(60):
        basis = _random_lattice(rng, dependent)
        del calls[:]
        assert _modp.lll_reduce(basis, delta) == _recompute_lll(basis, delta)
        recomputed += len(calls) > 1
    # Dependent rows reach the zero-norm fallback; independent rows never do.
    assert (recomputed > 0) == dependent


def _recognition_lattice(N, k, rng, short):
    # The shape recognise() in hopf.split_commutative reduces: short vectors
    # (a_0..a_{phi-1}, b) with sum a_j w^j = b * c (mod p^k).
    p = next_prime_in_ap(max(16, N), N)
    w = lift_root(list(cyclotomic_poly(N)), element_of_order(N, p, rng), p, k)
    modulus = p**k
    phi = euler_phi(N)
    if short:
        num = sum(rng.randint(-9, 9) * pow(w, j, modulus) for j in range(phi))
        c = num * pow(rng.randint(1, 9), -1, modulus) % modulus
    else:
        c = rng.randrange(modulus)
    rows = [[0] * (phi + 1) for _ in range(phi + 1)]
    rows[0][0] = modulus
    for j in range(1, phi):
        rows[j][0] = (-pow(w, j, modulus)) % modulus
        rows[j][j] = 1
    rows[phi][0] = c
    rows[phi][phi] = 1
    return rows


@pytest.mark.parametrize("N", [3, 4, 8, 12])  # phi = 2, 2, 4, 4
@pytest.mark.parametrize("k", [24, 48])
def test_lll_matches_recompute_oracle_on_recognition_lattices(N, k):
    rng = random.Random(f"recognise/{N}/{k}")
    for short in (True, True, False):
        basis = _recognition_lattice(N, k, rng, short)
        assert lll_reduce(basis) == _recompute_lll(basis)


def test_lll_computes_the_gso_once_on_a_full_rank_input(monkeypatch):
    basis = _recognition_lattice(8, 48, random.Random(1), short=True)
    calls = _counting_gso(monkeypatch)
    reduced = _modp.lll_reduce(basis)
    assert calls == [5]
    assert reduced != basis and reduced == _recompute_lll(basis)
