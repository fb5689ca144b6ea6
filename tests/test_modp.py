"""Tests for the internal mod-p helpers: primes, the splitter of
commutative algebras, the Teichmuller root of unity and LLL."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcomm import _modp, runlog
from hopfcomm._modp import (
    algebra_mul,
    element_of_order,
    first_certified,
    is_prime,
    lll_reduce,
    next_prime_in_ap,
    split_idempotents,
)
from hopfcomm.errors import BadPrime, DenominatorCollision, VerificationFailed
from hopfcomm.exactnum import cyclotomic_poly, euler_phi


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 61, 97, 101, 7919}
    for n in range(2, 120):
        assert is_prime(n) == all(n % d for d in range(2, n)) or n in primes
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


@pytest.mark.parametrize("p", [7, 13, 31, 61, 97, 241, 337, 1009])
def test_element_of_order_has_the_exact_order(p):
    # every e | p - 1, three seeds each; the order is found by brute force
    for e in (e for e in range(1, p) if (p - 1) % e == 0):
        for seed in range(3):
            z = element_of_order(e, p, random.Random(seed))
            order = next(t for t in range(1, p) if pow(z, t, p) == 1)
            assert order == e, (p, e, seed)


def test_next_prime_in_ap():
    # Smallest prime above 2|S4| = 48 congruent to 1 mod exponent 12.
    assert next_prime_in_ap(48, 12) == 61
    assert next_prime_in_ap(24, 6) == 31
    assert next_prime_in_ap(12, 3, 2) == 17


def _sparse(dense):
    """algebra_mul's rows {a: {b: ((c, s), ...)}} of the nonzero dense
    structure constants s = t[a][b][c]."""
    rows = {}
    for a, row in enumerate(dense):
        for b, col in enumerate(row):
            if terms := tuple((c, s) for c, s in enumerate(col) if s):
                rows.setdefault(a, {})[b] = terms
    return rows


def _dense_mul(dense, x, y, m):
    n = len(x)
    return [sum(x[a] * y[b] * dense[a][b][c] for a in range(n) for b in range(n)) % m
            for c in range(n)]


def _inverse_mod(mat, p):
    """Inverse of an invertible square matrix over F_p (Gauss-Jordan)."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        r = next(i for i in range(c, n) if aug[i][c] % p)
        aug[c], aug[r] = aug[r], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def _product_algebra(n, p, rng):
    """F_p^n in the basis b_a = sum_i P[i][a] u_i (u_i the coordinate
    idempotents, P random invertible): its structure constants, the unit in
    that basis, and the u_i in that basis."""
    while True:
        P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        try:
            Q = _inverse_mod(P, p)  # u_i = sum_a Q[a][i] b_a
        except StopIteration:
            continue
        break
    dense = [[[sum(P[i][a] * P[i][b] * Q[c][i] for i in range(n)) % p
               for c in range(n)] for b in range(n)] for a in range(n)]
    units = [[Q[a][i] for a in range(n)] for i in range(n)]
    unit = [sum(u[a] for u in units) % p for a in range(n)]
    return dense, unit, units


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), p=st.sampled_from([7, 11, 13, 31, 97]),
       seed=st.integers(0, 2**32 - 1))
def test_split_idempotents_of_a_product_of_fields_in_a_random_basis(n, p, seed):
    rng = random.Random(seed)
    dense, unit, units = _product_algebra(n, p, rng)
    got = split_idempotents(_sparse(dense), unit, p, rng)
    assert got is not None
    assert sorted(got) == sorted(units)


def test_algebra_mul_matches_dense_product():
    rng = random.Random(5)
    p = 13
    dense, _, _ = _product_algebra(4, p, rng)
    struct = _sparse(dense)
    for m in (p, p**3):
        for _ in range(20):
            x = [rng.randrange(m) for _ in range(4)]
            y = [rng.randrange(m) for _ in range(4)]
            assert algebra_mul(struct, x, y, m) == _dense_mul(dense, x, y, m)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), m=st.sampled_from([7, 13**3, 2**61 - 1]))
def test_algebra_mul_reads_the_rows_like_the_dense_product(data, n, m):
    # any table, sparse or not; zero coordinates and zero constants included
    entry = st.one_of(st.just(0), st.integers(-5, 5), st.integers(0, m - 1))
    dense = data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n),
                                        min_size=n, max_size=n), min_size=n, max_size=n))
    x, y = (data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    assert algebra_mul(_sparse(dense), x, y, m) == _dense_mul(dense, x, y, m)


def test_split_idempotents_refuses_nilpotents_and_unsplit_fields():
    # Basis (1, x); x^2 = r.  r = 0 is not semisimple; r a non-residue mod
    # p gives F_{p^2}, which does not split over F_p.
    def quadratic(r):
        return _sparse([[[1, 0], [0, 1]], [[0, 1], [r, 0]]])

    for p in (3, 5, 7, 13):
        r = next(r for r in range(2, p) if pow(r, (p - 1) // 2, p) == p - 1)
        for seed in range(30):
            assert split_idempotents(quadratic(0), [1, 0], p, random.Random(seed)) is None
            assert split_idempotents(quadratic(r), [1, 0], p, random.Random(seed)) is None
    # x^2 = 0 is refused at the first z with w^3 != w, long before the
    # 64 dim rounds run out.
    class CountingRandom(random.Random):
        draws = 0

        def randrange(self, *args):
            self.draws += 1
            return super().randrange(*args)

    rng = CountingRandom(0)
    assert split_idempotents(quadratic(0), [1, 0], 13, rng) is None
    assert rng.draws <= 8
    # A residue r = s^2 splits: the idempotents (1 +- x/s)/2.
    p, s = 13, 5
    got = split_idempotents(quadratic(s * s % p), [1, 0], p, random.Random(0))
    half, t = pow(2, -1, p), pow(s, -1, p)
    assert sorted(got) == sorted([[half, half * t % p], [half, -half * t % p]])


def test_split_idempotents_of_a_one_dimensional_algebra_is_its_unit():
    assert split_idempotents({0: {0: ((0, 1),)}}, [1], 5, random.Random(0)) == [[1]]


def test_teichmuller_root_is_the_cyclotomic_root_over_w():
    # pow(w, p**(k-1), p**k) for w of order N mod p, p = 1 mod N: the root
    # of Phi_N mod p^k that hopf._split_attempt takes for zeta_N.
    for N in (1, 2, 3, 4, 5, 8, 12, 15, 24, 60):
        p = max(16, N)
        for _ in range(3):
            p = next_prime_in_ap(p, N)
            w = element_of_order(N, p, random.Random(f"teichmuller/{N}/{p}"))
            for k in (1, 2, 7, 24, 48):
                modulus = p**k
                root = pow(w, p**(k - 1), modulus)
                assert root % p == w
                assert sum(c * pow(root, i, modulus)
                           for i, c in enumerate(cyclotomic_poly(N))) % modulus == 0


def test_lll_recognises_cyclotomic_coordinate():
    # Recover x = (2 + 3i)/5 in Q(i) from its residue mod 13^6, where
    # i maps to the Teichmuller lift of the square root 5 of -1 mod 13.
    p, k = 13, 6
    pk = p**k
    w = pow(5, p**(k - 1), pk)
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


def _gso(basis):
    """Rational Gram-Schmidt: mu[i][j] and the squared norms |b*_i|^2
    (mu is 0 against a zero norm)."""
    n = len(basis)
    bstar = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            dot = sum(Fraction(x) * y for x, y in zip(basis[i], bstar[j]))
            mu[i][j] = dot / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _recompute_lll(basis):
    """LLL (delta = 3/4) that recomputes the whole rational GSO after every
    subtraction and swap, so each quotient round(mu[k][j]) of the size
    reduction is read from the current row (the textbook RED(k, j)): the
    oracle for the integer updates of lll_reduce.  round() of a Fraction
    rounds ties to even."""
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _gso(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = _gso(b)
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
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
        # inserted anywhere: a Gram determinant is then zero.
        a, b = rng.choice(rows), rng.choice(rows)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        extra = rng.choice([
            [s * x + t * y for x, y in zip(a, b)],
            list(a),
            [0] * dim,
        ])
        rows.insert(rng.randrange(len(rows) + 1), extra)
    return rows


# Exact half-integer mu: 1/2 and 5/2 round down to the even integer, 3/2
# rounds up, and the three-row lattice has mu = 1/2 twice.  Rounding ties
# up instead of to even changes every basis here but the 3/2 one.
HALF_INTEGER_MU = [
    [[2, 0], [1, 1]],
    [[2, 0], [5, 1]],
    [[2, 0], [3, 1]],
    [[4, 0, 0], [2, 1, 0], [6, 3, 1]],
]


@pytest.mark.parametrize("dependent", [False, True])
def test_lll_matches_recompute_oracle_on_random_lattices(dependent):
    rng = random.Random(f"lll/3/4/{dependent}")
    lattices = [_random_lattice(rng, dependent) for _ in range(60)]
    if dependent:
        for basis in lattices:
            with pytest.raises(ValueError):
                lll_reduce(basis)
        return
    for basis in HALF_INTEGER_MU + lattices:
        assert lll_reduce(basis) == _recompute_lll(basis)


def _recognition_lattice(N, k, rng, short):
    # The shape recognise() in hopf.split_commutative reduces: short vectors
    # (a_0..a_{phi-1}, b) with sum a_j w^j = b * c (mod p^k).
    p = next_prime_in_ap(max(16, N), N)
    modulus = p**k
    w = pow(element_of_order(N, p, rng), p**(k - 1), modulus)
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


def test_lll_constructs_no_fraction_on_a_recognition_lattice(monkeypatch):
    basis = _recognition_lattice(8, 48, random.Random(1), short=True)
    expected = _recompute_lll(basis)
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    reduced = _modp.lll_reduce(basis)
    assert made == []
    assert reduced != basis and reduced == expected


# ---------------------------------------------------------------------------
# the prime/retry loop


def _tries(precisions, propose, accept=lambda c: c):
    """first_certified's result (or the VerificationFailed) and its events,
    on primes == 1 mod 6 above 20."""
    runlog.drain()
    try:
        result = first_certified({"stage": "s", "dim": 3}, 6, 20, precisions, propose,
                                 accept, lambda reason: f"gave up: {reason}")
    except VerificationFailed as exc:
        result = exc
    return result, runlog.drain()


@pytest.mark.parametrize("precisions, schedule", [
    ((None,), [(31, None), (37, None), (43, None), (61, None), (67, None)]),
    ((24, 48), [(31, 24), (31, 48), (37, 24), (37, 48), (43, 24)]),
])
def test_first_certified_schedule(precisions, schedule):
    seen = []
    result, events = _tries(precisions, lambda p, k: seen.append((p, k)))
    assert seen == schedule
    p, k = schedule[-1]
    at = f"p={p}" if k is None else f"p={p}, k={k}"
    assert str(result) == f"gave up: {at}: reconstruction failed"
    assert events == [{"stage": "s", "dim": 3, "prime": p,
                       **({} if k is None else {"precision": k}),
                       "outcome": "reconstruction_failed"} for p, k in schedule]


def test_first_certified_outcomes():
    raised = [BadPrime("b"), DenominatorCollision("d"), ValueError("v")]

    def propose(p, k):
        if raised:
            raise raised.pop(0)
        return p

    def accept(p):
        if p < 67:
            raise VerificationFailed("refused")
        return p

    result, events = _tries((None,), propose, accept)
    assert result == 67
    assert [e["outcome"] for e in events] == [
        "BadPrime", "DenominatorCollision", "ValueError", "reconstruction_failed", "ok"]


def test_first_certified_passes_other_errors_through():
    def propose(p, k):
        raise KeyError(p)

    with pytest.raises(KeyError):
        _tries((None,), propose)
