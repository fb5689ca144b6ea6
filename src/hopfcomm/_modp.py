"""Modular-arithmetic workhorses: primes, the prime/retry loop, a splitter
of commutative algebras by Frobenius powers, and a small integer LLL.

These are internal helpers for splitting commutative algebras (character
tables, central idempotents).  An algebra is given by rows {a: {b: ((c, s),
...)}} of integer structure constants and its elements by dense lists of
ints mod p; there is no row reduction here, since the idempotents come from
powers of random elements.  ``hopf.split_commutative`` Newton-lifts these
idempotents to p^k and takes zeta_N mod p^k as the Teichmuller lift of an
``element_of_order`` N mod p.  The LLL keeps its Gram-Schmidt data as
integers and takes linearly independent rows only.  Modular results only
propose: ``first_certified`` is the one prime/retry loop, and an exact
certificate decides.
"""

from __future__ import annotations

from . import runlog
from ._linalg import _bilinear, _by_squaring
from .errors import BadPrime, DenominatorCollision, VerificationFailed
from .exactnum import _prime_factors


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any modulus we use."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime_in_ap(lower: int, modulus: int, residue: int = 1) -> int:
    """Smallest prime p > lower with p == residue (mod modulus)."""
    p = lower + 1
    p += (residue - p) % modulus
    while not is_prime(p):
        p += modulus
    return p


TRIES = 5


def first_certified(event: dict, N: int, lower: int, precisions: tuple,
                    propose, accept, failure):
    """``accept(candidate)`` of the first ``propose(p, k)`` it certifies.

    Try t runs at k = precisions[t % len(precisions)] on the
    (t // len(precisions))-th prime p > lower with p == 1 (mod N).
    ``propose`` returns a candidate or None; ``accept`` returns the result
    or raises VerificationFailed.  Each try records one event: ``event``,
    the prime, the precision unless k is None, and the outcome, "ok",
    "reconstruction_failed" (no candidate, or a refused one) or the name of
    the error raised.  After TRIES tries: VerificationFailed(failure(reason)).
    """
    p = lower
    for t in range(TRIES):
        k = precisions[t % len(precisions)]
        if t % len(precisions) == 0:
            p = next_prime_in_ap(p, N)
        try:
            candidate = propose(p, k)
            if candidate is None:
                raise VerificationFailed("reconstruction failed")
            result = accept(candidate)
        except VerificationFailed as exc:
            outcome, error = "reconstruction_failed", exc
        except (BadPrime, DenominatorCollision, ValueError) as exc:
            outcome, error = type(exc).__name__, exc
        else:
            outcome = "ok"
        precision = {} if k is None else {"precision": k}
        runlog.record(**event, prime=p, **precision, outcome=outcome)
        if outcome == "ok":
            return result
    raise VerificationFailed(failure(f"p={p}{'' if k is None else f', k={k}'}: {error}"))


# ---------------------------------------------------------------------------
# splitting commutative algebras


def algebra_mul(struct, x: list[int], y: list[int], m: int) -> list[int]:
    """x y mod m in the algebra with basis products e_a e_b = sum s e_c,
    given as rows struct[a][b] = ((c, s), ...) of the nonzero s."""
    out = _bilinear(struct, {a: xa for a, xa in enumerate(x) if xa},
                    {b: yb for b, yb in enumerate(y) if yb})
    return [out.get(c, 0) % m for c in range(len(x))]


def split_idempotents(struct, unit: list[int], p: int, rng) -> list[list[int]] | None:
    """Primitive idempotents of a commutative F_p-algebra (structure
    constants as for ``algebra_mul``, odd p > dim), or None when the algebra
    is not split semisimple at p.

    A split semisimple algebra is F_p^n, where z^((p-1)/2) has coordinates
    in {0, 1, -1} (Cantor and Zassenhaus, Math. Comp. 36, 1981).  So for a
    random z in eA and w = z^((p-1)/2), s = w^2, the idempotents e - s,
    (s + w)/2 and (s - w)/2 split e.  The rank of an idempotent is the trace
    of multiplication by it, exact mod p because rank <= dim < p; rank 1
    means primitive.  A w with w^3 != w shows the algebra is not split
    semisimple, and so do 64 dim rounds that leave some e unsplit.
    """
    dim = len(unit)
    traces = [sum(s for b, terms in struct.get(a, {}).items() for c, s in terms if c == b) % p
              for a in range(dim)]
    half = pow(2, -1, p)
    todo = [[x % p for x in unit]]
    done = []
    for _ in range(64 * dim):
        if not todo:
            return done
        e = todo.pop()
        r = sum(x * t for x, t in zip(e, traces)) % p
        if r == 1:
            done.append(e)
            continue
        if r == 0:  # an empty piece
            continue
        z = algebra_mul(struct, e, [rng.randrange(p) for _ in range(dim)], p)
        w = _by_squaring(z, (p - 1) // 2, lambda x, y: algebra_mul(struct, x, y, p), e)
        s = algebra_mul(struct, w, w, p)
        if algebra_mul(struct, w, s, p) != w:
            return None
        todo.append([(a - b) % p for a, b in zip(e, s)])
        todo.append([(a + b) * half % p for a, b in zip(s, w)])
        todo.append([(a - b) * half % p for a, b in zip(s, w)])
    return done if not todo else None


def element_of_order(e: int, p: int, rng) -> int:
    """An element of exact multiplicative order e in F_p (requires e | p-1):
    a random (p-1)/e-th power z with z^(e/q) != 1 for every prime q of
    ``_prime_factors(e)``."""
    if e == 1:
        return 1
    primes = _prime_factors(e)
    for _ in range(256):
        z = pow(rng.randrange(2, p), (p - 1) // e, p)
        if z != 0 and all(pow(z, e // q, p) != 1 for q in primes):
            return z
    raise BadPrime(f"no element of order {e} found mod {p}")


# ---------------------------------------------------------------------------
# integer lattice reduction (small dimensions only)


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, ties to even."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
    return q


def lll_reduce(basis: list[list[int]]) -> list[list[int]]:
    """LLL (delta = 3/4) of linearly independent integer rows; a zero Gram
    determinant raises ValueError.

    The Gram-Schmidt data is integer (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 2.6.7, after de Weger): d[i] is the Gram
    determinant of rows 0..i-1, lam[k][j] = d[j+1] mu[k][j], and every
    division in the recurrences is exact.  Size reduction of row k is
    Cohen's RED(k, j) for j = k-1, ..., 0: each quotient q = lam[k][j] /
    d[j+1] is rounded from the current row, ties to even as
    ``round(Fraction)`` does.  The Lovasz test is 4 d[k+1] d[k-1] >=
    3 d[k]^2 - 4 lam[k][k-1]^2.  These are the decisions of LLL over exact
    rational Gram-Schmidt with the same quotient rule, so the reduced basis
    is the same.
    """
    b = [list(v) for v in basis]
    n = len(b)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for h in range(j):
                u = (d[h + 1] * u - lam[i][h] * lam[j][h]) // d[h]
            if j < i:
                lam[i][j] = u
            elif u:
                d[i + 1] = u
            else:
                raise ValueError(f"lll_reduce: row {i} depends on the rows before it")
    k = 1
    while k < n:
        row = lam[k]
        for j in range(k - 1, -1, -1):
            q = _round_div(row[j], d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                row[j] -= q * d[j + 1]
                above = lam[j]
                for i in range(j):
                    row[i] -= q * above[i]
        m = row[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * m * m:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        row[:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], row[:k - 1]
        big = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (big * t + m * lam[i][k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)
    return b
