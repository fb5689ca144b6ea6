"""Modular-arithmetic workhorses: F_p linear algebra, characteristic
polynomials, Hensel lifting, and a small integer LLL.

These are internal helpers for splitting commutative algebras (character
tables, central idempotents).  All matrices are dense lists of lists of
ints reduced mod p; dimensions stay small (at most a few dozen) so the
textbook algorithms are the right tool.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadPrime

Matrix = list[list[int]]


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


# ---------------------------------------------------------------------------
# dense F_p linear algebra


def mat_mul(a: Matrix, b: Matrix, p: int) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    bt = [[b[i][j] for i in range(inner)] for j in range(cols)]
    out = []
    for r in a:
        out.append([sum(r[i] * col[i] for i in range(inner)) % p for col in bt])
    return out


def mat_vec(a: Matrix, v: list[int], p: int) -> list[int]:
    return [sum(r[i] * v[i] for i in range(len(v))) % p for r in a]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def rref(mat: Matrix, p: int) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    m = [row[:] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] % p), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] % p:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def nullspace(mat: Matrix, ncols: int, p: int) -> list[list[int]]:
    """Basis of {v : mat @ v = 0} over F_p."""
    if not mat:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    rows, pivots = rref(mat, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = (-row[f]) % p
        basis.append(v)
    return basis


def solve(mat: Matrix, rhs: list[int], p: int) -> list[int] | None:
    """One solution of mat @ x = rhs over F_p, or None."""
    aug = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    rows, pivots = rref(aug, p)
    ncols = len(mat[0]) if mat else 0
    x = [0] * ncols
    for row, c in zip(rows, pivots):
        if c == ncols:
            return None
        x[c] = row[-1]
    return x


def charpoly(mat: Matrix, p: int) -> list[int]:
    """Characteristic polynomial over F_p via Faddeev-LeVerrier.

    Returns ascending coefficients c with det(xI - A) = sum c[i] x^i,
    c[n] = 1.  Needs p > n so that 1..n are invertible.
    """
    n = len(mat)
    if p <= n:
        raise BadPrime(f"charpoly needs p > matrix size, got p={p}, n={n}")
    c = [0] * (n + 1)
    c[n] = 1
    mk = [row[:] for row in mat]
    for k in range(1, n + 1):
        if k > 1:
            for i in range(n):
                mk[i][i] = (mk[i][i] + c[n - k + 1]) % p
            mk = mat_mul(mat, mk, p)
        tr = sum(mk[i][i] for i in range(n)) % p
        c[n - k] = -tr * pow(k, -1, p) % p
    return c


def poly_eval(coeffs: list[int], x: int, modulus: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % modulus
    return acc


def poly_roots(coeffs: list[int], p: int) -> list[int]:
    """All roots in F_p by direct scan (p stays small in this package)."""
    return [x for x in range(p) if poly_eval(coeffs, x, p) == 0]


# ---------------------------------------------------------------------------
# simultaneous diagonalisation of commuting matrices


def common_eigenvectors(mats, n, p, rng, rounds=12):
    """Joint eigenvectors of commuting diagonalisable matrices over F_p.

    Splits the full space by eigenspaces of randomly weighted combinations
    until every block is one-dimensional.  Returns n vectors, or None when
    this prime fails to split (caller should retry with another prime)."""
    if not mats:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)] if n == 1 else None
    subspaces = [[[1 if i == j else 0 for i in range(n)] for j in range(n)]]
    for _ in range(rounds):
        if all(len(b) == 1 for b in subspaces):
            break
        weights = [rng.randrange(p) for _ in mats]
        combo = [
            [sum(w * m[r][c] for w, m in zip(weights, mats)) % p for c in range(n)]
            for r in range(n)
        ]
        subspaces = _split_round(subspaces, combo, n, p)
        if subspaces is None:
            return None
    if not all(len(b) == 1 for b in subspaces):
        return None
    return [b[0] for b in subspaces]


def _split_round(subspaces, combo, n, p):
    result = []
    for basis in subspaces:
        dim = len(basis)
        if dim == 1:
            result.append(basis)
            continue
        images = [mat_vec(combo, b, p) for b in basis]
        bmat = [[basis[j][r] for j in range(dim)] for r in range(n)]
        coords = []
        for u in images:
            x = solve(bmat, u, p)
            if x is None:
                return None
            coords.append(x)
        # Restriction matrix: column c holds the coordinates of image c.
        a = [[coords[c][r] for c in range(dim)] for r in range(dim)]
        roots = poly_roots(charpoly(a, p), p)
        found = 0
        for theta in roots:
            shifted = [[(a[r][c] - (theta if r == c else 0)) % p for c in range(dim)]
                       for r in range(dim)]
            kernel = nullspace(shifted, dim, p)
            found += len(kernel)
            if kernel:
                vecs = [
                    [sum(y[c] * basis[c][r] for c in range(dim)) % p for r in range(n)]
                    for y in kernel
                ]
                result.append(vecs)
        if found != dim:
            return None
    return result


def element_of_order(e: int, p: int, rng) -> int:
    """An element of exact multiplicative order e in F_p (requires e | p-1)."""
    if e == 1:
        return 1
    prime_factors = []
    m = e
    q = 2
    while q * q <= m:
        if m % q == 0:
            prime_factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        prime_factors.append(m)
    for _ in range(256):
        z = pow(rng.randrange(2, p), (p - 1) // e, p)
        if z != 0 and all(pow(z, e // q, p) != 1 for q in prime_factors):
            return z
    raise BadPrime(f"no element of order {e} found mod {p}")


# ---------------------------------------------------------------------------
# Hensel lifting


def lift_root(coeffs: list[int], root: int, p: int, target: int) -> int:
    """Newton-lift a simple root of an integer polynomial from mod p to
    mod p**target.  The derivative must be a unit at the root."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    if poly_eval(deriv, root, p) == 0:
        raise BadPrime(f"root {root} of polynomial is not simple mod {p}")
    k = 1
    modulus = p
    r = root % p
    while k < target:
        k = min(2 * k, target)
        modulus = p**k
        fr = poly_eval(coeffs, r, modulus)
        dr = poly_eval(deriv, r, modulus)
        r = (r - fr * pow(dr, -1, modulus)) % modulus
    return r


# ---------------------------------------------------------------------------
# integer lattice reduction (small dimensions only)


def _gso(basis: list[list[int]]):
    n = len(basis)
    bstar: list[list[Fraction]] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                mu[i][j] = Fraction(0)
                continue
            dot = sum(Fraction(basis[i][k]) * bstar[j][k] for k in range(len(v)))
            mu[i][j] = dot / norms[j]
            v = [a - mu[i][j] * b for a, b in zip(v, bstar[j])]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def lll_reduce(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """Textbook LLL with exact rational Gram-Schmidt.

    The GSO is computed once and then updated in place (H. Cohen, *A Course
    in Computational Algebraic Number Theory*, Alg. 2.6.3).  Size reduction
    of row k subtracts the rounded coefficients of its GSO row as they stood
    before the step, and changes only that row of mu; a swap of rows k-1 and
    k changes their two norms and columns k-1 and k of mu.  The updates are
    exact, so every decision is the one a fresh GSO would give.  A swap
    whose row k has GSO norm zero (the rows are then dependent) recomputes
    the GSO instead: the swap formulas assume nonzero norms, while the GSO
    sets mu to 0 against a zero norm.
    """
    b = [list(v) for v in basis]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _gso(b)
    k = 1
    while k < n:
        row = mu[k]
        quotients = [round(x) for x in row[:k]]
        for j in range(k - 1, -1, -1):
            q = quotients[j]
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                row[j] -= q
                for i in range(j):
                    row[i] -= q * mu[j][i]
        m = row[k - 1]
        if norms[k] >= (delta - m ** 2) * norms[k - 1]:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        bk, bk1 = norms[k], norms[k - 1]
        if not bk:
            mu, norms = _gso(b)
        else:
            big = bk + m * m * bk1
            row[k - 1] = m * bk1 / big
            norms[k], norms[k - 1] = bk1 * bk / big, big
            row[:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], row[:k - 1]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + row[k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return b
