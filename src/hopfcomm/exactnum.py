"""Exact arithmetic in Q and in cyclotomic fields Q(zeta_N).

A value holds its coordinates at an ambient order n: the coordinates in the
power basis {zeta_n^j : 0 <= j < phi(n)}, reduced modulo the n-th cyclotomic
polynomial.  Sums and products run at the lcm of the operands' ambient
orders, and equality compares there: at a fixed order the power basis is
unique, so no arithmetic step searches for a subfield.  A value whose
coordinates after the first are all zero is rational and is stored at
order 1, so ``is_rational`` and ``as_rational`` read the ambient form.

The canonical form is the conductor (the smallest order whose field holds
the value: 1 for rationals, never 2 mod 4) with the coordinates there.  It
is computed on demand, once per value, and only where it can be seen:
``order``, ``coeffs``, ``hash``, ``sort_key``, ``str``, ``to_dict``,
``galois``, ``lies_in`` and ``residue`` when the ambient order does not
divide the one asked for.  This is the lazy layout of Antic's ``nf_elem``
(W. Hart, "ANTIC: Algebraic Number Theory in C", 2015).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add
from typing import Optional, Union

from .errors import BadPrime, DenominatorCollision, DigitCapExceeded, DivisionByZero

Rational = Fraction
ScalarLike = Union["CycNum", Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rational_str(q: Union[Fraction, int]) -> str:
    """str(q), or DigitCapExceeded when q has more digits than Python's
    int-to-str limit.  The limit stays in force: it also bounds the parsing
    of dumps."""
    try:
        return str(q)
    except ValueError:
        raise DigitCapExceeded(
            f"a number has more than {sys.get_int_max_str_digits()} decimal digits, "
            "Python's limit for int-to-str conversion") from None


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials, both monic; ascending coeffs.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dn]
        out[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num[:dn]):
        raise ArithmeticError("polynomial division not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    # Row k = coordinates of zeta_n^k in the power basis, for 0 <= k < n.
    deg = euler_phi(n)
    phi_n = cyclotomic_poly(n)
    # x^deg = -sum_{j<deg} phi_j x^j  (phi_n is monic)
    top = tuple(-c for c in phi_n[:deg])
    rows = []
    for k in range(n):
        if k < deg:
            rows.append(tuple(1 if j == k else 0 for j in range(deg)))
        else:
            prev = rows[k - 1]
            shifted = (0,) + prev[:-1]
            carry = prev[-1]
            rows.append(tuple(s + carry * t for s, t in zip(shifted, top)))
    return tuple(rows)


@lru_cache(maxsize=None)
def _projection(n: int, m: int):
    """Solver for membership of Q(zeta_n)-vectors in the subfield Q(zeta_m).

    Returns (pivot_cols, reduced_rows) such that applying the stored
    row-reduction to a vector decides solvability of  A x = v  where the
    columns of A are the basis powers zeta_m^i embedded into Q(zeta_n).
    """
    deg_n, deg_m = euler_phi(n), euler_phi(m)
    step = n // m
    rows_n = _power_rows(n)
    # A has deg_n rows and deg_m columns.
    a = [[Fraction(rows_n[step * i][r]) for i in range(deg_m)] for r in range(deg_n)]
    # Augment with identity to record the transform.
    aug = [row + [Fraction(int(i == r)) for i in range(deg_n)] for r, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(deg_m):
        pr = next((i for i in range(r, deg_n) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(deg_n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    transform = tuple(tuple(row[deg_m:]) for row in aug)
    return pivots, transform, r


def _project_to_subfield(n: int, m: int, vec: tuple[Fraction, ...]) -> Optional[tuple[Fraction, ...]]:
    pivots, transform, rank = _projection(n, m)
    w = [sum(t * v for t, v in zip(row, vec)) for row in transform]
    if any(w[rank:]):
        return None
    deg_m = euler_phi(m)
    out = [_ZERO] * deg_m
    for i, c in enumerate(pivots):
        out[c] = w[i]
    # Rows below rank already checked; pivot rows give the coordinates.
    return tuple(out)


def _canonical(n: int, vec: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    # Shrink to the conductor: smallest divisor m of n (m != 2 mod 4)
    # whose cyclotomic field contains the value.  A value stored at n > 1 is
    # irrational, so Q itself is never tried; for n = 2 mod 4 the odd
    # divisor n/2 always holds the value.
    if n == 1:
        return 1, vec
    for m in divisors(n)[1:-1]:
        if m % 4 == 2:
            continue
        proj = _project_to_subfield(n, m, vec)
        if proj is not None:
            return m, proj
    return n, vec


@lru_cache(maxsize=None)
def _sparse_power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # _power_rows(n) without its zero entries: row k lists (j, c) with c != 0.
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in _power_rows(n))


def _reduce_power_coeffs(n: int, coeffs) -> tuple[Fraction, ...]:
    # Coordinates at order n of sum_k coeffs[k] zeta_n^k: coordinates on
    # zeta^k (k >= phi(n)) fold back into the power basis.
    deg = euler_phi(n)
    out = list(coeffs[:deg])
    if len(out) < deg:
        out += [_ZERO] * (deg - len(out))
    rows = _sparse_power_rows(n)
    for k in range(deg, len(coeffs)):
        c = coeffs[k]
        if c:
            for j, r in rows[k % n]:
                out[j] += c * r
    return tuple(out)


class CycNum:
    """An element of a cyclotomic field, held at an ambient order.

    ``_v`` are the power-basis coordinates at the ambient order ``_n``;
    ``_n`` is 1 exactly when the value is rational.  ``order`` and ``coeffs``
    are the canonical form (conductor and coordinates there), computed on
    first use and kept in ``_canon``; the module docstring lists where.
    """

    __slots__ = ("_n", "_v", "_canon")

    def __new__(cls, order: int, coeffs: tuple[Fraction, ...]):
        """sum_k coeffs[k] zeta_order^k, for any number of coefficients."""
        n = int(order)
        if n < 1:
            raise ValueError("order must be positive")
        return _value(n, _reduce_power_coeffs(n, [Fraction(c) for c in coeffs]))

    def __reduce__(self):
        return CycNum, (self._n, self._v)

    # --- constructors ---

    @staticmethod
    def rational(q) -> "CycNum":
        return _make(1, (Fraction(q),))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycNum":
        """The root of unity zeta_n^k."""
        if n < 1:
            raise ValueError("order must be positive")
        k %= n
        g = gcd(k, n) if k else n
        n2, k2 = n // g, k // g
        vec = [_ZERO] * (k2 + 1)
        vec[k2] = _ONE
        return CycNum(n2, tuple(vec))

    # --- coercion helpers ---

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.rational(x)
        return None

    def _aligned(self, other: "CycNum"):
        # Both operands' coordinates at the lcm of their ambient orders.
        n = self._n
        if n == other._n:
            return n, self._v, other._v
        n = _lcm(n, other._n)
        return n, _embed(self, n), _embed(other, n)

    def _canonical_form(self) -> tuple[int, tuple[Fraction, ...]]:
        c = self._canon
        if c is None:
            c = self._canon = _canonical(self._n, self._v)
        return c

    # --- predicates and conversions ---

    @property
    def order(self) -> int:
        """The conductor: the smallest N (never 2 mod 4) with the value in Q(zeta_N)."""
        return self._canonical_form()[0]

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates at the conductor ``order``."""
        return self._canonical_form()[1]

    def __bool__(self) -> bool:
        return any(self._v)

    @property
    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Optional[Fraction]:
        """The rational value, or None if the value is irrational."""
        return self._v[0] if self._n == 1 else None

    def lies_in(self, n: int) -> bool:
        """Whether the value lies in Q(zeta_n).  The conductor is read only
        when the ambient order does not divide n."""
        return n % self._n == 0 or n % self.order == 0

    def conjugate(self) -> "CycNum":
        """Complex conjugation (zeta -> zeta^-1)."""
        return self.galois(-1)

    def galois(self, k: int) -> "CycNum":
        """The Galois twist zeta -> zeta^k; k must be prime to the order."""
        n, coeffs = self._canonical_form()
        if n == 1:
            return self
        k %= n
        if gcd(k, n) != 1:
            raise ValueError(f"galois exponent {k} not prime to order {n}")
        vec = [_ZERO] * n
        for j, c in enumerate(coeffs):
            vec[(j * k) % n] += c
        return _value(n, _reduce_power_coeffs(n, vec))

    # --- arithmetic ---

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._n == 1 and o._n == 1:
            return _make(1, (self._v[0] + o._v[0],))
        n, a, b = self._aligned(o)
        return _value(n, tuple(map(add, a, b)))

    __radd__ = __add__

    def __neg__(self):
        return _make(self._n, tuple(-c for c in self._v))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__add__(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._n == 1:
            q = self._v[0]
            if o._n == 1:
                return _make(1, (q * o._v[0],))
            if not q:
                return CycNum.rational(0)
            return _make(o._n, tuple(q * c for c in o._v))
        if o._n == 1:
            return o.__mul__(self)
        n, a, b = self._aligned(o)
        prod = [_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _value(n, _reduce_power_coeffs(n, prod))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise DivisionByZero("inverse of zero")
        n = self._n
        if n == 1:
            return _make(1, (1 / self._v[0],))
        inv = _poly_inverse(list(self._v), cyclotomic_poly(n))
        return _value(n, _reduce_power_coeffs(n, inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero("division by zero")
        return self.__mul__(o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CycNum.rational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # --- comparisons, hashing, display ---

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n, m = self._n, o._n
        if n == m:
            return self._v == o._v
        if n == 1 or m == 1:
            return False  # a value stored at an order above 1 is irrational
        n = _lcm(n, m)
        return _embed(self, n) == _embed(o, n)

    def __hash__(self):
        if self._n == 1:
            return hash(self._v[0])
        return hash(self._canonical_form())

    def __repr__(self):
        return f"CycNum({self})"

    def __str__(self):
        order, coeffs = self._canonical_form()
        if order == 1:
            return _rational_str(coeffs[0])
        parts = []
        for j, c in enumerate(coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(_rational_str(c))
            else:
                mono = f"z{order}" if j == 1 else f"z{order}^{j}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{_rational_str(c)}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def sort_key(self):
        order, coeffs = self._canonical_form()
        return (order,) + tuple((c.numerator, c.denominator) for c in coeffs)

    # --- reduction to a prime field ---

    def reduce_mod_p(self, p: int, zeta_image: Union[int, "PrimeFieldElem", None] = None,
                     order: Optional[int] = None) -> "PrimeFieldElem":
        """Image under the ring map Q(zeta_order) -> F_p, zeta |-> zeta_image.

        ``order`` defaults to the value's own order; it may be any multiple
        compatible with ``zeta_image`` having that exact multiplicative order.
        """
        n = self.order if order is None else order
        if (p - 1) % n:
            raise BadPrime(f"p={p} is not 1 mod {n}")
        if zeta_image is None:
            if n != 1:
                raise BadPrime("zeta_image required for non-rational orders")
            w = 1
        else:
            w = zeta_image.value if isinstance(zeta_image, PrimeFieldElem) else int(zeta_image)
            if _mult_order(w, p) != n:
                raise BadPrime(f"zeta_image {w} does not have order {n} mod {p}")
        return PrimeFieldElem(self.residue(w, n, p), p)

    def residue(self, w: int, ambient: int, modulus: int) -> int:
        """Image in Z/modulus under zeta_ambient -> w, where w is a root of the
        ambient-th cyclotomic polynomial mod ``modulus``.  The value must lie
        in Q(zeta_ambient), and every denominator must be invertible mod
        ``modulus``.  The image is the same from any order that holds the
        value, so the ambient coordinates serve whenever their order divides
        ``ambient``; the conductor is read only otherwise."""
        n, coeffs = self._n, self._v
        if ambient % n:
            n, coeffs = self._canonical_form()
            if ambient % n:
                raise BadPrime(f"value of order {n} outside Q(zeta_{ambient})")
        step = pow(w, ambient // n, modulus)
        acc = 0
        power = 1
        for c in coeffs:
            if c:
                try:
                    inv = pow(c.denominator, -1, modulus)
                except ValueError:
                    raise DenominatorCollision(
                        f"denominator {c.denominator} not invertible mod {modulus}")
                acc += c.numerator * inv * power
            power = power * step % modulus
        return acc % modulus

    # --- serialization ---

    def to_dict(self) -> dict:
        order, coeffs = self._canonical_form()
        return {"order": order, "coeffs": [_rational_str(c) for c in coeffs]}

    @staticmethod
    def from_dict(d: dict) -> "CycNum":
        return CycNum(int(d["order"]), tuple(Fraction(s) for s in d["coeffs"]))


_new = object.__new__


def _make(n: int, v: tuple[Fraction, ...]) -> CycNum:
    # A CycNum at ambient order n from its coordinates there; n is 1 exactly
    # when the value is rational.  Bypasses CycNum.__new__ and its checks.
    x = _new(CycNum)
    x._n = n
    x._v = v
    x._canon = None
    return x


def _value(n: int, v: tuple[Fraction, ...]) -> CycNum:
    # As _make, for a result that may have cancelled to a rational.
    if n != 1 and not any(v[1:]):
        return _make(1, v[:1])
    return _make(n, v)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def _embed(x: CycNum, n: int) -> list[Fraction]:
    # Coordinates of x in the power basis at order n (x's ambient order divides n).
    if x._n == n:
        return list(x._v)
    step = n // x._n
    rows = _sparse_power_rows(n)
    out = [_ZERO] * euler_phi(n)
    for j, c in enumerate(x._v):
        if c:
            for i, r in rows[step * j]:
                out[i] += c * r
    return out


def _mult_order(w: int, p: int) -> int:
    w %= p
    if w == 0:
        return 0
    order = 1
    acc = w
    while acc != 1:
        acc = acc * w % p
        order += 1
        if order > p:
            raise ArithmeticError("not a unit")
    return order


def _poly_inverse(a: list[Fraction], modulus: tuple[int, ...]) -> list[Fraction]:
    # Extended Euclid in Q[x]: find u with a*u = 1 mod Phi.
    def deg(f):
        for i in range(len(f) - 1, -1, -1):
            if f[i]:
                return i
        return -1

    def trim(f):
        d = deg(f)
        return f[: d + 1] if d >= 0 else []

    def poly_divmod(f, g):
        f = list(f)
        dg = deg(g)
        lead = g[dg]
        q = [_ZERO] * max(0, len(f) - dg)
        for i in range(len(f) - dg - 1, -1, -1):
            c = f[i + dg] / lead
            if c:
                q[i] = c
                for j in range(dg + 1):
                    f[i + j] -= c * g[j]
        return q, trim(f)

    r0 = [Fraction(c) for c in modulus]
    r1 = trim(list(a))
    s0, s1 = [], [_ONE]
    while True:
        q, r = poly_divmod(r0, r1)
        if deg(r) < 0:
            break
        # s_next = s0 - q*s1
        prod = [_ZERO] * (len(q) + len(s1) - 1 if q and s1 else 0)
        for i, x in enumerate(q):
            if x:
                for j, y in enumerate(s1):
                    if y:
                        prod[i + j] += x * y
        s_next = [(s0[i] if i < len(s0) else _ZERO) - (prod[i] if i < len(prod) else _ZERO)
                  for i in range(max(len(s0), len(prod)))]
        r0, r1 = r1, r
        s0, s1 = s1, trim(s_next)
    d = deg(r1)
    if d != 0:
        raise DivisionByZero("element is a zero divisor modulo the cyclotomic polynomial")
    c = r1[0]
    return [x / c for x in s1]


@dataclass(frozen=True)
class PrimeFieldElem:
    """An element of F_p."""

    value: int
    modulus: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.modulus)

    def __add__(self, other):
        v = other.value if isinstance(other, PrimeFieldElem) else int(other)
        return PrimeFieldElem((self.value + v) % self.modulus, self.modulus)

    def __mul__(self, other):
        v = other.value if isinstance(other, PrimeFieldElem) else int(other)
        return PrimeFieldElem(self.value * v % self.modulus, self.modulus)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElem):
            return self.modulus == other.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.modulus))


ZERO = CycNum.rational(0)
ONE = CycNum.rational(1)


def cyc(q) -> CycNum:
    """Shorthand: a rational as a CycNum."""
    return CycNum.rational(q)


def zeta(n: int, k: int = 1) -> CycNum:
    return CycNum.zeta(n, k)
