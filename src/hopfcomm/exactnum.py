"""Exact arithmetic in Q and in cyclotomic fields Q(zeta_N).

A value holds integer numerators over one positive common denominator at an
ambient order n: the numerators in the power basis {zeta_n^j : 0 <= j <
phi(n)}, reduced modulo the n-th cyclotomic polynomial, with no factor common
to all of them and the denominator.  This is the layout of Antic's
``nf_elem`` and FLINT's ``fmpq_poly`` (W. Hart, "ANTIC: Algebraic Number
Theory in C", 2015).  A value whose numerators after the first are all zero
is rational and is stored at order 1 as one integer over its denominator, so
rational ops are int ops and ``is_rational`` reads the ambient form.  Sums
and products run at the lcm of the operands' ambient orders; a product is an
integer convolution reduced once by the cyclotomic polynomial, and an inverse
is the product of the other Galois conjugates over the norm.  At one order
equality compares numerators and denominators, since the power basis is
unique there, so no arithmetic step searches for a subfield.

The canonical form is the conductor (the smallest order whose field holds
the value: 1 for rationals, never 2 mod 4) with the ``Fraction`` coordinates
there.  It stays lazy: it is computed on demand, once per value, and only
where it can be seen: ``order``, ``coeffs``, the ``hash`` of an irrational
value, ``sort_key``, ``str``, ``to_dict``, ``galois`` and ``residue`` when
the ambient order does not divide the one asked for.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul

from ._linalg import Solver, _by_squaring
from .errors import BadPrime, DenominatorCollision, DigitCapExceeded, DivisionByZero

Rational = Fraction

_ZERO = Fraction(0)


def _rational_str(q: Fraction | int) -> str:
    """str(q), or DigitCapExceeded when q has more digits than Python's
    int-to-str limit.  The limit stays in force: it also bounds the parsing
    of dumps."""
    try:
        return str(q)
    except ValueError:
        raise _digit_cap_exceeded() from None


def _digit_cap_exceeded() -> DigitCapExceeded:
    return DigitCapExceeded(
        f"a number has more than {sys.get_int_max_str_digits()} decimal digits, "
        "Python's limit for int-to-str conversion")


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


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
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
def _subfield(n: int, m: int) -> Solver:
    """The basis powers zeta_m^i (i < phi(m)) of Q(zeta_m), embedded in
    Q(zeta_n) and inserted under their exponents i."""
    rows_n = _power_rows(n)
    solver = Solver()
    for i in range(euler_phi(m)):
        solver.insert({r: Fraction(c) for r, c in enumerate(rows_n[n // m * i]) if c}, i)
    return solver


def _project_to_subfield(n: int, m: int, vec: tuple[Fraction, ...]) -> tuple[Fraction, ...] | None:
    combo = _subfield(n, m).express({r: x for r, x in enumerate(vec) if x})
    if combo is None:
        return None
    return tuple(combo.get(i, _ZERO) for i in range(euler_phi(m)))


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


def _reduce_power_coeffs(n: int, coeffs: list[int]) -> list[int]:
    # Numerators at order n of sum_k coeffs[k] zeta_n^k: numerators on
    # zeta^k (k >= phi(n)) fold back into the power basis.
    deg = euler_phi(n)
    out = coeffs[:deg]
    if len(out) < deg:
        out += [0] * (deg - len(out))
    rows = _sparse_power_rows(n)
    for k in range(deg, len(coeffs)):
        c = coeffs[k]
        if c:
            for j, r in rows[k % n]:
                out[j] += c * r
    return out


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    # Rationals as integer numerators over the lcm of their denominators.
    fracs = [Fraction(c) for c in coeffs]
    d = lcm(*(c.denominator for c in fracs))
    return [c.numerator * (d // c.denominator) for c in fracs], d


class CycNum:
    """An element of a cyclotomic field, held at an ambient order.

    The value is ``sum_j _v[j] zeta_n^j / _d`` at the ambient order ``_n``:
    ``_v`` are integer power-basis numerators and ``_d`` is a positive
    integer with ``gcd(_d, *_v) == 1``, so each value has one ambient form
    per order.  ``_n`` is 1 exactly when the value is rational; zero is
    ``(0,)`` over 1.  ``order`` and ``coeffs`` are the canonical form
    (conductor and ``Fraction`` coordinates there), computed on first use and
    kept in ``_canon``; the module docstring lists where.
    """

    __slots__ = ("_n", "_v", "_d", "_canon")

    def __new__(cls, order: int, coeffs):
        """sum_k coeffs[k] zeta_order^k, for any number of int or Fraction
        coefficients."""
        n = int(order)
        if n < 1:
            raise ValueError("order must be positive")
        v, d = _over_common_denominator(coeffs)
        return _value(n, _reduce_power_coeffs(n, v), d)

    def __reduce__(self):
        return _make, (self._n, self._v, self._d)

    # --- constructors ---

    @staticmethod
    def rational(q) -> "CycNum":
        if type(q) is int:
            return _make(1, (q,), 1)
        q = Fraction(q)
        return _make(1, (q.numerator,), q.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "CycNum":
        """The root of unity zeta_n^k."""
        if n < 1:
            raise ValueError("order must be positive")
        k %= n
        g = gcd(k, n) if k else n
        n2 = n // g
        return _value(n2, _power_rows(n2)[k // g], 1)

    # --- coercion helpers ---

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.rational(x)
        return None

    def _aligned(self, other: "CycNum"):
        # Both operands' numerators at the lcm of their ambient orders.
        n = self._n
        if n == other._n:
            return n, self._v, other._v
        n = lcm(n, other._n)
        return n, _embed(self, n), _embed(other, n)

    def _canonical_form(self) -> tuple[int, tuple[Fraction, ...]]:
        c = self._canon
        if c is None:
            d = self._d
            c = self._canon = _canonical(self._n, tuple(Fraction(x, d) for x in self._v))
        return c

    def _scaled(self, a: int, b: int) -> "CycNum":
        # self * a/b for a rational a/b in lowest terms, b > 0.
        if not a:
            return ZERO
        if a == b == 1:
            return self
        v = self._v if a == 1 else tuple(a * x for x in self._v)
        return _reduced(self._n, v, self._d * b)

    def _twist(self, k: int) -> "CycNum":
        # zeta_n -> zeta_n^k at the ambient order n, for k prime to n.  An
        # automorphism of Z[zeta_n] keeps the numerators' content, so the
        # result is already in lowest terms.
        n = self._n
        vec = [0] * n
        for j, x in enumerate(self._v):
            vec[j * k % n] = x
        return _make(n, tuple(_reduce_power_coeffs(n, vec)), self._d)

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
        return self._n != 1 or self._v[0] != 0

    @property
    def is_rational(self) -> bool:
        return self._n == 1

    def as_rational(self) -> Fraction | None:
        """The rational value, or None if the value is irrational."""
        return Fraction(self._v[0], self._d) if self._n == 1 else None

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
        return _make(n, *_over_common_denominator(coeffs))._twist(k)

    # --- arithmetic ---

    def __add__(self, other):
        o = other if isinstance(other, CycNum) else self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self._d, o._d
        if self._n == 1 and o._n == 1:
            if da == db:
                return _rational(self._v[0] + o._v[0], da)
            return _rational(self._v[0] * db + o._v[0] * da, da * db)
        n, a, b = self._aligned(o)
        if da == db:
            return _value(n, tuple(map(add, a, b)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _value(n, tuple(x * fa + y * fb for x, y in zip(a, b)), da * fa)

    __radd__ = __add__

    def __neg__(self):
        return _make(self._n, tuple(-x for x in self._v), self._d)

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
        o = other if isinstance(other, CycNum) else self._coerce(other)
        if o is None:
            return NotImplemented
        if self._n == 1:
            if o._n == 1:
                # Most products met in practice have a factor of exactly 1.
                if self._v[0] == 1 and self._d == 1:
                    return o
                if o._v[0] == 1 and o._d == 1:
                    return self
                return _rational(self._v[0] * o._v[0], self._d * o._d)
            return o._scaled(self._v[0], self._d)
        if o._n == 1:
            return self._scaled(o._v[0], o._d)
        n, a, b = self._aligned(o)
        nonzero = [(j, y) for j, y in enumerate(b) if y]
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero:
                    prod[i + j] += x * y
        return _value(n, _reduce_power_coeffs(n, prod), self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if not self:
            raise DivisionByZero("inverse of zero")
        n = self._n
        if n == 1:
            a, d = self._v[0], self._d
            return _make(1, (d,), a) if a > 0 else _make(1, (-d,), -a)
        # 1/x = c/N(x), where c is the product of the other conjugates of x
        # over Q and N(x) = x c is its norm, a nonzero rational.
        c = None
        for k in range(2, n):
            if gcd(k, n) == 1:
                t = self._twist(k)
                c = t if c is None else c * t
        norm = self * c
        a, d = norm._v[0], norm._d
        return c._scaled(d, a) if a > 0 else c._scaled(-d, -a)

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
        return _by_squaring(self, k, mul, CycNum.rational(1))

    # --- comparisons, hashing, display ---

    def __eq__(self, other):
        o = other if isinstance(other, CycNum) else self._coerce(other)
        if o is None:
            return NotImplemented
        n, m = self._n, o._n
        if n == m:
            return self._v == o._v and self._d == o._d
        if n == 1 or m == 1:
            return False  # a value stored at an order above 1 is irrational
        n = lcm(n, m)
        da, db = self._d, o._d
        return all(x * db == y * da for x, y in zip(_embed(self, n), _embed(o, n)))

    def __hash__(self):
        if self._n == 1:
            return hash(self._v[0]) if self._d == 1 else hash(Fraction(self._v[0], self._d))
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

    # --- reduction mod p ---

    def residue(self, w: int, ambient: int, modulus: int) -> int:
        """Image in Z/modulus under zeta_ambient -> w, where w is a root of the
        ambient-th cyclotomic polynomial mod ``modulus``.  The value must lie
        in Q(zeta_ambient), and its denominator must be invertible mod
        ``modulus``.  The image is the same from any order that holds the
        value, so the ambient numerators serve whenever their order divides
        ``ambient``; the conductor is read only otherwise."""
        n, v, d = self._n, self._v, self._d
        if ambient % n:
            n, coeffs = self._canonical_form()
            if ambient % n:
                raise BadPrime(f"value of order {n} outside Q(zeta_{ambient})")
            v, d = _over_common_denominator(coeffs)
        try:
            inv = pow(d, -1, modulus)
        except ValueError:
            raise DenominatorCollision(f"denominator {d} not invertible mod {modulus}")
        step = pow(w, ambient // n, modulus)
        acc = 0
        power = 1
        for c in v:
            if c:
                acc += c * power
            power = power * step % modulus
        return acc * inv % modulus

    # --- serialization ---

    def to_dict(self) -> dict:
        order, coeffs = self._canonical_form()
        return {"order": order, "coeffs": [_rational_str(c) for c in coeffs]}

    @staticmethod
    def from_dict(d: dict) -> "CycNum":
        return CycNum(int(d["order"]), tuple(Fraction(s) for s in d["coeffs"]))


_new = object.__new__


def _make(n: int, v: tuple[int, ...], d: int) -> CycNum:
    # A CycNum from its numerators v over d at ambient order n, which already
    # meet the class invariants.  Bypasses CycNum.__new__ and its checks.
    x = _new(CycNum)
    x._n = n
    x._v = v
    x._d = d
    x._canon = None
    return x


def _rational(a: int, d: int) -> CycNum:
    # The rational a/d in lowest terms, for d > 0.
    if d != 1:
        g = gcd(a, d)
        if g != 1:
            a //= g
            d //= g
    return _make(1, (a,), d)


def _reduced(n: int, v: tuple[int, ...], d: int) -> CycNum:
    # As _make, for numerators that may share a factor with d.
    if d != 1:
        g = gcd(d, *v)
        if g != 1:
            v = tuple(x // g for x in v)
            d //= g
    return _make(n, v, d)


def _value(n: int, v, d: int) -> CycNum:
    # As _reduced, for a result that may have cancelled to a rational.
    if n != 1 and not any(v[1:]):
        return _rational(v[0], d)
    return _reduced(n, tuple(v), d)


def _embed(x: CycNum, n: int) -> tuple[int, ...] | list[int]:
    # Numerators of x in the power basis at order n (x's ambient order divides n).
    if x._n == n:
        return x._v
    step = n // x._n
    rows = _sparse_power_rows(n)
    out = [0] * euler_phi(n)
    for j, c in enumerate(x._v):
        if c:
            for i, r in rows[step * j]:
                out[i] += c * r
    return out


ZERO = CycNum.rational(0)
ONE = CycNum.rational(1)


def cyc(q) -> CycNum:
    """Shorthand: a rational as a CycNum."""
    return CycNum.rational(q)


def zeta(n: int, k: int = 1) -> CycNum:
    return CycNum.zeta(n, k)
