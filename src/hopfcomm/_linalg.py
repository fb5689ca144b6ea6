"""Exact sparse linear algebra over any field-like scalar (CycNum, Fraction).

Vectors are dicts {index: nonzero scalar}; a tensor is a vector keyed by
tuples.  vec_axpy is the one accumulation loop of the package,
``_bilinear`` the one loop that reads a bilinear map off its table of rows
{i: {j: terms}} (``_rows`` builds one), and ``_by_squaring`` the one
square-and-multiply, for any associative product.  Echelon
keeps a reduced row echelon basis, so a subspace has exactly one
representation and subspace equality is plain row comparison.
``_check_idempotents`` certifies a family of idempotents under any
product, by its squares and its sum.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import VerificationFailed

Vec = dict


def vec_scale(a: Vec, c) -> Vec:
    if not c:
        return {}
    return {j: x * c for j, x in a.items()}


def vec_axpy(out: Vec, c, terms) -> None:
    """out += c*x for every (key, x) pair of ``terms``, in place.

    ``terms`` is any iterable of pairs: ``dict.items()`` or stored structure
    constants.  A key whose sum is zero is deleted, so no zero is ever stored.
    """
    for j, x in terms:
        v = c * x
        s = out.get(j)
        if s is not None:
            v = s + v
        if v:
            out[j] = v
        elif s is not None:
            del out[j]


def _bilinear(rows, u: Vec, v: Vec) -> Vec:
    """sum u_i v_j t(e_i, e_j) for t stored as ``rows`` {i: {j: ((k, c), ...)}}
    of its nonzero coefficients (see ``_rows``)."""
    out: Vec = {}
    for i, ci in u.items():
        r = rows.get(i)
        if r:
            for j, cj in v.items():
                terms = r.get(j)
                if terms:
                    vec_axpy(out, ci * cj, terms)
    return out


def _by_squaring(x, k: int, mul, one):
    """x^k for an int k >= 0 under the associative product ``mul`` with unit
    ``one``, in O(log k) products: the last square is never made."""
    acc = one
    while k:
        if k & 1:
            acc = mul(acc, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return acc


def _rows(entries) -> dict:
    """Rows {i: {j: terms}} of the (i, j, terms) in ``entries`` with terms != ()."""
    out: dict = {}
    for i, j, terms in entries:
        if terms:
            out.setdefault(i, {})[j] = terms
    return out


def _check_idempotents(name: str, vecs, mul, unit: Vec, unit_name: str):
    """Raise VerificationFailed unless ``vecs`` (name_0, name_1, ...) are
    idempotents under ``mul`` that sum to ``unit``; one product per vector.

    Precondition: ``mul`` is associative with two-sided unit ``unit``, in
    characteristic 0.  Both callers establish it first: ``hopf._read_irred``
    and ``classdata._classdata_of`` (the certificates of every split and of
    every character table) run the axiom verifier.  The idempotents
    are then orthogonal: the L_i = L_{e_i} are idempotent operators summing to
    the identity, so their traces are ranks summing to dim and their images
    form a direct sum; for i != j, L_i kills im L_j, and e_i e_j = L_i L_j 1 = 0.
    """
    total: Vec = {}
    for i, u in enumerate(vecs):
        if mul(u, u) != u:
            raise VerificationFailed(f"{name}_{i}{name}_{i} != {name}_{i}")
        vec_axpy(total, 1, u.items())
    if total != unit:
        raise VerificationFailed(f"the {name}_i do not sum to {unit_name}")


class Echelon:
    """A growing reduced-row-echelon basis, seeded with the span of ``vecs``."""

    def __init__(self, vecs: Iterable[Vec] = ()):
        # pivot column -> its row without the pivot entry (whose coefficient
        # is 1).  A reduced row is zero in every other pivot column, so
        # elimination may visit the pivots in any order.
        self.rows: dict = {}
        self._one = None
        for v in vecs:
            self.insert(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating all pivot columns.

        Only the pivot columns that occur in v are visited.  ``insert`` keeps
        every stored tail zero in every pivot column, so eliminating one
        pivot never creates an entry in another, and the coefficient popped
        at pivot p is v[p]."""
        out = dict(v)
        rows = self.rows
        for p in [p for p in v if p in rows]:
            vec_axpy(out, -out.pop(p), rows[p].items())
        return out

    def insert(self, v: Vec) -> bool:
        """Add v to the span; returns True if the rank grew."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        c = r.pop(p)
        if self._one is None:
            self._one = c / c
        tail = vec_scale(r, 1 / c)
        for other in self.rows.values():
            f = other.pop(p, None)
            if f is not None:
                vec_axpy(other, -f, tail.items())
        self.rows[p] = tail
        return True

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def basis(self) -> list[Vec]:
        return [{p: self._one, **self.rows[p]} for p in sorted(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Echelon):
            return NotImplemented
        return self.rows == other.rows

    def __le__(self, other: "Echelon") -> bool:
        return all(other.contains(row) for row in self.basis())


class Solver:
    """Expresses vectors in an inserted independent set.

    An Echelon over augmented rows: v inserted under ``tag`` is stored as
    v + e_tag, with every tag column sorting after the data columns.  A data
    vector w = sum a_t v_t then reduces to exactly -sum a_t e_t.
    """

    def __init__(self):
        self.ech = Echelon()

    def insert(self, v: Vec, tag: int) -> bool:
        """Insert v under ``tag`` unless it depends on the inserted vectors;
        returns True if it was inserted.  Tags are distinct and mutually
        ordered, like the int indices every caller uses."""
        r = self.ech.reduce({**_data(v), (1, tag): 1})
        if min(r)[0] == 1:
            return False
        return self.ech.insert(r)

    def express(self, v: Vec) -> dict | None:
        """Coefficients writing v in the inserted set, or None."""
        r = self.ech.reduce(_data(v))
        if r and min(r)[0] == 0:
            return None
        return {tag: -x for (_, tag), x in r.items()}


def _data(v: Vec) -> Vec:
    return {(0, j): x for j, x in v.items()}


def rank(vecs: Iterable[Vec]) -> int:
    return Echelon(vecs).rank


def nullspace(maps: Iterable[Iterable[Vec]], ncols: int, one) -> list[Vec]:
    """Basis of {x in k^ncols : A x = 0 for every map A in ``maps``}.

    Each map is given by its columns, the images of the ncols basis vectors.
    ``one`` is the multiplicative unit of the scalar field.
    """
    ech = Echelon()
    for columns in maps:
        rows: dict = {}
        for j, col in enumerate(columns):
            for k, c in col.items():
                rows.setdefault(k, {})[j] = c
        for row in rows.values():
            ech.insert(row)
    basis = []
    for f in range(ncols):
        if f in ech.rows:
            continue
        vec: Vec = {f: one}
        for p, tail in ech.rows.items():
            c = tail.get(f)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis
