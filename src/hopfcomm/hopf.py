"""Finite-dimensional Hopf algebras over cyclotomic fields.

An algebra is given by exact sparse structure constants (multiplication,
comultiplication, unit, counit, antipode, optional R-matrix) with CycNum
coefficients.  Every construction path runs the full axiom verifier; the
three built-in instances are the group algebra kG, its dual k^G, and the
Drinfeld double D(G).  All three are smash products k^N # kF, and one table
builder, ``_smash_tables``, fills their structure constants.

Checks whose passing set is closed under products run on a generating set
(Light's test; Clifford & Preston, The Algebraic Theory of Semigroups I).
The b with (ab)c = a(bc) for all a, c are closed under products even when
the table is not associative.  Once H is associative, so are the b with
Delta(ab) = Delta(a)Delta(b), with eps(ab) = eps(a)eps(b), with bv = vb
for a fixed v, and with b x = eps(b) x or x b = eps(b) x for a fixed x.
Checking such a property on each element of a set that generates H as an
algebra therefore proves it on all of H, exactly.  ``generators`` finds
that set and verifies that it generates.  Associativity runs on it, row
by row ({c: (e_a e_g) e_c} against {c: e_a (e_g e_c)}, with the witness a
per-triple loop finds in (g, a, c) order), and the two algebra-map axioms
do once associativity holds.  A check that multiplies two basis
elements reads the stored terms of e_i e_j (``_product_terms``,
``_product``); ``mul_raw`` is the product of vectors.  Centrality
(``_central_failure``), the integral equations, the center (``_center``),
the trace property of a form (``_trace_form_failure``) and the Casimir
slide moves (``_casimir_slide_failure``) run on ``_closed_basis``, the
generators of an instance that passes every axiom (any other is refused);
so do ``commutator.is_adjoint_stable`` and the check R Delta = Delta^op R
of ``classdata.r_matrix_data``.  ``generators`` and
``commutator.algebra_closure`` close a span by one loop, ``_right_closure``.
Every check finds its first failing witness through the one search
``_first_failure``.  Idempotent families (the E_i and the F_i of R(H)) are
checked by their squares and sum alone, once per family (the Dixon table and
``split_commutative`` leave their candidates to their caller's certificate);
``_linalg._check_idempotents`` proves them orthogonal.  Every builder makes
its E_i from its characters by one formula, E_i = d_i (Lambda <- s(chi_i))
(``_with_idempotents``); ``_read_irred`` certifies a family of E_i and reads
each (d_i, chi_i) off E_i once, by one formula (``_degree_and_character``),
and the builders and the loader compare their own (d_i, chi_i) with that
read (``_verify_irred``), the one certificate of a character table too.

Elements of H and functionals on H are thin wrappers (HElem / HFunc)
around sparse coefficient dicts.  The structure maps, the pairing and the
hit and adjoint actions are the ``*_raw`` methods of HopfAlgebra on those
dicts; the module functions (integrals, the Frobenius map and its inverse,
central primitive idempotents with characters) realize the standard
semisimple structure theory, with all derived data re-verified exactly
before it is returned.  The adjoint action is read off a table of the
nonzero e_i .ad e_j (``adjoint_row``), made one left index at a time.
Every bilinear table is stored as rows {i: {j: terms}}, read by ``_bilinear``.
The coalgebra side reads stored terms through three kernels: a linear map
on one tensor factor (``_leg_map``: id (x) S, Delta (x) id, a factor times
e_k), a functional paired with one factor (``_slant``: the hits, p (x) id)
and the split by the left factor (``_left_legs``).  Where the two sides meet,
``_flatten_times`` multiplies the legs of a tensor after a linear map on its
right one (Com_n's last level, the Z_n columns, the Sweedler passes).
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from operator import mul

from ._linalg import (
    Echelon,
    Solver,
    _bilinear,
    _by_squaring,
    _check_idempotents,
    _rows,
    nullspace,
    vec_axpy,
    vec_scale,
)
from ._modp import (
    TRIES,
    algebra_mul,
    element_of_order,
    first_certified,
    lll_reduce,
    split_idempotents,
)
from .chartab import CharacterTable, dixon_character_table
from .errors import (
    DimMismatch,
    NoIntegral,
    NonIntegerDegree,
    VerificationFailed,
)
from .exactnum import CycNum, Rational, _rational_str, euler_phi
from .group import FiniteGroup, cyclic_group

Vec = dict  # {basis index: nonzero CycNum}
Tensor = dict  # {(i, j): nonzero CycNum}

SCHEMA = "hopfcomm/1"  # of every JSON document a command writes, dumps included

_ZERO = CycNum.rational(0)
_ONE = CycNum.rational(1)


def _cy(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    return CycNum.rational(x)


def _terms(terms) -> tuple:
    """Structure constants as stored: the (key, c) pairs with c != 0, c a CycNum."""
    return tuple((k, x) for k, c in terms if (x := _cy(c)))


def _product_terms(H: HopfAlgebra, i: int, j: int) -> tuple:
    """The stored terms of e_i e_j, () when it is zero.  An instance built
    with check=False may repeat a key; read them by vec_axpy or _dot, which
    sum it as mul_raw does."""
    return H.mult.get(i, {}).get(j, ())


def _summed(terms) -> Vec:
    """The vector of the (key, c) pairs ``terms``, a repeated key summed."""
    out: Vec = {}
    vec_axpy(out, _ONE, terms)
    return out


def _product(H: HopfAlgebra, i: int, j: int) -> Vec:
    """e_i e_j as a vector, summed from its stored terms."""
    return _summed(_product_terms(H, i, j))


def _dot(p: Vec, terms) -> CycNum:
    """sum x * p[j] over the (j, x) pairs of ``terms`` whose j is in p."""
    acc = _ZERO
    for j, x in terms:
        pj = p.get(j)
        if pj is not None:
            acc = acc + x * pj
    return acc


# ---------------------------------------------------------------------------
# the algebra


class HopfAlgebra:
    """A Hopf algebra given by exact structure constants.

    mult[i][j]     = ((k, c), ...)        e_i e_j   = sum c e_k
    comult[i]      = (((j, k), c), ...)   Delta e_i = sum c e_j (x) e_k
    antipode[i]    = ((j, c), ...)        S e_i     = sum c e_j
    unit, counit   = sparse vectors

    ``mult`` holds rows {i: {j: terms}} of the nonzero e_i e_j, so row i is
    the index of the right partners of e_i; no row or terms is empty.

    All axioms are checked exactly at construction: the linear ones on
    every basis element, associativity on the triples (a, g, c) and the
    algebra-map axioms on the pairs (i, g), for g in ``generators`` (see
    the module docstring).  Pass ``check=False`` only to build deliberately
    broken instances for the negative tests of the verifier, or to build
    ``_dual(H)``, whose axioms are those of H read backwards.
    """

    def __init__(self, *, dim, mult, comult, unit, counit, antipode,
                 cyc_order=1, r_matrix=None, labels=None, kind="custom",
                 group=None, check=True):
        self.dim = dim
        self.cyc_order = cyc_order
        self.kind = kind
        self.group = group
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        self.mult = _rows((i, j, _terms(terms))
                          for i, row in mult.items() for j, terms in row.items())
        self.comult = {i: _terms(terms) for i, terms in comult.items()}
        self.antipode = {i: _terms(terms) for i, terms in antipode.items()}
        self.unit_vec = {i: _cy(c) for i, c in unit.items() if _cy(c)}
        self.counit_vec = {i: _cy(c) for i, c in counit.items() if _cy(c)}
        self.r_matrix = None
        if r_matrix is not None:
            self.r_matrix = {k: _cy(c) for k, c in r_matrix.items() if _cy(c)}
        self.irred = None  # IrredData, attached by builders or on demand
        self._memo: dict = {}  # derived data, filled by @memo functions
        if check:
            _require_axioms(self)

    # -- raw sparse operations (dict in, dict out) --

    def mul_raw(self, u: Vec, v: Vec) -> Vec:
        return _bilinear(self.mult, u, v)

    def comult_raw(self, u: Vec) -> Tensor:
        out: Tensor = {}
        for i, cu in u.items():
            vec_axpy(out, cu, self.comult.get(i, ()))
        return out

    def antipode_raw(self, u: Vec) -> Vec:
        out: Vec = {}
        for i, cu in u.items():
            vec_axpy(out, cu, self.antipode.get(i, ()))
        return out

    def counit_raw(self, u: Vec) -> CycNum:
        return _dot(self.counit_vec, u.items())

    # -- functional (H*) operations, run as H operations on _dual(self) --

    def func_mul_raw(self, p: Vec, q: Vec) -> Vec:
        return _dual(self).mul_raw(p, q)

    def func_antipode_raw(self, p: Vec) -> Vec:
        return _dual(self).antipode_raw(p)

    # -- hit actions --

    def right_hit_raw(self, h: Vec, p: Vec) -> Vec:
        # h <- p = sum <p, h_1> h_2, slanting each stored Delta e_i
        out: Vec = {}
        for i, ci in h.items():
            vec_axpy(out, ci, _slant(p, self.comult.get(i, ()), 0))
        return out

    def left_hit_raw(self, p: Vec, h: Vec) -> Vec:
        # p -> h = sum h_1 <p, h_2>
        out: Vec = {}
        for i, ci in h.items():
            vec_axpy(out, ci, _slant(p, self.comult.get(i, ()), 1))
        return out

    def func_right_hit_raw(self, p: Vec, a: Vec) -> Vec:
        # <p <- a, a'> = <p, a a'>: the right hit of H* on its dual H
        return _dual(self).right_hit_raw(p, a)

    def func_left_hit_raw(self, a: Vec, p: Vec) -> Vec:
        # <a -> p, a'> = <p, a' a>
        return _dual(self).left_hit_raw(a, p)

    def adjoint_raw(self, h: Vec, a: Vec) -> Vec:
        # h .ad a = sum h_1 a S(h_2), read off the table of e_i .ad e_j
        return _bilinear({i: adjoint_row(self, i) for i in h}, h, a)

    def basis_vec(self, i: int) -> Vec:
        return {i: _ONE}

    def elem(self, vec: Vec) -> "HElem":
        return HElem(self, {i: c for i, c in vec.items() if c})

    def func(self, vec: Vec) -> "HFunc":
        return HFunc(self, {i: c for i, c in vec.items() if c})

    def one(self) -> "HElem":
        return self.elem(dict(self.unit_vec))

    def eps(self) -> "HFunc":
        return self.func(dict(self.counit_vec))

    def __repr__(self):
        return f"HopfAlgebra(kind={self.kind!r}, dim={self.dim})"


def _format_vec(vec: Vec, labels) -> str:
    if not vec:
        return "0"
    parts = []
    for i in sorted(vec):
        c = vec[i]
        parts.append(f"({c})*{labels[i]}")
    return " + ".join(parts)


class _Vector:
    """Arithmetic shared by HElem and HFunc: a sparse coefficient vector over
    the basis of H (or its dual basis).  Each subclass supplies its product
    ``_mul_raw`` and its ``_unit``."""

    __slots__ = ("H", "vec")

    def __init__(self, H: HopfAlgebra, vec: Vec):
        self.H = H
        self.vec = vec

    def coeff_list(self) -> list[CycNum]:
        return [self.vec.get(i, _ZERO) for i in range(self.H.dim)]

    def _axpy(self, c, other):
        _same(self, other)
        out = dict(self.vec)
        vec_axpy(out, c, other.vec.items())
        return type(self)(self.H, out)

    def __add__(self, other):
        return self._axpy(_ONE, other)

    def __sub__(self, other):
        return self._axpy(-_ONE, other)

    def __neg__(self):
        return type(self)(self.H, vec_scale(self.vec, -_ONE))

    def __mul__(self, other):
        if isinstance(other, type(self)):
            _same(self, other)
            return type(self)(self.H, self._mul_raw(self.vec, other.vec))
        return type(self)(self.H, vec_scale(self.vec, _cy(other)))

    def __rmul__(self, other):
        return type(self)(self.H, vec_scale(self.vec, _cy(other)))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers require an explicit inverse")
        return _by_squaring(self, n, mul, self._unit())

    def __eq__(self, other):
        return (type(other) is type(self) and self.H.dim == other.H.dim
                and self.vec == other.vec)

    def __bool__(self):
        return bool(self.vec)


class HElem(_Vector):
    """An element of H: sparse coefficient vector over the algebra basis."""

    __slots__ = ()

    def _mul_raw(self, u: Vec, v: Vec) -> Vec:
        return self.H.mul_raw(u, v)

    def _unit(self) -> "HElem":
        return self.H.one()

    def __repr__(self):
        return _format_vec(self.vec, self.H.labels)


class HFunc(_Vector):
    """A functional on H: <p, e_i> = vec[i]; callable on HElem."""

    __slots__ = ()

    def _mul_raw(self, p: Vec, q: Vec) -> Vec:
        return self.H.func_mul_raw(p, q)

    def _unit(self) -> "HFunc":
        return self.H.eps()

    def __call__(self, a: HElem) -> CycNum:
        _same(self, a)
        return _dot(self.vec, a.vec.items())

    def __repr__(self):
        return "func: " + _format_vec(self.vec, self.H.labels)


def _same(a, b):
    if a.H.dim != b.H.dim:
        raise DimMismatch(f"dimension {a.H.dim} vs {b.H.dim}")


# ---------------------------------------------------------------------------
# the per-instance memo, and checks shared by several modules


def memo(fn):
    """Compute ``fn(H, *args)`` once per instance and positional-argument tuple.

    The value is stored in the one dict ``H._memo`` and every later call gets
    that same object back, so callers treat it as read-only: nothing assigns
    into the ``.vec`` of a returned HElem/HFunc or inserts into a returned
    Echelon.  An exception is not stored; the next call computes again.
    Values that read ``H.irred`` assume it is not replaced afterwards (builders
    and loaders set it before any of them runs).
    """

    @functools.wraps(fn)
    def cached(H, *args):
        key = (fn, *args)
        if key not in H._memo:
            H._memo[key] = fn(H, *args)
        return H._memo[key]

    return cached


@memo
def _dual(H: HopfAlgebra) -> HopfAlgebra:
    """H* on the basis dual to H's, its tables the transposes of H's.

    delta_j delta_k = sum_i <Delta e_i, e_j (x) e_k> delta_i, Delta delta_k =
    sum_(i,j) <e_i e_j, e_k> delta_i (x) delta_j, s(delta_j) = sum_i <S e_i,
    e_j> delta_i; the unit is eps and the counit is evaluation at 1.  The
    H* operations of H are the H operations of this instance."""
    def transpose(table):
        out: dict = {}
        for key, terms in table.items():
            for k, c in terms:
                out.setdefault(k, []).append((key, c))
        return out

    mult = _rows((j, k, terms) for (j, k), terms in transpose(H.comult).items())
    products = {(i, j): terms for i, row in H.mult.items() for j, terms in row.items()}
    return HopfAlgebra(dim=H.dim, mult=mult, comult=transpose(products),
                       unit=H.counit_vec, counit=H.unit_vec,
                       antipode=transpose(H.antipode), cyc_order=H.cyc_order,
                       kind="dual", check=False)


@memo
def adjoint_row(H: HopfAlgebra, i: int) -> dict:
    """{j: e_i .ad e_j} over the j where it is nonzero, each value stored as
    terms ((k, c), ...) like the structure constants, with e_i .ad e_j =
    sum (e_a e_j) S(e_b) over Delta e_i = sum e_a (x) e_b; each row is made
    on first use."""
    row: dict = {}
    for (a, b), c in H.comult.get(i, ()):
        for j, left in H.mult.get(a, {}).items():
            _axpy_times_antipode(H, row.setdefault(j, {}), c, left, b)
    return {j: tuple(v.items()) for j, v in row.items() if v}


def _axpy_times_antipode(H: HopfAlgebra, acc: Vec, c, terms, b: int) -> None:
    """acc += c v S(e_b) in place, for the vector v given by its terms."""
    for m, x in terms:
        cx, row = c * x, H.mult.get(m, {})
        for s, y in H.antipode.get(b, ()):
            prod = row.get(s)
            if prod:
                vec_axpy(acc, cx * y, prod)


def _combination(coeffs, elems) -> Vec:
    """sum coeffs[i] * elems[i] for HElems or HFuncs, as a vector; a
    coefficient may be an int, a Fraction or a CycNum."""
    out: Vec = {}
    for c, x in zip(coeffs, elems):
        vec_axpy(out, _cy(c), x.vec.items())
    return out


def _central_failure(H: HopfAlgebra, v: Vec):
    """The first index k of ``_closed_basis(H)`` with e_k v != v e_k; None
    when v is central."""
    return _first_failure((k, H.mul_raw({k: _ONE}, v) == H.mul_raw(v, {k: _ONE}))
                          for k in _closed_basis(H))


# ---------------------------------------------------------------------------
# the antipode of H* on a functional (the character formulas use s(chi))


def func_antipode_s(p: HFunc) -> HFunc:
    return HFunc(p.H, p.H.func_antipode_raw(p.vec))


# ---------------------------------------------------------------------------
# tensors in H (x) H


def tensor_of(a: HElem, b: HElem) -> Tensor:
    out: Tensor = {}
    for i, ci in a.vec.items():
        for j, cj in b.vec.items():
            out[(i, j)] = ci * cj
    return out


def tensor_mult(H: HopfAlgebra, s: Tensor, t: Tensor) -> Tensor:
    """Componentwise product in H (x) H."""
    out: Tensor = {}
    for (a, b), cs in s.items():
        row_a, row_b = H.mult.get(a), H.mult.get(b)
        if not (row_a and row_b):
            continue
        for (c, d), ct in t.items():
            left = row_a.get(c)
            if not left:
                continue
            right = row_b.get(d)
            if not right:
                continue
            vec_axpy(out, cs * ct, [((k1, k2), c1 * c2)
                                    for k1, c1 in left for k2, c2 in right])
    return out


def tensor_flatten(H: HopfAlgebra, t: Tensor) -> Vec:
    """Apply multiplication: sum t[(i,j)] e_i e_j."""
    out: Vec = {}
    for (i, j), c in t.items():
        vec_axpy(out, c, _product_terms(H, i, j))
    return out


def _flatten_times(H: HopfAlgebra, t, image) -> Vec:
    """flatten((id (x) f)t) = sum c e_a f(e_b) over the (key, c) terms ((a, b), c)
    of t, for the map f: e_x -> ``image.get(x, ())`` given by stored terms; the
    products are read off the rows of H.mult and (id (x) f)t is never formed."""
    out: Vec = {}
    for (a, b), c in t:
        row = H.mult.get(a, {})
        for m, x in image.get(b, ()):
            prod = row.get(m)
            if prod:
                vec_axpy(out, c * x, prod)
    return out


def _tensor_sandwich(H: HopfAlgebra, t: Tensor, h: Vec) -> Vec:
    """sum t[(i,j)] e_i h e_j, as sum_k h_k flatten((id (x) L_k)t) with L_k the
    left multiplication by e_k: e_i e_k e_j = e_i (e_k e_j) needs H associative,
    which its callers (the Z_n columns and the Higman map) verify first."""
    return _summed((m, x * y) for k, x in h.items()
                   for m, y in _flatten_times(H, t.items(), H.mult.get(k, {})).items())


def tensor_swap(t: Tensor) -> Tensor:
    return {(j, i): c for (i, j), c in t.items()}


def _leg_map(t, leg: int, image) -> Tensor:
    """The map e_x -> ``image.get(x, ())`` on factor ``leg`` of the tensor with
    (key, c) terms t: (.., x, ..) becomes (.., k, ..), coefficient c y, for each
    term (k, y) of the image; a tuple k, as in Delta's terms, splices in factors."""
    out: Tensor = {}
    for key, c in t:
        if terms := image.get(key[leg]):
            head, tail = key[:leg], key[leg + 1:]
            vec_axpy(out, c, [(head + (k if type(k) is tuple else (k,)) + tail, y)
                              for k, y in terms])
    return out


def _slant(p: Vec, t, leg: int) -> list:
    """The terms of (p (x) id)t (leg 0) or (id (x) p)t (leg 1) for the tensor with
    (key, c) terms t, summed by vec_axpy or ``_summed``; only those whose factor
    ``leg`` lies in p are multiplied, so a stored Delta e_i is paired in place."""
    return [(key[1 - leg], c * x) for key, c in t if (x := p.get(key[leg])) is not None]


def _left_legs(t: Tensor):
    """The nonzero vectors (e^i (x) id)t, one per left index i."""
    legs: dict[int, dict] = {}
    for (i, j), c in t.items():
        legs.setdefault(i, {})[j] = c
    return legs.values()


def _comult_legs(H: HopfAlgebra, t) -> tuple[Tensor, Tensor]:
    """((Delta (x) id)t, (id (x) Delta)t) for the tensor with (key, c) terms t."""
    return _leg_map(t, 0, H.comult), _leg_map(t, 1, H.comult)


def _u_tensor(H: HopfAlgebra, vec: Vec) -> Tensor:
    """U(a) = sum a_1 (x) S(a_2) in H (x) H."""
    return _leg_map(H.comult_raw(vec).items(), 1, H.antipode)


def casimir_tensor(H: HopfAlgebra) -> Tensor:
    """U(Lambda) = sum Lambda_1 (x) S(Lambda_2), the Casimir tensor of the form
    beta(h, h') = <lambda, h h'>."""
    lam, _ = integrals(H)
    return _u_tensor(H, lam.vec)


# ---------------------------------------------------------------------------
# axiom verification


def _entry(report, name, ok, witness=None):
    """Append one suite entry to ``report`` and return it: a pass or a fail
    by the truth of ``ok``, or, for ``ok="evidence"``, a record reported and
    never asserted.  A failure or evidence entry carries its witness."""
    status = ok if ok == "evidence" else "pass" if ok else "fail"
    item = {"check": name, "status": status}
    if witness is not None and status != "pass":
        item["witness"] = witness
    report.append(item)
    return item


def _first_failure(it):
    """The witness of the first pair (witness, ok) of ``it`` with ok false,
    which must not be None; None when every pair passes.  The search stops
    there, so a check draws its random samples before it."""
    return next((w for w, ok in it if not ok), None)


def _check_all(name, it, report):
    """Append the suite entry of check ``name`` over the pairs of ``it``."""
    witness = _first_failure(it)
    _entry(report, name, witness is None, witness)


@memo
def _unit_failure(H: HopfAlgebra):
    """The first basis index i with 1 e_i != e_i or e_i 1 != e_i; None when
    the unit law holds."""
    one = H.unit_vec
    return _first_failure(
        (i, H.mul_raw(one, {i: _ONE}) == {i: _ONE} == H.mul_raw({i: _ONE}, one))
        for i in range(H.dim))


def _right_closure(H: HopfAlgebra, span: Echelon, words: list[Vec], done: list[int],
                   gens: list[Vec]) -> None:
    """Close ``span`` under right multiplication by the vectors ``gens``, so
    that it is spanned by the words (..(w g_1)..) g_k, w in ``words``, for any
    table.  ``words`` are the vectors inserted into ``span`` in order, and
    words[t] g already lies in it for g in gens[:done[t]]."""
    t = 0
    while t < len(words) and span.rank < H.dim:
        for g in gens[done[t]:]:
            w = H.mul_raw(words[t], g)
            if span.insert(w):
                words.append(w)
                done.append(0)
        done[t] = len(gens)
        t += 1


@memo
def generators(H: HopfAlgebra) -> tuple[int, ...]:
    """Basis indices that generate H as an algebra, chosen greedily.

    Each e_i (in index order) outside the span found so far becomes a
    generator, and the span is closed under right multiplication by the
    generators (``_right_closure``): it is spanned by left-normed words
    (..(g_1 g_2)..) g_k, which are products of generators for any table,
    associative or not, and by the unit once the unit law holds.  The loop
    ends when the span has rank dim; at worst every basis element is a
    generator.
    """
    d = H.dim
    span = Echelon()
    words: list[Vec] = []  # independent words, in the order found
    done: list[int] = []   # words[t] times gens[:done[t]] is in the span
    gens: list[int] = []

    def add(w: Vec) -> bool:
        if not span.insert(w):
            return False
        words.append(w)
        done.append(0)
        return True

    if _unit_failure(H) is None:
        add(H.unit_vec)
    for i in range(d):
        if span.rank == d:
            break
        if add({i: _ONE}):
            gens.append(i)
            _right_closure(H, span, words, done, [{g: _ONE} for g in gens])
    return tuple(gens)


def _axiom_failure(H: HopfAlgebra):
    """The first failing entry of H's memoized axiom report, or None."""
    return next((e for e in verify_hopf_axioms(H) if e["status"] == "fail"), None)


def _require_axioms(H: HopfAlgebra):
    if (bad := _axiom_failure(H)) is not None:
        raise VerificationFailed(f"Hopf axiom '{bad['check']}' fails at {bad['witness']}")


def _closed_basis(H: HopfAlgebra):
    """The basis indices a product-closed check of H runs on: generators(H),
    once every Hopf axiom holds, so that the closure lemma of the module
    docstring applies.  An instance that fails an axiom is refused."""
    _require_axioms(H)
    return generators(H)


@memo
def verify_hopf_axioms(H: HopfAlgebra) -> list[dict]:
    """Exact verification of all Hopf axioms; returns a report with one
    entry per axiom, failures carrying a basis-index witness.

    Associativity is checked on the triples (a, g, c) with g in
    generators(H), one row {c: ...} per (g, a).  Once it holds, the
    algebra-map axioms are checked on the pairs (i, g); they are checked on
    all pairs (i, j) when it fails.
    Every other axiom is linear and is checked on each basis element."""
    d = H.dim
    report: list[dict] = []
    basis = [H.basis_vec(i) for i in range(d)]
    gens = generators(H)

    def assoc():
        # row by row: {c: (e_a e_g) e_c} against {c: e_a (e_g e_c)}, both
        # read off stored rows; c is walked only where the rows differ
        for g in gens:
            row_g = H.mult.get(g, {})
            for a in range(d):
                row_a = H.mult.get(a, {})
                left: dict = {}
                right: dict = {}
                for k, x in row_a.get(g, ()):
                    for c, terms in H.mult.get(k, {}).items():
                        vec_axpy(left.setdefault(c, {}), x, terms)
                for c, terms in row_g.items():
                    for m, y in terms:
                        vec_axpy(right.setdefault(c, {}), y, row_a.get(m, ()))
                left = {c: v for c, v in left.items() if v}
                if left != {c: v for c, v in right.items() if v}:
                    yield from (((a, g, c), left.get(c, {}) == right.get(c, {}))
                                for c in range(d))

    _check_all("associativity", assoc(), report)
    closed = gens if report[-1]["status"] == "pass" else range(d)
    k = _unit_failure(H)
    _entry(report, "unit", k is None, k)

    def coassoc():
        for i in range(d):
            left, right = _comult_legs(H, H.comult.get(i, ()))
            yield i, left == right

    _check_all("coassociativity", coassoc(), report)

    def counit_law():
        # (eps (x) id) Delta e_i = e_i <- eps and (id (x) eps) Delta e_i = eps -> e_i
        eps = H.counit_vec
        for i in range(d):
            yield i, H.right_hit_raw(basis[i], eps) == basis[i] == H.left_hit_raw(eps, basis[i])

    _check_all("counit", counit_law(), report)

    def comult_map():
        yield "unit", H.comult_raw(H.unit_vec) == tensor_of(H.one(), H.one())
        dj = {j: H.comult_raw(basis[j]) for j in closed}
        for i in range(d):
            di = H.comult_raw(basis[i])
            for j in closed:
                lhs = H.comult_raw(_product(H, i, j))
                yield (i, j), lhs == tensor_mult(H, di, dj[j])

    _check_all("comult_algebra_map", comult_map(), report)

    def counit_map():
        yield "unit", H.counit_raw(H.unit_vec) == _ONE
        for i in range(d):
            ei = H.counit_raw(basis[i])
            for j in closed:
                lhs = _dot(H.counit_vec, _product_terms(H, i, j))
                yield (i, j), lhs == ei * H.counit_raw(basis[j])

    _check_all("counit_algebra_map", counit_map(), report)

    def antipode_axiom():
        for i in range(d):
            terms = H.comult.get(i, ())
            want = vec_scale(H.unit_vec, H.counit_raw(basis[i]))
            yield i, (tensor_flatten(H, _leg_map(terms, 0, H.antipode)) == want
                      == _flatten_times(H, terms, H.antipode))

    _check_all("antipode", antipode_axiom(), report)

    def s_squared():
        for i in range(d):
            yield i, H.antipode_raw(H.antipode_raw(basis[i])) == basis[i]

    _check_all("antipode_involutive", s_squared(), report)
    return report


# ---------------------------------------------------------------------------
# integrals and the Frobenius map


def _regular_character(K: HopfAlgebra) -> Vec:
    """{i: Tr(L_{e_i})}, read off K.mult: the e_j-coefficients of e_i e_j, summed."""
    return {i: tr for i, row in sorted(K.mult.items())
            if (tr := sum((c for j, terms in row.items() for k, c in terms if k == j), _ZERO))}


@memo
def integrals(H: HopfAlgebra) -> tuple[HElem, HFunc]:
    """(Lambda, lambda): the idempotent integral and the dual integral.

    lambda is the regular character of H and Lambda that of H* over dim H.
    S^2 = id in characteristic 0 makes H semisimple and cosemisimple (Larson
    & Radford, J. Algebra 117, 1988), so these are integrals with
    <lambda, Lambda> = 1, and integrals are unique up to a scalar (Larson &
    Sweedler, Amer. J. Math. 91, 1969).  Each check of the certificate
    raises NoIntegral: eps(Lambda) = 1, h Lambda = eps(h) Lambda = Lambda h
    for h in ``_closed_basis(H)`` (so for every h), and <lambda, Lambda> = 1.
    """
    rows = _closed_basis(H)
    lam_vec = vec_scale(_regular_character(_dual(H)), CycNum.rational(Rational(1, H.dim)))
    if (scale := H.counit_raw(lam_vec)) != _ONE:
        raise NoIntegral(f"eps(Lambda) = {scale}, expected 1")
    for i in rows:
        want = vec_scale(lam_vec, H.counit_raw(H.basis_vec(i)))
        if not H.mul_raw(H.basis_vec(i), lam_vec) == want == H.mul_raw(lam_vec, H.basis_vec(i)):
            raise NoIntegral(f"Lambda is not a two-sided integral (basis {i})")
    lam_func = _regular_character(H)
    pairing = _dot(lam_func, lam_vec.items())
    if pairing != _ONE:
        raise NoIntegral(f"<lambda, Lambda> = {pairing}, expected 1")
    return HElem(H, lam_vec), HFunc(H, lam_func)


def frobenius_psi(H: HopfAlgebra, h: HElem) -> HFunc:
    """Psi(h) = lambda <- S(h), the Frobenius bijection H -> H*."""
    _, lam = integrals(H)
    return HFunc(H, H.func_right_hit_raw(lam.vec, H.antipode_raw(h.vec)))


def psi_inv(H: HopfAlgebra, p: HFunc) -> HElem:
    """Psi^{-1}(p) = Lambda <- p."""
    integral, _ = integrals(H)
    return HElem(H, H.right_hit_raw(integral.vec, p.vec))


# ---------------------------------------------------------------------------
# irreducible data


class IrredData:
    """Central primitive idempotents E_i, degrees d_i, characters chi_i;
    index 0 is the trivial representation (E_0 = Lambda, chi_0 = eps)."""

    __slots__ = ("idempotents", "degrees", "characters")

    def __init__(self, idempotents: tuple, degrees: tuple, characters: tuple):
        self.idempotents = idempotents
        self.degrees = degrees
        self.characters = characters

    def __len__(self):
        return len(self.degrees)


def _read_irred(H: HopfAlgebra, idems: list[Vec]) -> list:
    """(E_i, d_i, chi_i) for each E_i, once the E_i are certified as the
    central primitive idempotents of H.

    n central idempotents summing to 1 are orthogonal, so if nonzero (d_i >=
    1) and n = dim Z(H) they are the primitive idempotents of Z(H).  Each
    H E_i is then simple, and ``_degree_and_character`` reads (d_i, chi_i)
    off E_i, once."""
    _require_axioms(H)  # the precondition of _check_idempotents
    for i, e in enumerate(idems):
        k = _central_failure(H, e)
        if k is not None:
            raise VerificationFailed(f"E_{i} is not central (basis {k})")
    _check_idempotents("E", idems, H.mul_raw, H.unit_vec, "1")
    if len(idems) != len(_center(H)):
        raise VerificationFailed(
            f"{len(idems)} idempotents for a center of dimension {len(_center(H))}")
    return [(e, *_degree_and_character(H, e)) for e in idems]


def _irred_data(H: HopfAlgebra, read) -> IrredData:
    """The IrredData of ``_read_irred``'s triples in this order, which must
    start at E_0 = Lambda.  Sum d_i^2 = dim, <chi_i, E_j> = delta_ij d_j,
    <chi_i s(chi_j), Lambda> = delta_ij and chi_0 = Lambda -> lambda = eps
    follow."""
    integral, _ = integrals(H)
    if read[0][0] != integral.vec:
        raise VerificationFailed("E_0 != Lambda")
    return IrredData(idempotents=tuple(HElem(H, e) for e, _, _ in read),
                     degrees=tuple(d for _, d, _ in read),
                     characters=tuple(HFunc(H, chi) for _, _, chi in read))


def _verify_irred(H: HopfAlgebra, entries) -> IrredData:
    """The IrredData of these (E, d, chi) vector triples, once each (d_i,
    chi_i) is what ``_read_irred`` reads off E_i."""
    read = _read_irred(H, [e for e, _, _ in entries])
    for i, ((_, d, chi), given) in enumerate(zip(read, entries)):
        if (d, chi) != given[1:]:
            raise VerificationFailed(f"(d_{i}, chi_{i}) are not read off E_{i}")
    return _irred_data(H, read)


@memo
def _center(H: HopfAlgebra) -> list[Vec]:
    """A basis of the center Z(H): the h with e_k h = h e_k for every k in
    ``_closed_basis(H)``."""
    d = H.dim

    def commutator_with(i):
        # columns of h -> e_i h - h e_i
        for j in range(d):
            col = _product(H, i, j)
            vec_axpy(col, -_ONE, _product_terms(H, j, i))
            yield col

    return nullspace((commutator_with(i) for i in _closed_basis(H)), d, _ONE)


def _degree_and_character(H: HopfAlgebra, evec: Vec) -> tuple[int, Vec]:
    """(d, chi) of the central primitive idempotent E: d^2 = <lambda, E> =
    Tr(L_E) and chi = (E -> lambda)/d, i.e. chi(h) = Tr(L_{hE})/d."""
    _, lam = integrals(H)
    tr = _dot(lam.vec, evec.items())
    q = tr.as_rational()
    deg = math.isqrt(q.numerator) if q is not None and q > 0 and q.denominator == 1 else 0
    if deg == 0 or deg * deg != q:
        raise NonIntegerDegree(f"Tr(L_E) = {tr} is not the square of a positive integer")
    chi = vec_scale(H.func_left_hit_raw(evec, lam.vec), CycNum.rational(Rational(1, deg)))
    return deg, chi


def split_commutative(span: list[Vec], mul, unit: Vec, cyc_order, rng, accept):
    """``accept`` of the primitive idempotents of the commutative semisimple
    algebra spanned by the independent vectors ``span``, closed under
    ``mul`` with unit ``unit``.

    The algebra is split in the coordinates of ``span``: idempotents are
    found over F_p (p = 1 mod cyc_order) from Frobenius powers of random
    elements (``_modp.split_idempotents``; no structure matrix is
    diagonalised), Newton-lifted to p^k and recognised in Q(zeta_cyc_order)
    by lattice reduction (``_split_attempt``), where zeta_cyc_order mod p^k
    is the Teichmuller lift of an element of order cyc_order mod p.
    ``accept``, the caller's certificate, returns the result or raises
    VerificationFailed; the retries are ``_modp.first_certified``'s, at
    k = 24 then 48 per prime.
    """
    dim = len(span)
    solver = Solver()
    for t, v in enumerate(span):
        solver.insert(v, t)

    def coords(vec: Vec) -> list[CycNum]:
        combo = solver.express(vec)
        if combo is None:
            raise VerificationFailed("the span is not closed under multiplication")
        return [combo.get(t, _ZERO) for t in range(dim)]

    def vector(xs) -> Vec:
        out: Vec = {}
        for t, c in enumerate(xs):
            if c:
                vec_axpy(out, c, span[t].items())
        return out

    if dim == 1:
        return accept([vector(coords(unit))])
    struct = [[coords(mul(u, v)) for v in span] for u in span]
    N = max(cyc_order, 1)
    phi = euler_phi(N)
    unit_coords = coords(unit)
    return first_certified(
        {"stage": "split_commutative", "dim": dim}, N, max(2 * dim, 16, N), (24, 48),
        lambda p, k: _split_attempt(struct, unit_coords, N, phi, p, k, rng),
        lambda result: accept([vector(xs) for xs in result]),
        lambda why: f"could not split commutative algebra after {TRIES} attempts: {why}; "
                    f"cyc_order {cyc_order} may be too small for its idempotents")


def _split_attempt(struct, unit, N, phi, p, k, rng):
    # Coordinates of candidate idempotents, which the caller verifies; or None.
    def residues(w, m):  # struct as algebra_mul's rows mod m, zeta_N -> w
        return _rows((a, b, tuple((c, r) for c, x in enumerate(row)
                                  if x and (r := x.residue(w, N, m))))
                     for a, rows in enumerate(struct) for b, row in enumerate(rows))

    w1 = element_of_order(N, p, rng)
    idems_mod_p = split_idempotents(
        residues(w1, p), [x.residue(w1, N, p) for x in unit], p, rng)
    if idems_mod_p is None:
        return None
    # zeta_N mod p^k is the Teichmuller lift of w1: the one root of Phi_N
    # mod p^k over w1, since p does not divide N.  Newton-lift the idempotents.
    modulus = p**k
    wk = pow(w1, p**(k - 1), modulus)
    struct_residues = residues(wk, modulus)
    lifted = []
    for e in idems_mod_p:
        prec = 1
        cur = list(e)
        while prec < k:
            prec = min(2 * prec, k)
            m = p**prec
            sq = algebra_mul(struct_residues, cur, cur, m)
            cube = algebra_mul(struct_residues, sq, cur, m)
            cur = [(3 * a - 2 * b) % m for a, b in zip(sq, cube)]
        lifted.append(cur)
    # Recognise each coordinate in Q(zeta_N) via the lattice of small
    # (a_0..a_{phi-1}, b) with sum a_j w^j = b * residue (mod p^k); its rows
    # are triangular with diagonal (p^k, 1, ..., 1), as lll_reduce requires.
    cache: dict[int, CycNum | None] = {}

    def recognise(c: int) -> CycNum | None:
        if c in cache:
            return cache[c]
        size = phi + 1
        rows = [[0] * size for _ in range(size)]
        rows[0][0] = modulus
        for j in range(1, phi):
            rows[j][0] = (-pow(wk, j, modulus)) % modulus
            rows[j][j] = 1
        rows[phi][0] = c
        rows[phi][phi] = 1
        # the shortest reduced vector with b != 0, the first of them on a tie
        best = min((v for v in lll_reduce(rows) if v[-1]),
                   key=lambda v: sum(x * x for x in v), default=None)
        cache[c] = None if best is None else CycNum(N, [Fraction(x, best[-1]) for x in best[:phi]])
        return cache[c]

    exact = []
    for cur in lifted:
        coords = []
        for c in cur:
            val = recognise(c)
            if val is None:
                return None
            coords.append(val)
        exact.append(coords)
    return exact


def irreducibles_generic(H: HopfAlgebra, seed: int = 0) -> IrredData:
    """Central primitive idempotents, degrees, and irreducible characters,
    computed from the structure constants alone: the center is split by
    lift-and-verify, ``_read_irred`` certifies the idempotents and reads
    each degree and character off its E_i, and ``_irred_data`` certifies
    the order of ``_sorted_irred``.
    """
    return split_commutative(
        _center(H), H.mul_raw, H.unit_vec, H.cyc_order, random.Random(seed),
        lambda idems: _irred_data(H, _sorted_irred(H, _read_irred(H, idems))))


def _sorted_irred(H: HopfAlgebra, entries, points=None) -> list:
    """(E, degree, character) triples of vectors, the E that equals the
    integral first, the rest by degree and then character values at the
    basis indices ``points`` (all of them by default; kG's class
    representatives, where a character is determined).  The one order of
    every family of irreducibles: kG's, D(G)'s and a generic split's."""
    integral, _ = integrals(H)
    points = range(H.dim) if points is None else points
    return sorted(entries, key=lambda e: (
        e[0] != integral.vec,
        e[1],
        tuple(e[2].get(j, _ZERO).sort_key() for j in points),
    ))


def require_irred(H: HopfAlgebra) -> IrredData:
    """The instance's IrredData, computing it by ``irreducibles_generic`` at
    seed 0 and caching it if absent."""
    if H.irred is None:
        H.irred = irreducibles_generic(H)
    return H.irred


def grouplike_functionals(H: HopfAlgebra) -> list[HFunc]:
    """The grouplike elements of H*: exactly the degree-1 irreducible
    characters.  ``_read_irred`` certifies chi_i as the character of the
    simple module H E_i, one-dimensional when d_i = 1, so such a chi_i is an
    algebra map."""
    irred = require_irred(H)
    return [chi for deg, chi in zip(irred.degrees, irred.characters) if deg == 1]


# ---------------------------------------------------------------------------
# randomised elements (for the identity suites)


def random_element(H: HopfAlgebra, rng: random.Random, density=1.0) -> HElem:
    vec: Vec = {}
    for i in range(H.dim):
        if density < 1.0 and rng.random() > density:
            continue
        c = rng.randrange(-4, 5)
        if c:
            vec[i] = CycNum.rational(c)
    if not vec:
        vec[rng.randrange(H.dim)] = _ONE
    return HElem(H, vec)


def random_functional(H: HopfAlgebra, rng: random.Random) -> HFunc:
    return HFunc(H, random_element(H, rng).vec)


# ---------------------------------------------------------------------------
# structure-level theorem suite


def _trace_form_failure(H: HopfAlgebra, t: Vec):
    """The first pair (i, g), g in ``_closed_basis(H)``, with
    <t, e_i e_g> != <t, e_g e_i>; None when t is a trace form.  The b with
    <t, ab> = <t, ba> for all a form a subalgebra: <t, a(bc)> = <t, (bc)a>."""
    def ok(i, g):
        return _dot(t, _product_terms(H, i, g)) == _dot(t, _product_terms(H, g, i))

    return _first_failure(((i, g), ok(i, g)) for g in _closed_basis(H) for i in range(H.dim))


def _casimir_slide_failure(H: HopfAlgebra, tensor: Tensor):
    """The first index k of ``_closed_basis(H)`` where a slide move of
    T = sum r (x) l fails: T(e_k (x) 1) = (1 (x) e_k)T or (e_k (x) 1)T =
    T(1 (x) e_k); None when both hold.  The a with T(a (x) 1) = (1 (x) a)T
    form a subalgebra, T(ab (x) 1) = (1 (x) a)T(b (x) 1) = (1 (x) ab)T, and
    so do those with (a (x) 1)T = T(1 (x) a)."""
    def ok(k):
        # e_x -> e_k e_x is row k of the table, e_x -> e_x e_k its column k
        left = H.mult.get(k, {})
        right = {i: row[k] for i, row in H.mult.items() if k in row}
        t = tensor.items()
        return (_leg_map(t, 0, right) == _leg_map(t, 1, left)
                and _leg_map(t, 0, left) == _leg_map(t, 1, right))

    return _first_failure((k, ok(k)) for k in _closed_basis(H))


def theorem_suite_sec1(H: HopfAlgebra, seed: int = 0) -> list[dict]:
    """Exact checks of the Frobenius/integral layer: axiom report, two-sided
    idempotent integrals, the trace form of lambda, Psi bijectivity, and the
    dual-basis (Casimir) identities of the integral tensor.  Every check is
    on the basis or on generators, so ``seed`` (the suites' common signature)
    draws nothing here."""
    report: list[dict] = []
    d = H.dim

    bad = _axiom_failure(H)
    _entry(report, "hopf_axioms_pass", bad is None, [bad])

    integral, lam = integrals(H)
    ok = integral * integral == integral and all(
        H.elem(H.basis_vec(k)) * integral == integral * H.counit_raw(H.basis_vec(k))
        and integral * H.elem(H.basis_vec(k))
        == integral * H.counit_raw(H.basis_vec(k))
        for k in range(d))
    _entry(report, "integral_two_sided_idempotent", ok)
    _entry(report, "integral_pairing_normalized",
           lam(integral) == _ONE and H.counit_raw(integral.vec) == _ONE)
    _entry(report, "antipode_fixes_integrals",
           H.antipode_raw(integral.vec) == integral.vec
           and H.func_antipode_raw(lam.vec) == lam.vec)

    pair = _trace_form_failure(H, lam.vec)
    _entry(report, "dual_integral_is_trace_form", pair is None,
           {"pair": list(pair)} if pair else None)

    # Psi^-1 Psi is linear: the identity on the basis is the identity on H
    basis = [H.elem(H.basis_vec(k)) for k in range(d)]
    _entry(report, "psi_round_trip",
           all(psi_inv(H, frobenius_psi(H, h)) == h for h in basis))

    ir = require_irred(H)
    ok = all(
        frobenius_psi(H, ir.idempotents[i])
        == func_antipode_s(ir.characters[i]) * CycNum.rational(ir.degrees[i])
        for i in range(len(ir)))
    _entry(report, "psi_of_idempotent_is_scaled_character", ok)

    center_image = Echelon(frobenius_psi(H, e).vec for e in ir.idempotents)
    _entry(report, "psi_carries_center_onto_characters",
           center_image == Echelon(chi.vec for chi in ir.characters))

    cas = casimir_tensor(H)

    def reproduced_basis():
        # (lambda <- e_k (x) id) U(Lambda), with <lambda <- e_k, e_i> = <lambda, e_k e_i>
        for k in range(d):
            hit = {i: w for i, terms in H.mult.get(k, {}).items() if (w := _dot(lam.vec, terms))}
            yield {"basis": k}, _summed(_slant(hit, cas.items(), 0)) == {k: _ONE}

    _check_all("casimir_reproduces_basis", reproduced_basis(), report)

    k = _casimir_slide_failure(H, cas)
    _entry(report, "casimir_slide_moves", k is None, {"basis": k})

    report.sort(key=lambda e: e["check"])
    return report


# ---------------------------------------------------------------------------
# built-in instances


def _smash_tables(N: FiniteGroup, F: FiniteGroup, act) -> dict:
    """The structure tables of the smash product k^N # kF, as keywords of
    ``HopfAlgebra``, on the basis p_n # f indexed n*|F| + f.  F acts on N by
    automorphisms ``act(f, n)`` (Takeuchi, "Matched pairs of groups and
    bismash products of Hopf algebras", Comm. Algebra 9, 1981):

        (p_n # f)(p_m # f') = [n = act(f, m)] p_n # ff'
        Delta(p_n # f)      = sum_{ab = n} (p_a # f) (x) (p_b # f)
        S(p_n # f)          = p_{act(f^-1, n^-1)} # f^-1

    kG is the case N = 1, k^G the case F = 1, and D(G) the case N = F = G
    with F acting by conjugation.
    """
    nf = F.order
    mult, comult, antipode = {}, {}, {}
    for n in range(N.order):
        for f in range(nf):
            i = n * nf + f
            finv = F.inverse(f)
            m = act(finv, n)
            mult[i] = {m * nf + f2: ((n * nf + F.mul(f, f2), 1),) for f2 in range(nf)}
            comult[i] = tuple(((a * nf + f, N.mul(N.inverse(a), n) * nf + f), 1)
                              for a in range(N.order))
            antipode[i] = ((act(finv, N.inverse(n)) * nf + finv, 1),)
    return dict(dim=N.order * nf, mult=mult, comult=comult, antipode=antipode,
                unit={n * nf + F.identity: 1 for n in range(N.order)},
                counit={N.identity * nf + f: 1 for f in range(nf)})


def build_group_algebra(G: FiniteGroup, seed: int = 0):
    """kG = k^1 # kG with grouplike basis, plus IrredData from the first
    Dixon character table that ``_group_irred`` certifies."""
    H = HopfAlgebra(
        **_smash_tables(cyclic_group(1), G, lambda f, m: m),
        cyc_order=G.exponent(),
        labels=G.labels,
        kind="group",
        group=G,
    )
    H.irred = dixon_character_table(G, seed, lambda table: _group_irred(H, *table))
    return H, H.irred


def _group_irred(H: HopfAlgebra, degrees, values) -> IrredData:
    """The IrredData of kG with the proposed rows ``values`` (a value per
    class of ``H.group.conjugacy_data()``) as its characters, in the order
    of ``_sorted_irred`` at the class representatives, once ``_verify_irred``
    certifies them: the certificate of a character table."""
    conj = H.group.conjugacy_data()
    cls = conj.class_of
    return _verify_irred(H, _sorted_irred(H, _with_idempotents(H, [
        (d, {g: row[cls[g]] for g in range(H.dim) if row[cls[g]]})
        for d, row in zip(degrees, values)]), conj.reps))


def character_table(G: FiniteGroup, seed: int = 0) -> CharacterTable:
    """The character table of G, read off the certified irreducibles of kG
    at the class representatives, in their order (``_sorted_irred``)."""
    irred = build_group_algebra(G, seed)[1]
    conj = G.conjugacy_data()
    return CharacterTable(
        G.name, conj, tuple(G.labels[r] for r in conj.reps), irred.degrees,
        tuple(tuple(chi.vec.get(r, _ZERO) for r in conj.reps) for chi in irred.characters))


def build_dual_group_algebra(G: FiniteGroup):
    """k^G = k^G # k1: projections p_g with pointwise product; all degrees 1."""
    n = G.order
    H = HopfAlgebra(
        **_smash_tables(G, cyclic_group(1), lambda f, m: m),
        cyc_order=1,
        labels=tuple(f"p_{lbl}" for lbl in G.labels),
        kind="dualgroup",
        group=G,
    )
    # chi_g = evaluation at g, so E_g = p_g; trivial (= eps) is g = identity.
    order = [G.identity] + [g for g in range(n) if g != G.identity]
    H.irred = _verify_irred(H, _with_idempotents(H, [(1, {g: _ONE}) for g in order]))
    return H, H.irred


def build_drinfeld_double(G: FiniteGroup, seed: int = 0):
    """D(G) = k^G # kG, G acting on itself by conjugation, on the basis
    {p_g (x) h} indexed g*|G| + h, with the canonical R-matrix; IrredData
    from the centralizer construction, verified exactly.
    """
    n = G.order
    r_matrix = {(g * n + G.identity, gp * n + g): _ONE
                for g in range(n) for gp in range(n)}
    labels = tuple(
        f"p_{G.labels[g]}*{G.labels[h]}" for g in range(n) for h in range(n))
    H = HopfAlgebra(
        **_smash_tables(G, G, lambda f, m: G.conj(m, f)),
        cyc_order=G.exponent(),
        r_matrix=r_matrix,
        labels=labels,
        kind="double",
        group=G,
    )
    H.irred = _double_irreducibles(G, H, seed)
    return H, H.irred


def _double_irreducibles(G: FiniteGroup, H: HopfAlgebra, seed: int) -> IrredData:
    """Irreducibles of D(G): one per (conjugacy class C, irreducible of the
    centralizer of a representative); characters are assembled from the
    centralizer tables, idempotents realised via E = d * (Lambda <- s(chi)).
    A centralizer table has no certificate of its own: ``_verify_irred`` on
    the assembled data decides, and the D(G) character built from a row chi
    of the table of C_G(g) takes the value chi(h) at p_g # h, h in C_G(g), so
    a right D(G) table makes every centralizer row right."""
    n = G.order
    conj = G.conjugacy_data()
    entries = []
    for ci in range(conj.n_classes):
        rep = conj.reps[ci]
        members = conj.elements[ci]
        K, parent = G.subgroup(G.centralizer(rep))
        parent_index = {p: i for i, p in enumerate(parent)}
        kdegrees, kvalues = dixon_character_table(K, seed, lambda table: table)
        kcls = K.conjugacy_data().class_of
        # every row's support: (p_g # h, class of k_g^-1 h k_g in K), h in C_G(g),
        # with the coset representative k_g rep k_g^-1 = g
        support = []
        for g in members:
            kg = next(x for x in range(n) if G.conj(rep, x) == g)
            for h in G.centralizer(g):
                u = G.mul(G.mul(G.inverse(kg), h), kg)
                support.append((g * n + h, kcls[parent_index[u]]))
        for kdeg, krow in zip(kdegrees, kvalues):
            entries.append((len(members) * kdeg,
                            {i: krow[c] for i, c in support if krow[c]}))
    return _verify_irred(H, _sorted_irred(H, _with_idempotents(H, entries)))


def _with_idempotents(H: HopfAlgebra, entries) -> list:
    """(E, degree, character) triples for (degree, character) pairs, with the
    central idempotent E = d (Lambda <- s(chi)) of each irreducible character;
    the one formula that kG, k^G and D(G) make their E_i by."""
    integral, _ = integrals(H)
    return [(vec_scale(H.right_hit_raw(integral.vec, H.func_antipode_raw(chi)),
                       CycNum.rational(deg)), deg, chi)
            for deg, chi in entries]


# ---------------------------------------------------------------------------
# JSON round trip


def _coeff_to_json(c: CycNum):
    q = c.as_rational()
    if q is not None:
        return _rational_str(q)
    return c.to_dict()


def _vec_to_json(vec: Vec) -> list:
    """A sparse vector as the dumped list [[i, c], ...], sorted by index."""
    return [[i, _coeff_to_json(c)] for i, c in sorted(vec.items())]


def _coeff_in(field: str, x, cyc_order: int) -> CycNum:
    """A dumped coefficient of ``field`` as ``_coeff_to_json`` writes it: a
    string, or an {order, coeffs} dict of strings whose integer order divides
    cyc_order, so that the value lies in Q(zeta_cyc_order), where every
    modular step of the package looks for it; else ValueError.  The order is
    checked before the value is built, whose tables grow as order * phi(order)."""
    if type(x) is str:
        return CycNum.rational(Fraction(x))
    if (type(x) is not dict or x.keys() != {"order", "coeffs"} or type(x["coeffs"]) is not list
            or any(type(s) is not str for s in x["coeffs"])):
        raise ValueError(f"coefficient {x!r} is not a string or an {{order, coeffs}} dict")
    order = _json_positive("coefficient order", x["order"])
    if cyc_order % order:
        raise ValueError(f"{field} holds a coefficient of order {order}, "
                         f"which does not divide cyc_order {cyc_order}")
    return CycNum.from_dict(x)


def _json_int(name: str, x) -> int:
    """x, which must be a JSON integer: a float, a string or a bool (which
    Python's ``int`` and ``in range`` both accept) raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"{name} {x!r} is not an integer")
    return x


def _json_positive(name: str, x) -> int:
    """x, which must be a JSON integer >= 1."""
    if _json_int(name, x) < 1:
        raise ValueError(f"{name} {x} < 1")
    return x


def _json_index(x, dim: int) -> int:
    """x, which must be an integer basis index in range(dim)."""
    if type(x) is not int or not 0 <= x < dim:
        raise ValueError(f"index {x!r} outside range({dim})")
    return x


def _sparse_from_json(field: str, entries, arity: int, dim: int,
                      cyc_order: int) -> dict:
    """{key: c} from the dumped list [[k_1, ..., k_arity, c], ...] of
    ``field``.  Each k must be an integer in range(dim), each key must occur
    once (a dict would drop a repeat, a sum would add it) and each c must
    lie in Q(zeta_cyc_order); anything else raises ValueError."""
    out: dict = {}
    for entry in entries:
        if type(entry) is not list or len(entry) != arity + 1:
            raise ValueError(f"{field} entry {entry!r} is not a list of "
                             f"{arity} indices and a coefficient")
        key = tuple(_json_index(x, dim) for x in entry[:arity])
        if key in out:
            raise ValueError(f"{field} repeats the key {list(key)}")
        out[key] = _coeff_in(field, entry[arity], cyc_order)
    return out


def _vec_from_json(H: HopfAlgebra, field: str, entries) -> Vec:
    """A dumped sparse vector [[i, c], ...] of H, read by ``_sparse_from_json``."""
    return {i: c for (i,), c in
            _sparse_from_json(field, entries, 1, H.dim, H.cyc_order).items()}


def hopf_to_dict(H: HopfAlgebra) -> dict:
    mult = [[i, j, k, _coeff_to_json(c)] for i, row in sorted(H.mult.items())
            for j, terms in sorted(row.items()) for k, c in terms]
    comult = [[i, j, k, _coeff_to_json(c)]
              for i in sorted(H.comult) for (j, k), c in H.comult[i]]
    antipode = [[i, j, _coeff_to_json(c)]
                for i in sorted(H.antipode) for j, c in H.antipode[i]]
    out = {
        "schema": SCHEMA,
        "dim": H.dim,
        "cyc_order": H.cyc_order,
        "kind": H.kind,
        "labels": list(H.labels),
        "mult": mult,
        "comult": comult,
        "unit": _vec_to_json(H.unit_vec),
        "counit": _vec_to_json(H.counit_vec),
        "antipode": antipode,
    }
    if H.r_matrix is not None:
        out["r_matrix"] = [[i, j, _coeff_to_json(c)]
                           for (i, j), c in sorted(H.r_matrix.items())]
    return out


def hopf_from_dict(data: dict) -> HopfAlgebra:
    """Rebuild an algebra from its JSON dump; runs the full axiom verifier.

    Every basis index must be an integer in range(dim): an entry outside
    the basis would never be read by the verifier, so it raises ValueError.
    So do a dim or cyc_order that is not an integer, a key repeated within
    a field, a kind that is not a string, labels that are not a list of dim
    strings, a coefficient written at an order that does not divide
    cyc_order, a zero denominator and a missing or misshapen field."""
    try:
        dim = _json_int("dim", data["dim"])
        cyc_order = _json_positive("cyc_order", data.get("cyc_order", 1))

        def read(field, arity):
            return _sparse_from_json(field, data[field], arity, dim, cyc_order)

        mult: dict = {}
        for (i, j, k), c in read("mult", 3).items():
            mult.setdefault(i, {}).setdefault(j, []).append((k, c))
        comult: dict = {}
        for (i, j, k), c in read("comult", 3).items():
            comult.setdefault(i, []).append(((j, k), c))
        antipode: dict = {}
        for (i, j), c in read("antipode", 2).items():
            antipode.setdefault(i, []).append((j, c))
        unit = {i: c for (i,), c in read("unit", 1).items()}
        counit = {i: c for (i,), c in read("counit", 1).items()}
        r_matrix = read("r_matrix", 2) if "r_matrix" in data else None
        labels = data.get("labels")
        if labels is not None and (type(labels) is not list
                                   or [type(x) for x in labels] != [str] * dim):
            raise ValueError(f"labels must be a list of {dim} strings")
        kind = data.get("kind", "custom")
        if type(kind) is not str:
            raise ValueError(f"kind {kind!r} is not a string")
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed hopf dump: {exc}") from exc
    return HopfAlgebra(
        dim=dim,
        mult=mult,
        comult={k: tuple(v) for k, v in comult.items()},
        unit=unit,
        counit=counit,
        antipode={k: tuple(v) for k, v in antipode.items()},
        cyc_order=cyc_order,
        r_matrix=r_matrix,
        labels=labels,
        kind=kind,
    )


def irred_to_dict(irred: IrredData) -> dict:
    return {
        "degrees": list(irred.degrees),
        "idempotents": [_vec_to_json(e.vec) for e in irred.idempotents],
        "characters": [_vec_to_json(f.vec) for f in irred.characters],
    }


def irred_from_dict(H: HopfAlgebra, data: dict) -> IrredData:
    """Rebuild the irreducible data of H from its JSON dump and verify it.

    A section that lacks a key, or holds a value of the wrong shape, lists
    of different lengths, a degree that is not a positive integer, a
    vector that ``_vec_from_json`` refuses, or a zero denominator, raises
    ValueError."""
    try:
        degrees = [_json_positive("degree", x) for x in data["degrees"]]
        idems = [_vec_from_json(H, "irred.idempotents", e) for e in data["idempotents"]]
        chars = [_vec_from_json(H, "irred.characters", e) for e in data["characters"]]
        if not len(degrees) == len(idems) == len(chars):
            raise ValueError("degrees, idempotents and characters differ in length")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed irred section: {exc}") from exc
    return _verify_irred(H, list(zip(idems, degrees, chars)))
