"""Finite-dimensional Hopf algebras over cyclotomic fields.

An algebra is given by exact sparse structure constants (multiplication,
comultiplication, unit, counit, antipode, optional R-matrix) with CycNum
coefficients.  Every construction path runs the full axiom verifier; the
three built-in instances are the group algebra kG, its dual k^G, and the
Drinfeld double D(G).

Checks whose passing set is closed under products run on a generating set
(Light's test; Clifford & Preston, The Algebraic Theory of Semigroups I).
The b with (ab)c = a(bc) for all a, c are closed under products even when
the table is not associative.  Once H is associative, so are the b with
Delta(ab) = Delta(a)Delta(b), with eps(ab) = eps(a)eps(b), with bv = vb
for a fixed v, and with b x = eps(b) x or x b = eps(b) x for a fixed x.
Checking such a property on each element of a set that generates H as an
algebra therefore proves it on all of H, exactly.  ``generators`` finds
that set and verifies that it generates.  Associativity runs on it, and
the two algebra-map axioms do once associativity holds.  Centrality
(``_central_failure``), the integral equations, the center, the
multiplicativity of grouplike functionals, the trace property of a form
(``_trace_form_failure``) and the Casimir slide moves
(``_casimir_slide_failure``) run on ``_closed_basis``: the generators when
every axiom holds, the whole basis otherwise; so do
``commutator.is_adjoint_stable`` and the check R Delta = Delta^op R of
``classdata.r_matrix_data``.  Every check finds its first failing witness
through the one search ``_first_failure``.  Idempotent families (the E_i, the
F_i of R(H), the candidates of ``split_commutative``) are checked by their
squares and sum alone; ``_check_idempotents`` proves them orthogonal.

Elements of H and functionals on H are thin wrappers (HElem / HFunc)
around sparse coefficient dicts; the module-level operations (mult,
comult, hit actions, adjoint action, integrals, the Frobenius map and
its inverse, central primitive idempotents with characters) realize the
standard semisimple structure theory, with all derived data re-verified
exactly before it is returned.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import runlog
from ._linalg import Echelon, Solver, nullspace, vec_axpy, vec_scale
from ._modp import (
    common_eigenvectors,
    element_of_order,
    lift_root,
    lll_reduce,
    next_prime_in_ap,
    solve as solve_mod,
)
from .chartab import dixon_character_table, group_central_idempotents
from .errors import (
    BadPrime,
    DenominatorCollision,
    DimMismatch,
    NoIntegral,
    NonIntegerDegree,
    VerificationFailed,
)
from .exactnum import CycNum, Rational, _rational_str, cyclotomic_poly, euler_phi
from .group import FiniteGroup

Vec = dict  # {basis index: nonzero CycNum}
Tensor = dict  # {(i, j): nonzero CycNum}

_ZERO = CycNum.rational(0)
_ONE = CycNum.rational(1)


def _cy(x) -> CycNum:
    if isinstance(x, CycNum):
        return x
    return CycNum.rational(x)


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

    mult[(i, j)]   = ((k, c), ...)        e_i e_j   = sum c e_k
    comult[i]      = (((j, k), c), ...)   Delta e_i = sum c e_j (x) e_k
    antipode[i]    = ((j, c), ...)        S e_i     = sum c e_j
    unit, counit   = sparse vectors

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
        self.mult = {
            key: tuple((k, _cy(c)) for k, c in terms if _cy(c))
            for key, terms in mult.items()
        }
        self.mult = {key: terms for key, terms in self.mult.items() if terms}
        self.comult = {
            i: tuple((jk, _cy(c)) for jk, c in terms if _cy(c))
            for i, terms in comult.items()
        }
        self.antipode = {
            i: tuple((j, _cy(c)) for j, c in terms if _cy(c))
            for i, terms in antipode.items()
        }
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
        out: Vec = {}
        mult = self.mult
        for i, cu in u.items():
            for j, cv in v.items():
                terms = mult.get((i, j))
                if terms:
                    vec_axpy(out, cu * cv, terms)
        return out

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
        # h <- p = sum <p, h_1> h_2
        out: Vec = {}
        for i, ci in h.items():
            vec_axpy(out, ci, [(k, c * pj) for (j, k), c in self.comult.get(i, ())
                               if (pj := p.get(j)) is not None])
        return out

    def left_hit_raw(self, p: Vec, h: Vec) -> Vec:
        # p -> h = sum h_1 <p, h_2>
        out: Vec = {}
        for i, ci in h.items():
            vec_axpy(out, ci, [(j, c * pk) for (j, k), c in self.comult.get(i, ())
                               if (pk := p.get(k)) is not None])
        return out

    def func_right_hit_raw(self, p: Vec, a: Vec) -> Vec:
        # <p <- a, a'> = <p, a a'>: the right hit of H* on its dual H
        return _dual(self).right_hit_raw(p, a)

    def func_left_hit_raw(self, a: Vec, p: Vec) -> Vec:
        # <a -> p, a'> = <p, a' a>
        return _dual(self).left_hit_raw(a, p)

    def adjoint_raw(self, h: Vec, a: Vec) -> Vec:
        # h .ad a = sum h_1 a S(h_2)
        out: Vec = {}
        for i, ci in h.items():
            for (j, k), c in self.comult.get(i, ()):
                left = self.mul_raw({j: _ONE}, a)
                term = self.mul_raw(left, dict(self.antipode.get(k, ())))
                vec_axpy(out, ci * c, term.items())
        return out

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
        acc = self._unit()
        for _ in range(n):
            acc = acc * self
        return acc

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

    def coeff(self, i: int) -> CycNum:
        return self.vec.get(i, _ZERO)

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

    return HopfAlgebra(dim=H.dim, mult=transpose(H.comult), comult=transpose(H.mult),
                       unit=H.counit_vec, counit=H.unit_vec,
                       antipode=transpose(H.antipode), cyc_order=H.cyc_order,
                       kind="dual", check=False)


def _combination(coeffs, elems) -> Vec:
    """sum coeffs[i] * elems[i] for HElems or HFuncs, as a vector; a
    coefficient may be an int, a Fraction or a CycNum."""
    out: Vec = {}
    for c, x in zip(coeffs, elems):
        vec_axpy(out, _cy(c), x.vec.items())
    return out


def _check_idempotents(name: str, vecs, mul, unit: Vec, unit_name: str):
    """Raise VerificationFailed unless ``vecs`` (name_0, name_1, ...) are
    idempotents under ``mul`` that sum to ``unit``; one product per vector.

    They are then orthogonal if ``mul`` is associative with two-sided unit
    ``unit`` in characteristic 0, as ``_verify_irred`` and ``_verify_classdata``
    (which every split result reaches) require first: the L_i = L_{e_i} are
    idempotent operators summing to the identity, so their traces are ranks
    summing to dim and their images form a direct sum; for i != j, L_i kills
    im L_j, and e_i e_j = L_i L_j 1 = 0."""
    total: Vec = {}
    for i, u in enumerate(vecs):
        if mul(u, u) != u:
            raise VerificationFailed(f"{name}_{i}{name}_{i} != {name}_{i}")
        vec_axpy(total, _ONE, u.items())
    if total != unit:
        raise VerificationFailed(f"the {name}_i do not sum to {unit_name}")


def _central_failure(H: HopfAlgebra, v: Vec):
    """The first index k of ``_closed_basis(H)`` with e_k v != v e_k; None
    when v is central."""
    return _first_failure((k, H.mul_raw({k: _ONE}, v) == H.mul_raw(v, {k: _ONE}))
                          for k in _closed_basis(H))


# ---------------------------------------------------------------------------
# module-level operations (the public algebra/coalgebra surface)


def mult(a: HElem, b: HElem) -> HElem:
    _same(a, b)
    return a * b


def comult(a: HElem) -> Tensor:
    return a.H.comult_raw(a.vec)


def antipode(a: HElem) -> HElem:
    return HElem(a.H, a.H.antipode_raw(a.vec))


def counit(a: HElem) -> CycNum:
    return a.H.counit_raw(a.vec)


def func_mult(p: HFunc, q: HFunc) -> HFunc:
    _same(p, q)
    return p * q


def func_antipode_s(p: HFunc) -> HFunc:
    return HFunc(p.H, p.H.func_antipode_raw(p.vec))


def pair(p: HFunc, a: HElem) -> CycNum:
    return p(a)


def left_hit(p: HFunc, h: HElem) -> HElem:
    _same(p, h)
    return HElem(h.H, h.H.left_hit_raw(p.vec, h.vec))


def right_hit(h: HElem, p: HFunc) -> HElem:
    _same(h, p)
    return HElem(h.H, h.H.right_hit_raw(h.vec, p.vec))


def func_left_hit(a: HElem, p: HFunc) -> HFunc:
    _same(a, p)
    return HFunc(p.H, p.H.func_left_hit_raw(a.vec, p.vec))


def func_right_hit(p: HFunc, a: HElem) -> HFunc:
    _same(p, a)
    return HFunc(p.H, p.H.func_right_hit_raw(p.vec, a.vec))


def adjoint(h: HElem, a: HElem) -> HElem:
    _same(h, a)
    return HElem(h.H, h.H.adjoint_raw(h.vec, a.vec))


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
    mult = H.mult
    for (a, b), cs in s.items():
        for (c, d), ct in t.items():
            left = mult.get((a, c))
            if not left:
                continue
            right = mult.get((b, d))
            if not right:
                continue
            vec_axpy(out, cs * ct, [((k1, k2), c1 * c2)
                                    for k1, c1 in left for k2, c2 in right])
    return out


def tensor_flatten(H: HopfAlgebra, t: Tensor) -> Vec:
    """Apply multiplication: sum t[(i,j)] e_i e_j."""
    out: Vec = {}
    for ij, c in t.items():
        vec_axpy(out, c, H.mult.get(ij, ()))
    return out


def _tensor_sandwich(H: HopfAlgebra, t: Tensor, h: Vec) -> Vec:
    """sum t[(i,j)] e_i h e_j."""
    out: Vec = {}
    for (i, j), c in t.items():
        vec_axpy(out, c, H.mul_raw(H.mul_raw({i: _ONE}, h), {j: _ONE}).items())
    return out


def tensor_antipode_right(H: HopfAlgebra, t: Tensor) -> Tensor:
    out: Tensor = {}
    for (i, j), c in t.items():
        vec_axpy(out, c, [((i, k), ck) for k, ck in H.antipode.get(j, ())])
    return out


def tensor_swap(t: Tensor) -> Tensor:
    return {(j, i): c for (i, j), c in t.items()}


def tensor_pair_first(p: HFunc, t: Tensor) -> Vec:
    """(p (x) id)(t) as a vector."""
    out: Vec = {}
    for (i, j), c in t.items():
        pi = p.vec.get(i)
        if pi is not None:
            vec_axpy(out, pi, ((j, c),))
    return out


def _u_tensor(H: HopfAlgebra, vec: Vec) -> Tensor:
    """U(a) = sum a_1 (x) S(a_2) in H (x) H."""
    return tensor_antipode_right(H, H.comult_raw(vec))


def casimir_tensor(H: HopfAlgebra) -> Tensor:
    """U(Lambda) = sum Lambda_1 (x) S(Lambda_2), the Casimir tensor of the form
    beta(h, h') = <lambda, h h'>."""
    lam, _ = integrals(H)
    return _u_tensor(H, lam.vec)


# ---------------------------------------------------------------------------
# axiom verification


def _entry(report, name, ok, witness=None):
    """Append one pass/fail suite entry; a failure carries its witness."""
    item = {"check": name, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        item["witness"] = witness
    report.append(item)


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


@memo
def generators(H: HopfAlgebra) -> tuple[int, ...]:
    """Basis indices that generate H as an algebra, chosen greedily.

    Each e_i (in index order) outside the span found so far becomes a
    generator, and the span is closed under right multiplication by the
    generators: it is spanned by left-normed words (..(g_1 g_2)..) g_k,
    which are products of generators for any table, associative or not,
    and by the unit once the unit law holds.  The loop ends when the span
    has rank dim; at worst every basis element is a generator.
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
        if not add({i: _ONE}):
            continue
        gens.append(i)
        t = 0
        while t < len(words) and span.rank < d:
            for g in gens[done[t]:]:
                add(H.mul_raw(words[t], {g: _ONE}))
            done[t] = len(gens)
            t += 1
    return tuple(gens)


def _axiom_failure(H: HopfAlgebra):
    """The first failing entry of H's memoized axiom report, or None."""
    return next((e for e in verify_hopf_axioms(H) if e["status"] == "fail"), None)


def _require_axioms(H: HopfAlgebra):
    if (bad := _axiom_failure(H)) is not None:
        raise VerificationFailed(f"Hopf axiom '{bad['check']}' fails at {bad['witness']}")


def _closed_basis(H: HopfAlgebra):
    """The basis indices a product-closed check of H runs on: generators(H)
    when every Hopf axiom holds, so that the closure lemma of the module
    docstring applies; else the whole basis."""
    if _axiom_failure(H) is None:
        return generators(H)
    return range(H.dim)


@memo
def verify_hopf_axioms(H: HopfAlgebra) -> list[dict]:
    """Exact verification of all Hopf axioms; returns a report with one
    entry per axiom, failures carrying a basis-index witness.

    Associativity is checked on the triples (a, g, c) with g in
    generators(H).  Once it holds, the algebra-map axioms are checked on
    the pairs (i, g); they are checked on all pairs (i, j) when it fails.
    Every other axiom is linear and is checked on each basis element."""
    d = H.dim
    report: list[dict] = []
    basis = [H.basis_vec(i) for i in range(d)]
    gens = generators(H)

    def assoc():
        for g in gens:
            gc = [H.mul_raw(basis[g], basis[c]) for c in range(d)]
            for a in range(d):
                ag = H.mul_raw(basis[a], basis[g])
                for c in range(d):
                    yield (a, g, c), H.mul_raw(ag, basis[c]) == H.mul_raw(basis[a], gc[c])

    _check_all("associativity", assoc(), report)
    closed = gens if report[-1]["status"] == "pass" else range(d)
    k = _unit_failure(H)
    _entry(report, "unit", k is None, k)

    def coassoc():
        for i in range(d):
            left: dict = {}
            right: dict = {}
            for (j, k), c in H.comult.get(i, ()):
                vec_axpy(left, c, [((a, b, k), c2) for (a, b), c2 in H.comult.get(j, ())])
                vec_axpy(right, c, [((j, a, b), c2) for (a, b), c2 in H.comult.get(k, ())])
            yield i, left == right

    _check_all("coassociativity", coassoc(), report)

    def counit_law():
        eps = H.counit_vec
        for i in range(d):
            lhs: Vec = {}
            rhs: Vec = {}
            for (j, k), c in H.comult.get(i, ()):
                if j in eps:
                    vec_axpy(lhs, c, ((k, eps[j]),))
                if k in eps:
                    vec_axpy(rhs, c, ((j, eps[k]),))
            yield i, lhs == basis[i] == rhs

    _check_all("counit", counit_law(), report)

    def comult_map():
        yield "unit", H.comult_raw(H.unit_vec) == tensor_of(H.one(), H.one())
        dj = {j: H.comult_raw(basis[j]) for j in closed}
        for i in range(d):
            di = H.comult_raw(basis[i])
            for j in closed:
                lhs = H.comult_raw(H.mul_raw(basis[i], basis[j]))
                yield (i, j), lhs == tensor_mult(H, di, dj[j])

    _check_all("comult_algebra_map", comult_map(), report)

    def counit_map():
        yield "unit", H.counit_raw(H.unit_vec) == _ONE
        for i in range(d):
            ei = H.counit_raw(basis[i])
            for j in closed:
                lhs = H.counit_raw(H.mul_raw(basis[i], basis[j]))
                yield (i, j), lhs == ei * H.counit_raw(basis[j])

    _check_all("counit_algebra_map", counit_map(), report)

    def antipode_axiom():
        for i in range(d):
            lhs: Vec = {}
            rhs: Vec = {}
            for (j, k), c in H.comult.get(i, ()):
                vec_axpy(lhs, c, H.mul_raw(H.antipode_raw(basis[j]), basis[k]).items())
                vec_axpy(rhs, c, H.mul_raw(basis[j], H.antipode_raw(basis[k])).items())
            want = vec_scale(H.unit_vec, H.counit_raw(basis[i]))
            yield i, lhs == want == rhs

    _check_all("antipode", antipode_axiom(), report)

    def s_squared():
        for i in range(d):
            yield i, H.antipode_raw(H.antipode_raw(basis[i])) == basis[i]

    _check_all("antipode_involutive", s_squared(), report)
    return report


# ---------------------------------------------------------------------------
# integrals and the Frobenius map


@memo
def integrals(H: HopfAlgebra) -> tuple[HElem, HFunc]:
    """(Lambda, lambda): the idempotent integral and the dual integral.

    Lambda is the one-dimensional solution space of h*Lambda = eps(h)*Lambda,
    normalised by eps(Lambda) = 1; lambda is the regular character
    (trace of left multiplication), which satisfies <lambda, Lambda> = 1.
    Both integral equations are imposed for h in ``_closed_basis(H)``.
    """
    d = H.dim
    rows = _closed_basis(H)

    def left_mult_minus_counit(i):
        # columns of h -> e_i h - eps(e_i) h
        eps_i = H.counit_raw({i: _ONE})
        for j in range(d):
            col = H.mul_raw({i: _ONE}, {j: _ONE})
            vec_axpy(col, -eps_i, ((j, _ONE),))
            yield col

    space = nullspace((left_mult_minus_counit(i) for i in rows), d, _ONE)
    if len(space) != 1:
        raise NoIntegral(
            f"integral space has dimension {len(space)} (expected 1)")
    cand = space[0]
    scale = H.counit_raw(cand)
    if not scale:
        raise NoIntegral("integral candidate has vanishing counit")
    lam_vec = vec_scale(cand, scale.inverse())  # so Lambda^2 = eps(Lambda) Lambda = Lambda
    for i in rows:
        want = vec_scale(lam_vec, H.counit_raw(H.basis_vec(i)))
        if H.mul_raw(lam_vec, H.basis_vec(i)) != want:
            raise NoIntegral(f"integral is not two-sided (basis {i})")
    # regular character: <lambda, e_i> = Tr(L_{e_i})
    lam_func: Vec = {}
    for i in range(d):
        acc = _ZERO
        for j in range(d):
            for k, c in H.mult.get((i, j), ()):
                if k == j:
                    acc = acc + c
        if acc:
            lam_func[i] = acc
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


@dataclass(frozen=True)
class IrredData:
    """Central primitive idempotents E_i, degrees d_i, characters chi_i;
    index 0 is the trivial representation (E_0 = Lambda, chi_0 = eps)."""

    idempotents: tuple
    degrees: tuple
    characters: tuple

    def __len__(self):
        return len(self.degrees)


def _verify_irred(H: HopfAlgebra, idems, degrees, chars) -> IrredData:
    """The IrredData of these tuples, once every invariant holds exactly."""
    _require_axioms(H)  # the precondition of _check_idempotents
    n = len(idems)
    if sum(x * x for x in degrees) != H.dim:
        raise VerificationFailed("sum of squared degrees != dim")
    for i in range(n):
        k = _central_failure(H, idems[i].vec)
        if k is not None:
            raise VerificationFailed(f"E_{i} is not central (basis {k})")
    _check_idempotents("E", [e.vec for e in idems], H.mul_raw, H.unit_vec, "1")
    pairs = [(i, j) for i in range(n) for j in range(n)]
    bad = _first_failure(((i, j), chars[i](idems[j]) == (degrees[j] if i == j else 0))
                         for i, j in pairs)
    if bad is not None:
        raise VerificationFailed("<chi_{0}, E_{1}> != delta_{0}{1} d_{1}".format(*bad))
    integral, _ = integrals(H)
    bad = _first_failure(((i, j), (chars[i] * func_antipode_s(chars[j]))(integral)
                          == (1 if i == j else 0)) for i, j in pairs)
    if bad is not None:
        raise VerificationFailed("<chi_{0} s(chi_{1}), Lambda> != delta_{0}{1}".format(*bad))
    if idems[0] != integral:
        raise VerificationFailed("E_0 != Lambda")
    if chars[0] != H.eps():
        raise VerificationFailed("chi_0 != eps")
    return IrredData(idempotents=idems, degrees=degrees, characters=chars)


def split_commutative(span: list[Vec], mul, unit: Vec, cyc_order, rng) -> list[Vec]:
    """Primitive idempotents of the commutative semisimple algebra spanned
    by the independent vectors ``span``, closed under ``mul`` with unit
    ``unit``.

    The algebra is split in the coordinates of ``span``: idempotents are
    found over F_p (p = 1 mod cyc_order), Hensel-lifted to p^k, recognised
    in Q(zeta_cyc_order) by lattice reduction, and verified exactly;
    retries move to new primes/precisions.
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
        return [vector(coords(unit))]
    struct = [[coords(mul(u, v)) for v in span] for u in span]
    N = max(cyc_order, 1)
    phi = euler_phi(N)
    cpoly = list(cyclotomic_poly(N))
    p = next_prime_in_ap(max(2 * dim, 16, N), N)
    last_error = None
    for attempt in range(5):
        k = 24 if attempt % 2 == 0 else 48
        try:
            result = _split_attempt(struct, dim, N, phi, cpoly, p, k, rng)
            if result is not None:
                idems = [vector(xs) for xs in result]
                try:
                    _check_idempotents("e", idems, mul, unit, "the unit")
                except VerificationFailed:
                    result = None
            if result is not None:
                runlog.record("split_commutative", dim=dim, prime=p,
                              precision=k, outcome="ok")
                return idems
            last_error = VerificationFailed(f"p={p}, k={k}: reconstruction failed")
            runlog.record("split_commutative", dim=dim, prime=p,
                          precision=k, outcome="reconstruction_failed")
        except (BadPrime, DenominatorCollision, ValueError) as exc:
            last_error = exc
            runlog.record("split_commutative", dim=dim, prime=p,
                          precision=k, outcome=type(exc).__name__)
        if attempt % 2 == 1:
            p = next_prime_in_ap(p, N)
    raise VerificationFailed(
        f"could not split commutative algebra after 5 attempts: {last_error}; "
        f"cyc_order {cyc_order} may be too small for its idempotents")


def _split_attempt(struct, dim, N, phi, cpoly, p, k, rng):
    # Coordinates of candidate idempotents, which the caller verifies; or None.
    w1 = element_of_order(N, p, rng)
    mats = []
    for a in range(dim):
        mat = [[struct[a][b][c].residue(w1, N, p) for b in range(dim)]
               for c in range(dim)]
        mats.append(mat)
    vecs = common_eigenvectors(mats, dim, p, rng)
    if vecs is None:
        return None
    # Characters of the algebra: phi_t(z_a) = eigenvalue of M_a on v_t.
    chars = []
    for v in vecs:
        pivot = next(j for j in range(dim) if v[j] % p)
        inv = pow(v[pivot], -1, p)
        row = []
        for a in range(dim):
            img = sum(mats[a][pivot][b] * v[b] for b in range(dim)) % p
            row.append(img * inv % p)
        chars.append(row)
    idems_mod_p = []
    for t in range(dim):
        rhs = [1 if s == t else 0 for s in range(dim)]
        x = solve_mod(chars, rhs, p)
        if x is None:
            return None
        idems_mod_p.append(x)
    # Hensel-lift idempotents and the root of unity to mod p^k.
    modulus = p**k
    wk = 1 if N == 1 else lift_root(cpoly, w1, p, k)
    struct_residues = [[[struct[a][b][c].residue(wk, N, modulus)
                         for c in range(dim)] for b in range(dim)]
                       for a in range(dim)]

    def mul_mod(x, y, m):
        out = [0] * dim
        for a in range(dim):
            xa = x[a]
            if not xa:
                continue
            row = struct_residues[a]
            for b in range(dim):
                yb = y[b]
                if not yb:
                    continue
                f = xa * yb
                col = row[b]
                for c in range(dim):
                    if col[c]:
                        out[c] += f * col[c]
        return [v % m for v in out]

    lifted = []
    for e in idems_mod_p:
        prec = 1
        cur = list(e)
        while prec < k:
            prec = min(2 * prec, k)
            m = p**prec
            sq = mul_mod(cur, cur, m)
            cube = mul_mod(sq, cur, m)
            cur = [(3 * a - 2 * b) % m for a, b in zip(sq, cube)]
        lifted.append(cur)
    # Recognise each coordinate in Q(zeta_N) via the lattice of small
    # (a_0..a_{phi-1}, b) with sum a_j w^j = b * residue (mod p^k).
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
        reduced = lll_reduce(rows)
        best = None
        best_norm = None
        for v in reduced:
            if v[-1] == 0:
                continue
            norm = sum(x * x for x in v)
            if best_norm is None or norm < best_norm:
                best, best_norm = v, norm
        if best is None:
            cache[c] = None
            return None
        if best[-1] < 0:
            best = [-x for x in best]
        b = best[-1]
        val = CycNum.rational(Fraction(best[0], b))
        for j in range(1, phi):
            if best[j]:
                val = val + CycNum.rational(Fraction(best[j], b)) * CycNum.zeta(N, j)
        cache[c] = val
        return val

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
    lift-and-verify, degrees come from d_i^2 = Tr(L_{E_i}), characters
    from chi_i(h) = Tr(L_{h E_i}) / d_i.  Everything re-verified exactly.
    """
    d = H.dim

    def commutator_with(i):
        # columns of h -> e_i h - h e_i
        for j in range(d):
            col = H.mul_raw({i: _ONE}, {j: _ONE})
            vec_axpy(col, -_ONE, H.mul_raw({j: _ONE}, {i: _ONE}).items())
            yield col

    center = nullspace((commutator_with(i) for i in _closed_basis(H)), d, _ONE)
    idems = split_commutative(center, H.mul_raw, H.unit_vec, H.cyc_order,
                              random.Random(seed))
    _, lam = integrals(H)
    entries = []
    for evec in idems:
        tr = lam(HElem(H, evec))  # Tr(L_E) = <lambda, E>
        q = tr.as_rational()
        if q is None or q.denominator != 1 or q <= 0:
            raise NonIntegerDegree(f"Tr(L_E) = {tr} is not a positive integer")
        deg = math.isqrt(q.numerator)
        if deg * deg != q.numerator:
            raise NonIntegerDegree(f"Tr(L_E) = {q.numerator} is not a perfect square")
        chi: Vec = {}
        inv_deg = CycNum.rational(Rational(1, deg))
        for j in range(d):
            val = lam(HElem(H, H.mul_raw(H.basis_vec(j), evec)))
            if val:
                chi[j] = val * inv_deg
        entries.append((evec, deg, chi))
    return _ordered_irred(H, entries)


def _ordered_irred(H: HopfAlgebra, entries) -> IrredData:
    """IrredData from (E, degree, character) triples of vectors: the E that
    equals the integral first, the rest by degree and then character values;
    verified exactly before it is returned."""
    integral, _ = integrals(H)
    trivial = [e for e in entries if e[0] == integral.vec]
    if len(trivial) != 1:
        raise VerificationFailed("no idempotent equals the integral")
    rest = sorted((e for e in entries if e[0] != integral.vec), key=lambda e: (
        e[1],
        tuple(e[2].get(j, _ZERO).sort_key() for j in range(H.dim)),
    ))
    ordered = trivial + rest
    idems = tuple(HElem(H, e[0]) for e in ordered)
    degrees = tuple(e[1] for e in ordered)
    chars = tuple(HFunc(H, e[2]) for e in ordered)
    return _verify_irred(H, idems, degrees, chars)


def require_irred(H: HopfAlgebra, seed: int = 0) -> IrredData:
    """The instance's IrredData, computing and caching it if absent."""
    if H.irred is None:
        H.irred = irreducibles_generic(H, seed)
    return H.irred


@memo
def grouplike_functionals(H: HopfAlgebra) -> list[HFunc]:
    """The grouplike elements of H*: exactly the degree-1 irreducible
    characters, each verified multiplicative (on the pairs (i, g), g in
    ``_closed_basis(H)``) with sigma(1) = 1."""
    irred = require_irred(H)
    out = []
    for deg, chi in zip(irred.degrees, irred.characters):
        if deg != 1:
            continue
        if chi(H.one()) != _ONE:
            raise VerificationFailed("grouplike candidate fails at the unit")
        bad = _first_failure(
            ((i, g), _dot(chi.vec, H.mul_raw({i: _ONE}, {g: _ONE}).items())
             == chi.vec.get(i, _ZERO) * chi.vec.get(g, _ZERO))
            for g in _closed_basis(H) for i in range(H.dim))
        if bad is not None:
            raise VerificationFailed(
                f"degree-1 character not multiplicative at ({bad[0]},{bad[1]})")
        out.append(chi)
    return out


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
        return (_dot(t, H.mul_raw({i: _ONE}, {g: _ONE}).items())
                == _dot(t, H.mul_raw({g: _ONE}, {i: _ONE}).items()))

    return _first_failure(((i, g), ok(i, g)) for g in _closed_basis(H) for i in range(H.dim))


def _casimir_slide_failure(H: HopfAlgebra, tensor: Tensor):
    """The first index k of ``_closed_basis(H)`` where a slide move of
    T = sum r (x) l fails: T(e_k (x) 1) = (1 (x) e_k)T or (e_k (x) 1)T =
    T(1 (x) e_k); None when both hold.  The a with T(a (x) 1) = (1 (x) a)T
    form a subalgebra, T(ab (x) 1) = (1 (x) a)T(b (x) 1) = (1 (x) ab)T, and
    so do those with (a (x) 1)T = T(1 (x) a)."""
    def ok(k):
        a = {k: _ONE}
        slid_l: Tensor = {}
        slid_r: Tensor = {}
        moved_l: Tensor = {}
        moved_r: Tensor = {}
        for (i, j), c in tensor.items():
            r, l = {i: _ONE}, {j: _ONE}
            vec_axpy(slid_l, c, [((x, j), cx) for x, cx in H.mul_raw(r, a).items()])
            vec_axpy(slid_r, c, [((i, x), cx) for x, cx in H.mul_raw(a, l).items()])
            vec_axpy(moved_l, c, [((x, j), cx) for x, cx in H.mul_raw(a, r).items()])
            vec_axpy(moved_r, c, [((i, x), cx) for x, cx in H.mul_raw(l, a).items()])
        return slid_l == slid_r and moved_l == moved_r

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
        for k in range(d):
            acc: Vec = {}
            for (i, j), c in cas.items():
                w = _dot(lam.vec, H.mul_raw({k: _ONE}, {i: _ONE}).items())
                if w:
                    vec_axpy(acc, c, ((j, w),))
            yield {"basis": k}, acc == {k: _ONE}

    _check_all("casimir_reproduces_basis", reproduced_basis(), report)

    k = _casimir_slide_failure(H, cas)
    _entry(report, "casimir_slide_moves", k is None, {"basis": k})

    report.sort(key=lambda e: e["check"])
    return report


# ---------------------------------------------------------------------------
# built-in instances


def build_group_algebra(G: FiniteGroup, seed: int = 0):
    """kG with grouplike basis, plus IrredData from the character table."""
    n = G.order
    mult = {(i, j): ((G.table[i][j], 1),) for i in range(n) for j in range(n)}
    comult = {i: (((i, i), 1),) for i in range(n)}
    antipode = {i: ((G.inverse(i), 1),) for i in range(n)}
    H = HopfAlgebra(
        dim=n,
        mult=mult,
        comult=comult,
        unit={G.identity: 1},
        counit={i: 1 for i in range(n)},
        antipode=antipode,
        cyc_order=G.exponent(),
        labels=G.labels,
        kind="group",
        group=G,
    )
    table = dixon_character_table(G, seed)
    idem_vecs = group_central_idempotents(G, table)
    cls = table.classes.class_of
    idems = tuple(
        HElem(H, {g: c for g, c in enumerate(vec) if c}) for vec in idem_vecs)
    chars = tuple(
        HFunc(H, {g: table.values[i][cls[g]] for g in range(n)
                  if table.values[i][cls[g]]})
        for i in range(len(table.degrees)))
    H.irred = _verify_irred(H, idems, tuple(table.degrees), chars)
    return H, H.irred


def build_dual_group_algebra(G: FiniteGroup):
    """k^G: projections p_g with pointwise product; all degrees 1."""
    n = G.order
    mult = {(i, i): ((i, 1),) for i in range(n)}
    comult = {}
    for g in range(n):
        terms = []
        for a in range(n):
            b = G.mul(G.inverse(a), g)
            terms.append(((a, b), 1))
        comult[g] = tuple(terms)
    antipode = {i: ((G.inverse(i), 1),) for i in range(n)}
    H = HopfAlgebra(
        dim=n,
        mult=mult,
        comult=comult,
        unit={i: 1 for i in range(n)},
        counit={G.identity: 1},
        antipode=antipode,
        cyc_order=1,
        labels=tuple(f"p_{lbl}" for lbl in G.labels),
        kind="dualgroup",
        group=G,
    )
    # E_g = p_g; chi_g = evaluation at g; trivial (= eps) is g = identity.
    order = [G.identity] + [g for g in range(n) if g != G.identity]
    idems = tuple(HElem(H, {g: _ONE}) for g in order)
    chars = tuple(HFunc(H, {g: _ONE}) for g in order)
    H.irred = _verify_irred(H, idems, (1,) * n, chars)
    return H, H.irred


def build_drinfeld_double(G: FiniteGroup, seed: int = 0):
    """D(G) on the basis {p_g (x) h}, indexed g*|G| + h, with the canonical
    R-matrix; IrredData from the centralizer construction, verified exactly.
    """
    n = G.order
    dim = n * n
    mult = {}
    for g in range(n):
        for h in range(n):
            i = g * n + h
            for h2 in range(n):
                # (p_g (x) h)(p_g' (x) h') = [g' = h^-1 g h] p_g (x) h h'
                gp = G.conj(g, G.inverse(h))
                mult[(i, gp * n + h2)] = ((g * n + G.mul(h, h2), 1),)
    comult = {}
    for g in range(n):
        for h in range(n):
            terms = []
            for a in range(n):
                b = G.mul(G.inverse(a), g)
                terms.append(((a * n + h, b * n + h), 1))
            comult[g * n + h] = tuple(terms)
    antipode = {}
    for g in range(n):
        for h in range(n):
            hinv = G.inverse(h)
            tg = G.conj(G.inverse(g), hinv)
            antipode[g * n + h] = ((tg * n + hinv, 1),)
    unit = {g * n + G.identity: 1 for g in range(n)}
    counit = {G.identity * n + h: 1 for h in range(n)}
    r_matrix = {}
    for g in range(n):
        for gp in range(n):
            r_matrix[(g * n + G.identity, gp * n + g)] = _ONE
    labels = tuple(
        f"p_{G.labels[g]}*{G.labels[h]}" for g in range(n) for h in range(n))
    H = HopfAlgebra(
        dim=dim,
        mult=mult,
        comult=comult,
        unit=unit,
        counit=counit,
        antipode=antipode,
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
    centralizer tables, idempotents realised via E = d * (Lambda <- s(chi))
    and then verified against all IrredData invariants."""
    n = G.order
    conj = G.conjugacy_data()
    entries = []
    for ci in range(conj.n_classes):
        rep = conj.reps[ci]
        members = conj.elements[ci]
        K, parent = G.subgroup(G.centralizer(rep))
        parent_index = {p: i for i, p in enumerate(parent)}
        ktab = dixon_character_table(K, seed)
        kcls = ktab.classes.class_of
        # coset representatives: k_x rep k_x^{-1} = x
        kx = {}
        for x in members:
            kx[x] = next(g for g in range(n) if G.conj(rep, g) == x)
        for row in range(len(ktab.degrees)):
            deg = len(members) * ktab.degrees[row]
            chi: Vec = {}
            for g in members:
                kg_inv = G.inverse(kx[g])
                for h in range(n):
                    if G.mul(h, g) != G.mul(g, h):
                        continue
                    u = G.mul(G.mul(kg_inv, h), kx[g])
                    val = ktab.values[row][kcls[parent_index[u]]]
                    if val:
                        chi[g * n + h] = val
            entries.append((deg, chi))
    integral, _ = integrals(H)
    built = []
    for deg, chi in entries:
        s_chi = H.func_antipode_raw(chi)
        evec = vec_scale(H.right_hit_raw(integral.vec, s_chi), CycNum.rational(deg))
        built.append((evec, deg, chi))
    return _ordered_irred(H, built)


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


def _coeff_from_json(x) -> CycNum:
    """A coefficient as ``_coeff_to_json`` writes it: a string, or an {order,
    coeffs} dict of an integer order >= 1 and strings; else ValueError."""
    if type(x) is str:
        return CycNum.rational(Fraction(x))
    if (type(x) is not dict or x.keys() != {"order", "coeffs"} or type(x["coeffs"]) is not list
            or any(type(s) is not str for s in x["coeffs"])):
        raise ValueError(f"coefficient {x!r} is not a string or an {{order, coeffs}} dict")
    _json_positive("coefficient order", x["order"])
    return CycNum.from_dict(x)


def _coeff_in(field: str, x, cyc_order: int) -> CycNum:
    """A dumped coefficient of ``field``; it must lie in Q(zeta_cyc_order),
    where every modular step of the package looks for it."""
    c = _coeff_from_json(x)
    if not c.lies_in(cyc_order):
        raise ValueError(f"{field} holds a coefficient of order "
                         f"{c.order}, which does not divide cyc_order {cyc_order}")
    return c


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
    mult = [[i, j, k, _coeff_to_json(c)]
            for (i, j) in sorted(H.mult) for k, c in H.mult[(i, j)]]
    comult = [[i, j, k, _coeff_to_json(c)]
              for i in sorted(H.comult) for (j, k), c in H.comult[i]]
    antipode = [[i, j, _coeff_to_json(c)]
                for i in sorted(H.antipode) for j, c in H.antipode[i]]
    out = {
        "schema": "hopfcomm/1",
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
    a field, labels that are not a list of dim strings, a coefficient
    outside Q(zeta_cyc_order), a zero denominator and a missing or
    misshapen field."""
    try:
        dim = _json_int("dim", data["dim"])
        cyc_order = _json_positive("cyc_order", data.get("cyc_order", 1))

        def read(field, arity):
            return _sparse_from_json(field, data[field], arity, dim, cyc_order)

        mult: dict = {}
        for (i, j, k), c in read("mult", 3).items():
            mult.setdefault((i, j), []).append((k, c))
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
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed hopf dump: {exc}") from exc
    return HopfAlgebra(
        dim=dim,
        mult={k: tuple(v) for k, v in mult.items()},
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
        degrees = tuple(_json_positive("degree", x) for x in data["degrees"])
        idems = tuple(H.elem(_vec_from_json(H, "irred.idempotents", e))
                      for e in data["idempotents"])
        chars = tuple(H.func(_vec_from_json(H, "irred.characters", e))
                      for e in data["characters"])
        if not len(degrees) == len(idems) == len(chars):
            raise ValueError("degrees, idempotents and characters differ in length")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed irred section: {exc}") from exc
    return _verify_irred(H, idems, degrees, chars)
