"""Hopf commutator calculus.

The commutator of a, b in H is {a,b} = sum a_1 b_1 S(a_2) S(b_2); the
n-th commutator generalises it to n arguments.  This module computes
the spans Com_n, the central elements z_n (n-th commutators of the
integral), the insertion maps Z_n, coideal and algebra closures, and
the commutator subalgebra H' by two independent routes; a theorem
suite checks every identity of the calculus on a given instance.

The second commutator and Com = Com_2 are read off one memoized table of
the basis commutators {e_i, e_k}, made from the adjoint table of
``hopf.adjoint_row`` through {a, b} = sum (a .ad b_1) S(b_2) (S. Montgomery,
Hopf Algebras and Their Actions on Rings, CBMS 82, 1993), so a pair whose
commutator is zero is never formed.  For n >= 3, and for the n-th
commutators and z_n that check it, an n-th commutator is the
multiplication map applied to the product U(a^1) ... U(a^n) in H (x) H,
where U(a) = sum a_1 (x) S(a_2); this keeps the work polynomial in dim H
instead of exponential in n.  Com_n reads its last factor off the same
adjoint table: the image of t U(e_k) is sum t_ab e_a (e_k .ad e_b).
"""

from __future__ import annotations

import random

from ._linalg import Echelon, _bilinear, _rows, nullspace, vec_axpy
from .caps import enum_cap
from .errors import EnumerationCapExceeded, RouteMismatch, VerificationFailed
from .exactnum import CycNum, Rational
from .hopf import (
    HElem,
    HopfAlgebra,
    _axpy_times_antipode,
    _central_failure,
    _check_all,
    _closed_basis,
    _combination,
    _entry,
    _product,
    _require_axioms,
    _right_closure,
    _tensor_sandwich,
    _u_tensor,
    adjoint_row,
    casimir_tensor,
    grouplike_functionals,
    integrals,
    memo,
    random_element,
    require_irred,
    tensor_flatten,
    tensor_mult,
)

_ONE = CycNum.rational(1)


# ---------------------------------------------------------------------------
# commutators


def hopf_commutator(a: HElem, b: HElem) -> HElem:
    """{a, b} = sum a_1 b_1 S(a_2) S(b_2), the second commutator, as the
    bilinear extension of ``_commutator_table``."""
    return HElem(a.H, _bilinear(_commutator_table(a.H), a.vec, b.vec))


@memo
def _commutator_table(H: HopfAlgebra) -> dict:
    """Rows {i: {k: {e_i, e_k}}} over the pairs where it is nonzero, each
    value stored as terms ((m, c), ...) like the structure constants.

    {e_i, e_k} = sum c (e_i .ad e_a) S(e_b) over ((a, b), c) in Delta e_k, so
    only the nonzero entries of ``adjoint_row(H, i)`` are walked, each through
    an index from the left coproduct leg a to the (k, b, c) it occurs in."""
    legs: dict = {}
    for k, terms in H.comult.items():
        for (a, b), c in terms:
            legs.setdefault(a, []).append((k, b, c))
    acc: dict = {}
    for i in range(H.dim):
        for a, ad in adjoint_row(H, i).items():
            for k, b, c in legs.get(a, ()):
                _axpy_times_antipode(H, acc.setdefault((i, k), {}), c, ad, b)
    return _rows((i, k, tuple(v.items())) for (i, k), v in acc.items())


def n_commutator(elems) -> HElem:
    """sum a^1_1...a^n_1 S(a^1_2)...S(a^n_2) for elems = (a^1, ..., a^n)."""
    elems = list(elems)
    if not elems:
        raise ValueError("n_commutator needs at least one argument")
    H = elems[0].H
    acc = _u_tensor(H, elems[0].vec)
    for a in elems[1:]:
        acc = tensor_mult(H, acc, _u_tensor(H, a.vec))
    return HElem(H, tensor_flatten(H, acc))


@memo
def z_n(H: HopfAlgebra, n: int) -> HElem:
    """The n-th commutator of n copies of the integral, the image of
    U(Lambda)^n under multiplication; z_0 = 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return H.one()
    return HElem(H, tensor_flatten(H, _u_power(H, n)))


def z_n_by_idempotents(H: HopfAlgebra, irred, n: int) -> tuple[list, HElem]:
    """(coefficients in the E_i, element) of z_n = sum_i E_i / d_i^(n - n mod 2)."""
    coeffs = [Rational(1, d ** (n - n % 2)) for d in irred.degrees]
    return coeffs, HElem(H, _combination(coeffs, irred.idempotents))


def Z_n_map(H: HopfAlgebra, n: int, h: HElem) -> HElem:
    """Z_n(h) = sum L^1_1...L^n_1 h S(L^1_2)...S(L^n_2) with n copies of the
    integral sandwiching h; Z_0(h) = h.  Linear in h: sum h_k Z_n(e_k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return HElem(H, dict(h.vec))
    out: dict = {}
    for k, c in h.vec.items():
        vec_axpy(out, c, _z_column(H, n, k).items())
    return HElem(H, out)


@memo
def _z_column(H: HopfAlgebra, n: int, k: int) -> dict:
    """Z_n(e_k) for n >= 1."""
    return _tensor_sandwich(H, _u_power(H, n), {k: _ONE})


@memo
def _u_power(H: HopfAlgebra, n: int) -> dict:
    """U(Lambda)^n in H (x) H for n >= 1, by squaring: at most 2 log2(n)
    products, each intermediate power kept in the memo."""
    if n == 1:
        return casimir_tensor(H)
    if n % 2:
        return tensor_mult(H, _u_power(H, n - 1), _u_power(H, 1))
    half = _u_power(H, n // 2)
    return tensor_mult(H, half, half)


# ---------------------------------------------------------------------------
# spans and closures


def com_span(H: HopfAlgebra, n: int) -> Echelon:
    """Span of all n-th commutators (n = 2 gives Com).

    Multilinearity reduces the span to basis tuples.  Com_2 is spanned by
    the values of ``_commutator_table``.  For n >= 3 the U-tensor trick
    reduces those to products of an echelon basis of each intermediate
    level in H (x) H with the U(e_i), so the work is bounded by rank
    growth rather than dim^n.  The last level is flattened into H as it
    is made, and read off the adjoint table instead of the U-tensor
    products.  The nominal dim^n tuple count is still capped, on every call.
    """
    if n < 2:
        raise ValueError("com_span needs n >= 2")
    limit = enum_cap()
    if H.dim**n > limit:
        raise EnumerationCapExceeded(f"{H.dim}^{n} basis tuples exceed cap {limit}")
    return _com_span(H, n)


@memo
def _com_span(H: HopfAlgebra, n: int) -> Echelon:
    if n == 2:
        return Echelon(dict(v) for row in _commutator_table(H).values() for v in row.values())
    gens = [_u_tensor(H, {i: _ONE}) for i in range(H.dim)]
    level = gens
    for _ in range(n - 2):
        nxt = Echelon()
        for t in level:
            for g in gens:
                nxt.insert(tensor_mult(H, t, g))
        level = nxt.basis()
    # only the image in H of the last level is read
    out = Echelon()
    for t in level:
        for k in range(H.dim):
            out.insert(_flatten_times_u(H, t, k))
    return out


def _flatten_times_u(H: HopfAlgebra, t: dict, k: int) -> dict:
    """flatten(t U(e_k)) = sum t_ab e_a (e_k .ad e_b), read off the adjoint
    table without forming the tensor t U(e_k)."""
    ad = adjoint_row(H, k)
    out: dict = {}
    for (a, b), c in t.items():
        row = H.mult.get(a, {})
        for m, x in ad.get(b, ()):
            prod = row.get(m)
            if prod:
                vec_axpy(out, c * x, prod)
    return out


def coideal_closure(H: HopfAlgebra, vecs) -> Echelon:
    """Smallest left coideal containing the given vectors: the span of
    v <- p for p in H*, i.e. of the legs (e^i (x) id)(Delta v).  One pass
    suffices: (v <- p) <- q = v <- pq by coassociativity, and v = v <- eps."""
    return Echelon(row for v in vecs for row in _left_legs(H, v))


def algebra_closure(H: HopfAlgebra, vecs) -> Echelon:
    """Smallest unital subalgebra containing the given vectors: the span of
    1 closed under right multiplication by them (``_right_closure``).  H is
    associative (its axioms are verified), so the words 1 v_1 ... v_k span
    that subalgebra."""
    _require_axioms(H)
    span = Echelon([H.unit_vec])
    _right_closure(H, span, [H.unit_vec], [0], list(vecs))
    return span


def _left_legs(H: HopfAlgebra, v: dict):
    """The nonzero vectors (e^i (x) id)(Delta v), one per left index i."""
    legs: dict[int, dict] = {}
    for (i, j), c in H.comult_raw(v).items():
        legs.setdefault(i, {})[j] = c
    return legs.values()


def is_left_coideal(H: HopfAlgebra, space: Echelon) -> bool:
    """Delta(C) subset of H (x) C, checked leg by leg."""
    return all(space.contains(row) for v in space.basis()
               for row in _left_legs(H, v))


def is_adjoint_stable(H: HopfAlgebra, space: Echelon) -> bool:
    """h .ad v lies in the space for every basis vector v and every h in
    ``_closed_basis(H)``: (hk) .ad v = h .ad (k .ad v), so the h that keep
    the space form a set closed under products."""
    basis = space.basis()
    return all(space.contains(H.adjoint_raw({k: _ONE}, v))
               for k in _closed_basis(H) for v in basis)


@memo
def commutator_subalgebra(H: HopfAlgebra) -> Echelon:
    """H', computed two ways and cross-checked:

    route A: the algebra generated by Com;
    route B: the joint fixed points of sigma -> (left hit) over all
             grouplikes sigma of H*.

    The agreed result is verified to be a left coideal and stable under the
    adjoint action; route A (``algebra_closure``, the span of the words
    1 v_1 ... v_k) is a unital subalgebra by construction.
    """
    com = com_span(H, 2)
    route_a = algebra_closure(H, com.basis())

    def hit_minus_identity(sigma):
        # columns of h -> sigma -> h - h
        for j in range(H.dim):
            col = H.left_hit_raw(sigma.vec, {j: _ONE})
            vec_axpy(col, -_ONE, ((j, _ONE),))
            yield col

    route_b = Echelon(nullspace(
        (hit_minus_identity(sigma) for sigma in grouplike_functionals(H)),
        H.dim, _ONE))
    if route_a != route_b:
        raise RouteMismatch(
            f"H' routes disagree: algebra of Com has dim {route_a.rank}, "
            f"grouplike fixed points dim {route_b.rank}")
    space = route_a
    if not is_left_coideal(H, space):
        raise VerificationFailed("H' is not a left coideal")
    if not is_adjoint_stable(H, space):
        raise VerificationFailed("H' is not stable under the adjoint action")
    return space


def _is_scalar_line(H: HopfAlgebra, space: Echelon) -> bool:
    return space.rank == 1 and space.contains(dict(H.unit_vec))


def _is_commutative(H: HopfAlgebra) -> bool:
    """e_i e_j = e_j e_i as vectors, for every stored product."""
    return all(_product(H, i, j) == _product(H, j, i) for i, row in H.mult.items() for j in row)


def is_central(H: HopfAlgebra, vec) -> bool:
    return _central_failure(H, vec if isinstance(vec, dict) else vec.vec) is None


def augmentation_ideal_span(H: HopfAlgebra, space: Echelon) -> Echelon:
    """H * S+ where S+ = ker(counit) restricted to the subspace S."""
    basis = space.basis()
    eps_vals = [H.counit_raw(v) for v in basis]
    plus = []
    anchor = next((t for t, e in enumerate(eps_vals) if e), None)
    for t, v in enumerate(basis):
        if not eps_vals[t]:
            plus.append(v)
        elif t != anchor:
            w = dict(v)
            vec_axpy(w, -(eps_vals[t] * eps_vals[anchor].inverse()),
                     basis[anchor].items())
            plus.append(w)
    ideal = Echelon()
    for w in plus:
        for k in range(H.dim):
            ideal.insert(H.mul_raw({k: _ONE}, w))
    return ideal


# ---------------------------------------------------------------------------
# theorem suite


def theorem_suite_sec2(H: HopfAlgebra, seed: int = 0) -> list[dict]:
    """Exact checks of the commutator-calculus identities on one instance.

    Report entries are {"check", "status", "witness"?}; all checks are
    pass/fail.
    """
    rng = random.Random(seed)
    report: list[dict] = []
    irred = require_irred(H)
    lam, _ = integrals(H)
    z = {n: z_n(H, n) for n in range(7)}

    _entry(report, "z1_is_unit", z[1] == H.one())

    _check_all("zn_is_z2_power", (({"n": n}, z[n] == z[2] ** (n // 2)) for n in range(7)),
               report)

    ok = all(z[n] == z_n_by_idempotents(H, irred, n)[1] for n in range(2, 6))
    _entry(report, "zn_idempotent_expansion", ok)

    _entry(report, "z2_central", is_central(H, z[2]))

    z2_inv = HElem(H, _combination([deg * deg for deg in irred.degrees], irred.idempotents))
    _entry(report, "z2_invertible", z[2] * z2_inv == H.one()
           and z2_inv * z[2] == H.one())

    _entry(report, "z2_antipode_fixed",
           HElem(H, H.antipode_raw(z[2].vec)) == z[2])

    ok = all(chi(z[2]) == CycNum.rational(Rational(1, deg))
             for deg, chi in zip(irred.degrees, irred.characters))
    _entry(report, "chi_of_z2_is_inverse_degree", ok)

    commutative = _is_commutative(H)
    scalar = z[2].vec == H.unit_vec
    _entry(report, "z2_scalar_iff_commutative", scalar == commutative,
           {"z2_scalar": scalar, "commutative": commutative})

    # Z_n is linear, so each identity holds on H once it holds on the basis
    basis = [HElem(H, {k: _ONE}) for k in range(H.dim)]
    _check_all("Zn_recursion", (
        ({"n": n, "basis": k}, Z_n_map(H, n, h) == z[2] * Z_n_map(H, n - 2, h))
        for n in (2, 3, 4, 5) for k, h in enumerate(basis)), report)

    _check_all("Z_even_multiplies", (
        ({"n": 2 * j, "basis": k}, Z_n_map(H, 2 * j, h) == z[2 * j] * h)
        for j in (0, 1, 2) for k, h in enumerate(basis)), report)

    _check_all("Z_odd_central", (
        ({"n": 2 * j + 1, "basis": k}, is_central(H, Z_n_map(H, 2 * j + 1, h)))
        for j in (0, 1, 2) for k, h in enumerate(basis)), report)

    _check_all("Z1_is_adjoint_of_integral", (
        ({"basis": k}, Z_n_map(H, 1, h) == HElem(H, H.adjoint_raw(lam.vec, h.vec)))
        for k, h in enumerate(basis)), report)

    powers = {-1: z2_inv, 0: H.one(), 1: z[2], 2: z[2] * z[2]}
    ok = all(is_central(H, hopf_commutator(lam, powers[k]))
             for k in (-1, 0, 1, 2))
    _entry(report, "lambda_z2_power_commutator_central", ok)

    # {a, Lambda} is linear in a, and the E_i span the center
    _check_all("central_lambda_commutator_central", (
        ({"idempotent": i}, is_central(H, hopf_commutator(e, lam)))
        for i, e in enumerate(irred.idempotents)), report)

    table = _commutator_table(H)

    def from_commutators(a, b):
        # ab = sum {a_1, b_1} b_2 a_2
        rhs: dict = {}
        delta_b = H.comult_raw(b.vec).items()
        for (i, j), ca in H.comult_raw(a.vec).items():
            row = table.get(i, {})
            for (k, l), cb in delta_b:
                com = row.get(k)
                if com:
                    vec_axpy(rhs, ca * cb, H.mul_raw(dict(com), _product(H, l, j)).items())
        return rhs

    # The two bilinear checks sample random pairs: basis pairs would cost
    # (d |Delta|)^2.  Each list is drawn before the search that uses it, so
    # the rng stream does not depend on where a check fails.
    density = 1.0 if H.dim <= 12 else 0.3
    pairs = [(random_element(H, rng, density), random_element(H, rng, density))
             for _ in range(3)]
    _check_all("product_from_commutators_identity", (
        ({"sample": t}, from_commutators(a, b) == (a * b).vec)
        for t, (a, b) in enumerate(pairs)), report)

    com2 = com_span(H, 2)
    com3 = com_span(H, 3)
    _entry(report, "com_is_left_coideal", is_left_coideal(H, com2))
    _entry(report, "com2_in_com3", com2 <= com3)

    _entry(report, "com_scalar_iff_commutative",
           _is_scalar_line(H, com2) == commutative)

    hprime = None
    try:
        hprime = commutator_subalgebra(H)
        _entry(report, "hprime_routes_agree", True)
    except (RouteMismatch, VerificationFailed) as exc:
        _entry(report, "hprime_routes_agree", False, str(exc))

    if hprime is not None:
        ok = all(algebra_closure(H, coideal_closure(H, [z[n].vec]).basis()) == hprime
                 for n in (2, 3, 4))
        _entry(report, "hprime_from_zn_closures", ok)

        ok = all(hprime.contains(v) for v in com3.basis())
        _entry(report, "com3_in_hprime", ok)

        ok = all(hprime.contains(H.adjoint_raw({k: _ONE}, v))
                 for k in range(H.dim) for v in com2.basis())
        _entry(report, "adjoint_maps_com_into_hprime", ok)

        ideal = augmentation_ideal_span(H, hprime)
        pairs = [(random_element(H, rng), random_element(H, rng)) for _ in range(5)]
        _check_all("quotient_by_hprime_ideal_commutative", (
            ({"sample": t}, ideal.contains((a * b - b * a).vec))
            for t, (a, b) in enumerate(pairs)), report)
    else:
        for name in ("hprime_from_zn_closures", "com3_in_hprime",
                     "adjoint_maps_com_into_hprime",
                     "quotient_by_hprime_ideal_commutative"):
            _entry(report, name, False, "H' unavailable")

    _check_all("grouplikes_fix_com", (
        ({"grouplike": s, "com": n}, H.left_hit_raw(sigma.vec, v) == v)
        for s, sigma in enumerate(grouplike_functionals(H))
        for n, span in ((2, com2), (3, com3)) for v in span.basis()), report)

    iterated = Echelon()
    for u in com2.basis():
        for k in range(H.dim):
            iterated.insert(hopf_commutator(HElem(H, u), HElem(H, {k: _ONE})).vec)
    iterated_scalar = _is_scalar_line(H, iterated)
    com_central = all(is_central(H, v) for v in com2.basis())
    _entry(report, "iterated_scalar_iff_com_central",
           iterated_scalar == com_central,
           {"iterated_scalar": iterated_scalar, "com_central": com_central})

    report.sort(key=lambda r: r["check"])
    return report

