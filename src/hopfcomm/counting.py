"""Counting functionals, the bullet convolution, symmetric forms with their
Casimir elements, Higman maps, and word-count cross-checks on group algebras.

The central objects are functionals in the character span R(H): f_rob (whose
values on a group algebra count commutator representations), its higher
analogues f_n, the m-th root functions r_m, and the iterated-commutator
functional.  Each is tied to the z_n elements through the Frobenius bijection
Psi, and every closed formula is evaluated by at least two independent routes
before being trusted.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._linalg import Echelon, Solver, Vec, _by_squaring, rank, vec_axpy, vec_scale
from .commutator import Z_n_map, hopf_commutator, n_commutator, z_n
from .errors import DegenerateForm, FormulaMismatch, VerificationFailed
from .exactnum import CycNum
from .group import FiniteGroup, Letter, Power, Word, count_word, word_to_str
from .hopf import (
    HElem,
    HFunc,
    HopfAlgebra,
    _casimir_slide_failure,
    _central_failure,
    _check_all,
    _combination,
    _dot,
    _entry,
    _first_failure,
    _flatten_times,
    _product_terms,
    _tensor_sandwich,
    _trace_form_failure,
    casimir_tensor,
    frobenius_psi,
    func_antipode_s,
    integrals,
    memo,
    psi_inv,
    random_functional,
    require_irred,
    tensor_flatten,
)

_ONE = CycNum.rational(1)
_ZERO = CycNum.rational(0)


def _chi_combination(H: HopfAlgebra, coeffs) -> HFunc:
    """sum coeffs[i] * chi_i as a functional."""
    return HFunc(H, _combination(coeffs, require_irred(H).characters))


def character_coordinates(H: HopfAlgebra, f: HFunc):
    """Coordinates c_i = <f, E_i>/d_i of f in the character basis, or None
    if f is not in R(H).  They rest on <chi_i, E_j> = <lambda, E_j E_i>/d_i =
    delta_ij d_j, from chi_i = (E_i -> lambda)/d_i as ``_read_irred``
    reads it; comparing sum c_i chi_i with f decides membership in R(H)."""
    ir = require_irred(H)
    coords = [f(e) * CycNum.rational(Fraction(1, deg))
              for e, deg in zip(ir.idempotents, ir.degrees)]
    return coords if _chi_combination(H, coords) == f else None


# ---------------------------------------------------------------------------
# counting functionals


def f_rob(H: HopfAlgebra) -> HFunc:
    """f_1 = sum (d/d_i) chi_i; on kG its value at g counts pairs with [x,y] = g."""
    return f_n(H, 1)


@memo
def f_n(H: HopfAlgebra, n: int) -> HFunc:
    """sum (d/d_i)^(2n-1) chi_i; on kG counts products of n commutators."""
    if n < 1:
        raise ValueError("f_n needs n >= 1")
    ir = require_irred(H)
    d = H.dim
    return _chi_combination(H, [Fraction(d, di) ** (2 * n - 1) for di in ir.degrees])


def bullet(H: HopfAlgebra, p: HFunc, q: HFunc) -> HFunc:
    """p . q = d Psi(Psi^{-1}(p) Psi^{-1}(q)), the transported convolution."""
    prod = psi_inv(H, p) * psi_inv(H, q)
    return frobenius_psi(H, prod) * CycNum.rational(H.dim)


def bullet_power(H: HopfAlgebra, p: HFunc, l: int) -> HFunc:
    """l-fold bullet power of p, by ``_by_squaring``: the bullet product is the
    product of H carried over by Psi and scaled by d, so it is associative."""
    if l < 1:
        raise ValueError("bullet power needs l >= 1")
    return _by_squaring(p, l - 1, lambda x, y: bullet(H, x, y), p)


def bullet_unit_probe(H: HopfAlgebra, seed: int = 0) -> dict:
    """Evidence record for the unit of the bullet product.

    The candidate lambda/d is checked as a two-sided unit on the characters
    and on seeded random functionals; the result is reported, not asserted.
    """
    _, lam = integrals(H)
    cand = lam * CycNum.rational(Fraction(1, H.dim))
    ir = require_irred(H)
    rng = random.Random(seed)
    samples = list(ir.characters) + [random_functional(H, rng) for _ in range(3)]
    two_sided = all(
        bullet(H, p, cand) == p and bullet(H, cand, p) == p for p in samples
    )
    return _entry([], "bullet_unit_probe", "evidence",
                  {"candidate": "lambda/d", "two_sided_unit": two_sided})


# ---------------------------------------------------------------------------
# Sweedler powers and root functions


def sweedler_power(H: HopfAlgebra, h: HElem, m: int) -> HElem:
    """h^[m] = sum h_1 h_2 ... h_m (m-fold comultiplication, then multiply)."""
    if m < 1:
        raise ValueError("Sweedler power needs m >= 1")
    table = _sweedler_table(H, m)
    out: Vec = {}
    for i, c in h.vec.items():
        vec_axpy(out, c, table[i].items())
    return HElem(H, out)


@memo
def _sweedler_table(H: HopfAlgebra, m: int) -> list[Vec]:
    """e_k^[m] for every basis index k, one factor per ``_sweedler_pass``.

    h^[a+b] = sum h_1^[a] h_2^[b] (coassociativity), so once e_k^[t] =
    eps(e_k) 1 for every k, h^[t+r] = h^[r] and (m - t) mod t more passes
    give e_k^[m].  That t is exp(H), a divisor of (dim H)^3 (Etingof &
    Gelaki, Math. Res. Lett. 6, 1999): fewer than 2 exp(H) passes in all."""
    ones = [vec_scale(H.unit_vec, H.counit_raw({k: _ONE})) for k in range(H.dim)]
    table, t = [{k: _ONE} for k in range(H.dim)], 1
    while t < m:
        table, t = _sweedler_pass(H, table), t + 1
        if table == ones:
            m = t + (m - t) % t
    return table


def _sweedler_pass(H: HopfAlgebra, table: list[Vec]) -> list[Vec]:
    """e_k^[t+1] = sum e_i e_j^[t] over Delta(e_k) = sum e_i (x) e_j, for each k."""
    image = {j: v.items() for j, v in enumerate(table)}
    return [_flatten_times(H, H.comult.get(k, ()), image) for k in range(H.dim)]


def fs_indicator(H: HopfAlgebra, i: int, m: int) -> CycNum:
    """m-th Frobenius-Schur indicator nu_m(chi_i) = <chi_i, Lambda^[m]>."""
    ir = require_irred(H)
    integral, _ = integrals(H)
    return ir.characters[i](sweedler_power(H, integral, m))


def root_function(H: HopfAlgebra, m: int) -> HFunc:
    """r_m = Psi(Lambda^[m]); on kG its value at g counts m-th roots of g.

    The indicator expansion r_m = sum nu_m(chi_i) chi_i is recomputed and
    compared exactly; disagreement is a hard failure.
    """
    if m < 1:
        raise ValueError("root function needs m >= 1")
    integral, _ = integrals(H)
    r = frobenius_psi(H, sweedler_power(H, integral, m))
    ir = require_irred(H)
    expansion = _chi_combination(H, [fs_indicator(H, i, m) for i in range(len(ir))])
    if r != expansion:
        raise VerificationFailed(f"r_{m} does not match its indicator expansion")
    return r


# ---------------------------------------------------------------------------
# iterated-commutator functional


@memo
def f_iterated(H: HopfAlgebra) -> HFunc:
    """Counting functional for iterated commutators [[x,y],z], by three routes.

    Route 1: d^2 sum_{i,j} (1/(d_i d_j)) <chi_i s(chi_i) chi_j, Lambda> chi_i.
    Route 2: d^2 sum_i (1/d_i) <chi_i s(chi_i), z_2> chi_i.
    Route 3: d^2 Psi({z_2, Lambda}), with the commutator taken by the
    U-tensor route (``n_commutator``), not the commutator table, which
    sec3 compares it with.
    All three are computed independently and must agree exactly.
    """
    ir = require_irred(H)
    integral, _ = integrals(H)
    d = CycNum.rational(H.dim)
    m = len(ir)

    coeffs1 = []
    for i in range(m):
        chi_i = ir.characters[i]
        base = chi_i * func_antipode_s(chi_i)
        acc = _ZERO
        for j in range(m):
            c = (base * ir.characters[j])(integral)
            acc = acc + c * CycNum.rational(Fraction(1, ir.degrees[i] * ir.degrees[j]))
        coeffs1.append(d * d * acc)
    route1 = _chi_combination(H, coeffs1)

    z2 = z_n(H, 2)
    coeffs2 = []
    for i in range(m):
        chi_i = ir.characters[i]
        c = (chi_i * func_antipode_s(chi_i))(z2)
        coeffs2.append(d * d * c * CycNum.rational(Fraction(1, ir.degrees[i])))
    route2 = _chi_combination(H, coeffs2)

    route3 = frobenius_psi(H, n_commutator([z2, integral])) * (d * d)

    if route1 != route2:
        raise FormulaMismatch("iterated functional: idempotent-pairing routes disagree")
    if route1 != route3:
        raise FormulaMismatch("iterated functional: Psi({z_2, Lambda}) route disagrees")
    return route1


# ---------------------------------------------------------------------------
# symmetric forms and Casimir elements


class SymmetricForm:
    """Associative symmetric bilinear form beta(a, b) = <t, a b>.

    scope "full" means beta is non-degenerate on H; scope "center" means t
    lies in the character span and beta restricts non-degenerately to Z(H).
    u is the invertible central element with t = lambda <- u.
    """

    __slots__ = ("t", "scope", "u", "alphas")

    def __init__(self, t: HFunc, scope: str, u: HElem, alphas: tuple = ()):
        self.t = t
        self.scope = scope
        self.u = u
        self.alphas = alphas


def symmetric_form(H: HopfAlgebra, t: HFunc, scope: str = "full") -> SymmetricForm:
    """Build and verify a symmetric form from its generating functional.

    Checks the trace property (on the pairs of ``_trace_form_failure``),
    recovers the central element u with t = lambda <- u, and verifies
    non-degeneracy for the given scope (u invertible; additionally
    t <- Z(H) = R(H) for center-forms and t <- H = H* for full-forms).
    Raises DegenerateForm when degenerate.
    """
    if scope not in ("full", "center"):
        raise ValueError(f"unknown scope {scope!r}")
    d = H.dim
    pair = _trace_form_failure(H, t.vec)
    if pair is not None:
        raise ValueError(f"<t, ab> != <t, ba> at basis pair {pair}")

    ir = require_irred(H)
    alphas = character_coordinates(H, t)
    if scope == "center":
        if alphas is None:
            raise ValueError("center-form functional must lie in the character span")
        if any(a == _ZERO for a in alphas):
            raise DegenerateForm("t has a vanishing character coefficient")
        # u = sum (alpha_i / d_i) E_i satisfies lambda <- u = sum alpha_i chi_i
        u = HElem(H, _combination([a * CycNum.rational(Fraction(1, deg))
                                   for a, deg in zip(alphas, ir.degrees)], ir.idempotents))
        # Lemma check: t <- Z(H) spans exactly the characters.
        hit = Echelon(H.func_right_hit_raw(t.vec, e.vec) for e in ir.idempotents)
        if hit != Echelon(chi.vec for chi in ir.characters):
            raise DegenerateForm("t <- Z(H) does not span the characters")
    else:
        # lambda <- S(Psi^{-1}(t)) = Psi(Psi^{-1}(t)) = t, as S^2 = id; the
        # check below decides
        u = HElem(H, H.antipode_raw(psi_inv(H, t).vec))
        if rank(H.mul_raw(u.vec, H.basis_vec(k)) for k in range(d)) != d:
            raise DegenerateForm("t <- H has rank < dim")
    _, lam = integrals(H)
    if HFunc(H, H.func_right_hit_raw(lam.vec, u.vec)) != t:
        raise VerificationFailed("connection t = lambda <- u failed to verify")
    if _central_failure(H, u.vec) is not None:
        raise VerificationFailed("connection element u is not central")
    return SymmetricForm(t=t, scope=scope, u=u, alphas=tuple(alphas or ()))


@memo
def t_n_form(H: HopfAlgebra, n: int) -> SymmetricForm:
    """Center-form generated by t_n = sum d_i^(n-1-(n mod 2)) chi_i; t_2 = lambda."""
    if n < 2:
        raise ValueError("t_n forms need n >= 2")
    ir = require_irred(H)
    t = _chi_combination(H, [di ** (n - 1 - n % 2) for di in ir.degrees])
    return symmetric_form(H, t, scope="center")


@memo
def t_tilde_form(H: HopfAlgebra, n: int) -> SymmetricForm:
    """Full form generated by t~_n = sum d_i^(n+1-(n mod 2)) chi_i = lambda <- z_n^{-1}."""
    if n < 2:
        raise ValueError("t~_n forms need n >= 2")
    ir = require_irred(H)
    t = _chi_combination(H, [di ** (n + 1 - n % 2) for di in ir.degrees])
    form = symmetric_form(H, t, scope="full")
    # the connection element must be the inverse of z_n
    zu = z_n(H, n) * form.u
    if zu != H.one():
        raise VerificationFailed(f"connection element of t~_{n} is not z_{n}^-1")
    return form


def casimir_of_form(H: HopfAlgebra, form: SymmetricForm):
    """Dual-basis Casimir of the form: for a full form the pair (tensor
    sum r_a (x) l_a, Cas = sum r_a l_a), for a center form Cas alone.

    Full forms invert the Gram matrix on the whole algebra and the resulting
    tensor is checked against the defining slide moves sum r a (x) l =
    sum r (x) a l and sum a r (x) l = sum r (x) l a on the elements of
    ``_closed_basis(H)`` (see ``_casimir_slide_failure``).
    Center-forms restrict to Z(H), where the idempotent basis diagonalizes the
    form and Cas = sum E_i / (alpha_i d_i).
    """
    if form.scope == "center":
        ir = require_irred(H)
        return HElem(H, _combination([a.inverse() * CycNum.rational(Fraction(1, deg))
                                      for a, deg in zip(form.alphas, ir.degrees)], ir.idempotents))

    d = H.dim
    solver = Solver()
    for j in range(d):
        col = {}
        for l in range(d):
            val = _dot(form.t.vec, _product_terms(H, j, l))
            if val:
                col[l] = val
        if not solver.insert(col, j):
            raise DegenerateForm("Gram matrix of the form is singular")
    tensor = {}
    for k in range(d):
        combo = solver.express({k: _ONE})
        if combo is None:
            raise DegenerateForm("Gram matrix of the form is singular")
        for j, c in combo.items():
            tensor[(j, k)] = c
    k = _casimir_slide_failure(H, tensor)
    if k is not None:
        raise VerificationFailed(f"Casimir slide move fails at basis {k}")
    return tensor, HElem(H, tensor_flatten(H, tensor))


def higman_map(H: HopfAlgebra, n: int, h: HElem) -> HElem:
    """tau(h) = sum r_a h l_a for the dual bases of the full form t~_n.

    Agrees with Z_{n+1-(n mod 2)}(h); the identity is exercised by the
    theorem suite rather than assumed here.
    """
    if n < 2:
        raise ValueError("Higman maps are defined for n >= 2")
    return HElem(H, _tensor_sandwich(H, _higman_tensor(H, n), h.vec))


@memo
def _higman_tensor(H: HopfAlgebra, n: int) -> dict:
    """The dual-basis tensor sum r_a (x) l_a of the full form t~_n."""
    tensor, _ = casimir_of_form(H, t_tilde_form(H, n))
    return tensor


# ---------------------------------------------------------------------------
# group oracle


def oracle_crosscheck(G: FiniteGroup, w: Word, f: HFunc,
                      counts: tuple[int, ...]) -> list[dict]:
    """Compare a functional on kG with the word count
    ``counts = count_word(G, w)``: exact counts of the tuples in G^r that w
    maps to each element, computed from the group table alone (letter-disjoint
    subwords convolved, shared letters enumerated), never from H.

    Evaluates f at every group element against the counts, and independently
    verifies the character expansion N_w = sum_i <s(chi_i), u_w> chi_i where
    u_w = (1/|G|) sum over tuples of w(...).  Returns a report; never raises
    on mismatch (the entries carry the verdict).
    """
    H = f.H
    if H.kind != "group" or H.group is not G:
        raise ValueError("oracle_crosscheck needs a functional on kG for the same G")
    label = word_to_str(w)
    report = []

    mismatches = []
    for g in range(G.order):
        got = f(H.elem({g: _ONE}))
        if got != CycNum.rational(counts[g]):
            mismatches.append({"element": H.labels[g], "functional": str(got),
                               "count": counts[g]})
    _entry(report, f"functional_matches_count[{label}]", not mismatches, mismatches[:3])

    uw: Vec = {}
    inv_order = CycNum.rational(Fraction(1, G.order))
    for g, c in enumerate(counts):
        if c:
            uw[g] = inv_order * CycNum.rational(c)
    ir = require_irred(H)
    nw = _chi_combination(H, [func_antipode_s(chi)(HElem(H, uw)) for chi in ir.characters]).vec
    expansion_ok = all(
        nw.get(g, _ZERO) == CycNum.rational(counts[g]) for g in range(G.order)
    )
    _entry(report, f"character_expansion_matches_count[{label}]", expansion_ok,
           {"expansion": {H.labels[g]: str(c) for g, c in nw.items()}})
    return report


# ---------------------------------------------------------------------------
# theorem suite


@memo
def _noncommuting_characters(H: HopfAlgebra):
    """The first pair (i, j), j < i, with chi_i chi_j != chi_j chi_i; None
    when the character algebra R(H) is commutative."""
    chars = require_irred(H).characters
    return _first_failure(((i, j), chars[i] * chars[j] == chars[j] * chars[i])
                          for i in range(len(chars)) for j in range(i))


def theorem_suite_sec3(H: HopfAlgebra, seed: int = 0) -> list[dict]:
    """Exact checks for the counting functionals and symmetric-form machinery."""
    rng = random.Random(seed)
    ir = require_irred(H)
    integral, lam = integrals(H)
    d = H.dim
    report: list[dict] = []

    frob = f_rob(H)
    _entry(report, "frob_matches_psi_z2",
           frob == frobenius_psi(H, z_n(H, 2)) * CycNum.rational(d))

    _check_all("fn_matches_psi_z2n", (
        ({"n": n}, f_n(H, n) == frobenius_psi(H, z_n(H, 2 * n))
         * CycNum.rational(Fraction(d) ** (2 * n - 1))) for n in range(1, 4)), report)

    ok = all(bullet_power(H, frob, l) == f_n(H, l) for l in (1, 2, 3))
    _entry(report, "bullet_power_matches_fn", ok)

    if _noncommuting_characters(H) is None:
        ok = all(bullet(H, ir.characters[i], ir.characters[j])
                 == bullet(H, ir.characters[j], ir.characters[i])
                 for i in range(len(ir)) for j in range(i))
        _entry(report, "bullet_commutative_on_characters", ok)
    else:
        _entry(report, "bullet_commutative_on_characters", "evidence",
               "characters do not commute; claim not applicable")

    _entry(report, "root_r1_is_counit", root_function(H, 1) == H.eps())

    rms = {m: root_function(H, m) for m in (2, 3)}  # internal expansion checks

    def root_counts(G):
        for m, rm in rms.items():
            roots = count_word(G, Power(Letter(1), m))
            for g in range(G.order):
                yield ({"m": m, "element": H.labels[g]},
                       rm(H.elem({g: _ONE})) == CycNum.rational(roots[g]))

    _check_all("root_function_counts_roots", root_counts(H.group)
               if H.kind == "group" and H.group is not None else (), report)

    try:
        fit = f_iterated(H)
        _entry(report, "iterated_three_way", True)
    except FormulaMismatch as exc:
        fit = None
        _entry(report, "iterated_three_way", False, str(exc))

    z2 = z_n(H, 2)
    ok = fit is not None and fit == frobenius_psi(H, hopf_commutator(z2, integral)) \
        * CycNum.rational(Fraction(d) ** 2)
    _entry(report, "iterated_matches_commutator_route", ok)

    _check_all("center_casimir_is_zn", (
        ({"n": n}, casimir_of_form(H, t_n_form(H, n)) == z_n(H, n)) for n in (2, 3, 4)),
        report)

    full_lambda = symmetric_form(H, lam, scope="full")
    tensor, cas = casimir_of_form(H, full_lambda)
    _entry(report, "full_lambda_casimir_is_integral_tensor",
           tensor == casimir_tensor(H))
    _entry(report, "full_lambda_connection_is_one", full_lambda.u == H.one())

    ok = True
    witness = None
    for n in (2, 3):
        try:
            t_tilde_form(H, n)
        except (VerificationFailed, DegenerateForm) as exc:
            ok = False
            witness = {"n": n, "error": str(exc)}
            break
    _entry(report, "t_tilde_connection_is_zn_inverse", ok, witness)

    # the samples are drawn before the search, which may stop early
    samples = {n: [H.one()] + [
        HElem(H, {rng.randrange(d): CycNum.rational(rng.randrange(1, 5))})
        for _ in range(2)] for n in (2, 3)}
    _check_all("higman_matches_sandwich_map", (
        ({"n": n}, higman_map(H, n, h) == Z_n_map(H, n + 1 - n % 2, h))
        for n, hs in samples.items() for h in hs), report)

    star = _antipode_permutation(H)

    def center_casimirs():
        for n in (2, 3, 4):
            form = t_n_form(H, n)
            yield ({"n": n, "reason": "alpha not antipode-symmetric"},
                   all(form.alphas[i] == form.alphas[star[i]] for i in range(len(ir))))
            yield {"n": n}, frobenius_psi(H, casimir_of_form(H, form)) == _chi_combination(
                H, [a.inverse() for a in form.alphas])

    _check_all("psi_of_center_casimir_inverts_alphas", center_casimirs(), report)

    report.append(bullet_unit_probe(H, seed))

    report.sort(key=lambda e: e["check"])
    return report


def _antipode_permutation(H: HopfAlgebra) -> list[int]:
    """i -> i* with s(chi_i) = chi_{i*}."""
    ir = require_irred(H)
    out = []
    for i in range(len(ir)):
        si = func_antipode_s(ir.characters[i])
        matches = [j for j in range(len(ir)) if ir.characters[j] == si]
        if len(matches) != 1:
            raise VerificationFailed(f"s(chi_{i}) is not a character of the list")
        out.append(matches[0])
    return out
