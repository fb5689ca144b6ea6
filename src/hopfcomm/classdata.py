"""Class data on almost-cocommutative instances and the Drinfeld map.

When the character algebra R(H) is commutative, its primitive idempotents F_i
play the role of conjugacy-class indicator functions: hitting the integral
with them yields class sums C_i, normalized class sums eta_i, and
conjugacy-class coideals.  Membership of eta_j in the coideal generated by a
central element is then detected by a single pairing, and the counting
functionals become nonnegative-integer combinations of characters whenever
the degrees divide the dimension.  Instances carrying an R-matrix additionally
get the Drinfeld map and the factorizability checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._linalg import Echelon, _check_idempotents, rank
from .commutator import (
    coideal_closure,
    commutator_subalgebra,
    hopf_commutator,
    is_adjoint_stable,
    z_n,
)
from .counting import (
    _noncommuting_characters,
    character_coordinates,
    f_iterated,
    f_n,
    f_rob,
    fs_indicator,
)
from .errors import (
    LemmaViolation,
    NotAlmostCocommutative,
    NotFactorizable,
    NotQuasitriangular,
    VerificationFailed,
)
from .exactnum import CycNum
from .hopf import (
    HElem,
    HFunc,
    HopfAlgebra,
    _check_all,
    _closed_basis,
    _combination,
    _entry,
    _first_failure,
    _require_axioms,
    _vec_to_json,
    Tensor,
    _comult_legs,
    _left_legs,
    _leg_map,
    _slant,
    _summed,
    frobenius_psi,
    func_antipode_s,
    integrals,
    memo,
    psi_inv,
    require_irred,
    split_commutative,
    tensor_mult,
    tensor_swap,
)

_ONE = CycNum.rational(1)
_ZERO = CycNum.rational(0)


# ---------------------------------------------------------------------------
# R(H) idempotents and class sums


class ClassData:
    """Primitive idempotents F_i of commutative R(H) with F_0 = lambda/d, and
    what ``_class_of`` reads off each: the ranks dim(F_iH*) = d<F_i, Lambda>,
    class sums C_i = Lambda <- dF_i and eta_i = C_i / dim(F_iH*)."""

    __slots__ = ("F", "C", "eta", "class_dims")

    def __init__(self, F: tuple, C: tuple, eta: tuple, class_dims: tuple):
        self.F = F
        self.C = C
        self.eta = eta
        self.class_dims = class_dims

    def __len__(self):
        return len(self.F)


def _is_natural(c: CycNum) -> bool:
    q = c.as_rational()
    return q is not None and q.denominator == 1 and q >= 0


def _coordinate_checks(coords, ok):
    """(witness, ok) pairs of ``ok(i, c)`` on each character coordinate c;
    one failing pair when coords is None (not in the character span)."""
    if coords is None:
        return [({"reason": "not in the character span"}, False)]
    return (({"chi_index": i, "coeff": str(c)}, ok(i, c)) for i, c in enumerate(coords))


def fusion_coefficients(H: HopfAlgebra, i: int) -> list:
    """m_{ki}: multiplicities of chi_k in chi_i s(chi_i)."""
    ir = require_irred(H)
    prod = ir.characters[i] * func_antipode_s(ir.characters[i])
    coords = character_coordinates(H, prod)
    if coords is None:
        raise VerificationFailed(f"chi_{i} s(chi_{i}) is not in the character span")
    k = _first_failure((k, _is_natural(c)) for k, c in enumerate(coords))
    if k is not None:
        raise VerificationFailed(
            f"multiplicity of chi_{k} in chi_{i} s(chi_{i}) is {coords[k]}")
    return [int(c.as_rational()) for c in coords]


def rh_idempotents(H: HopfAlgebra, seed: int = 0) -> ClassData:
    """Split commutative R(H) into primitive idempotents, lambda/d first and
    the rest by their values, and read the class data off them.

    Refuses with NotAlmostCocommutative when the characters do not commute.
    dim(F_iH*) is read off F_i as the rank of L_{F_i} on H* (``_class_of``),
    never assumed; ``_classdata_of`` certifies each split family once.
    """
    ir = require_irred(H)
    d = H.dim
    pair = _noncommuting_characters(H)
    if pair is not None:
        i, j = pair
        raise NotAlmostCocommutative(f"chi_{i} chi_{j} != chi_{j} chi_{i}")
    _, lam = integrals(H)
    f0 = (lam * CycNum.rational(Fraction(1, d))).vec

    def accept(idems):
        return _classdata_of(H, tuple(HFunc(H, f) for f in sorted(idems, key=lambda f: (
            f != f0, tuple(f.get(k, _ZERO).sort_key() for k in range(d))))))

    return split_commutative([chi.vec for chi in ir.characters], H.func_mul_raw,
                             H.counit_vec, H.cyc_order, random.Random(seed), accept)


def _class_of(H: HopfAlgebra, F: HFunc) -> tuple[int, HElem, HElem]:
    """(dim(FH*), C, eta) of a primitive idempotent F of R(H): dim(FH*) =
    d<F, Lambda> = Tr(L_F) on H* (d Lambda is the regular character of H*),
    the rank of the idempotent L_F, so a positive integer; C = Lambda <- dF
    and eta = C / dim(FH*)."""
    integral, _ = integrals(H)
    d = CycNum.rational(H.dim)
    dim = F(integral) * d
    if not (_is_natural(dim) and dim):
        raise VerificationFailed(f"d<F, Lambda> = {dim} is not a positive integer")
    dim = dim.as_rational().numerator
    C = psi_inv(H, F * d)
    return dim, C, C * CycNum.rational(Fraction(1, dim))


def _classdata_of(H: HopfAlgebra, F: tuple) -> ClassData:
    """The class data that ``_class_of`` reads off ``F``, once ``F`` is
    certified: one F_i per character, each in the character span,
    idempotents summing to eps, and F_0 = lambda/d.  Nonzero (dim >= 1)
    idempotents summing to eps are orthogonal (``_check_idempotents``), so
    as many as characters are the primitive idempotents of R(H).
    <F_i, eta_j> = delta_ij follows from eta_j = (d/dim_j)(Lambda <- F_j)."""
    _require_axioms(H)  # the precondition of _check_idempotents
    _, lam = integrals(H)
    if len(F) != len(require_irred(H)):
        raise VerificationFailed(f"{len(F)} F_i for {len(require_irred(H))} characters")
    i = _first_failure((i, character_coordinates(H, f) is not None)
                       for i, f in enumerate(F))
    if i is not None:
        raise VerificationFailed(f"F_{i} is not in the character span")
    _check_idempotents("F", [f.vec for f in F], H.func_mul_raw, H.counit_vec, "eps")
    if F[0] != lam * CycNum.rational(Fraction(1, H.dim)):
        raise VerificationFailed("F_0 != lambda/d")
    class_dims, C, eta = zip(*(_class_of(H, f) for f in F))
    return ClassData(F=F, C=C, eta=eta, class_dims=class_dims)


@memo
def require_classdata(H: HopfAlgebra, seed: int) -> ClassData:
    """rh_idempotents(H, seed), computed once per instance and seed.  The
    seed has no default, so that each seed has one key in the memo."""
    return rh_idempotents(H, seed)


def conjugacy_class_coideal(H: HopfAlgebra, data: ClassData, i: int) -> Echelon:
    """c_i = Lambda <- F_iH* = eta_i <- H*, since eta_i is a nonzero multiple
    of Lambda <- F_i; verified to be adjoint-stable.  It is a left coideal
    containing eta_i by construction (``coideal_closure``)."""
    sub = coideal_closure(H, [data.eta[i].vec])
    if not is_adjoint_stable(H, sub):
        raise VerificationFailed(f"c_{i} is not adjoint-stable")
    return sub


# ---------------------------------------------------------------------------
# membership criterion


def _eta_memberships(data: ClassData, span: Echelon, f: HFunc):
    """(witness, ok) per class j: eta_j is in the coideal ``span`` iff <f, eta_j> != 0."""
    for j, eta in enumerate(data.eta):
        w = {"class": j, "in_coideal": span.contains(eta.vec),
             "pairing_nonzero": f(eta) != _ZERO}
        yield w, w["in_coideal"] == w["pairing_nonzero"]


def membership_test(H: HopfAlgebra, data: ClassData, f: HFunc) -> list[tuple[bool, bool]]:
    """eta_j in Psi^{-1}(f) <- H*  vs  <f, eta_j> != 0, both computed for
    every class j.

    The two verdicts must agree; the first class where they disagree raises
    LemmaViolation.  Returns the pair (pairing verdict, subspace verdict) of
    each class, in class order.
    """
    if character_coordinates(H, f) is None:
        raise ValueError("membership_test needs f in the character span")
    coideal = coideal_closure(H, [psi_inv(H, f).vec])
    verdicts = []
    for w, ok in _eta_memberships(data, coideal, f):
        if not ok:
            raise LemmaViolation("class {class}: pairing says {pairing_nonzero}, "
                                 "subspace says {in_coideal}".format(**w))
        verdicts.append((w["pairing_nonzero"], w["in_coideal"]))
    return verdicts


# ---------------------------------------------------------------------------
# eta membership suite


def theorem_eta_suite(H: HopfAlgebra, seed: int = 0) -> list[dict]:
    """Membership biconditionals for normalized class sums, the fusion route
    for the iterated functional, the class-coideal decomposition, and the
    eta-dual-basis expansion of z_2; plus the open-question probe comparing
    coideal membership with membership in H'."""
    data = require_classdata(H, seed)
    ir = require_irred(H)
    integral, lam = integrals(H)
    d = H.dim
    m = len(data)
    report: list[dict] = []

    coideals = [conjugacy_class_coideal(H, data, i) for i in range(m)]
    combined = rank(v for sub in coideals for v in sub.basis())
    ok = combined == d and sum(s.rank for s in coideals) == d
    _entry(report, "class_coideals_decompose_H", ok,
           None if ok else {"ranks": [s.rank for s in coideals]})

    ok = True
    witness = None
    try:
        for f in (f_rob(H), f_n(H, 2), f_iterated(H)):
            membership_test(H, data, f)
    except LemmaViolation as exc:
        ok = False
        witness = str(exc)
    _entry(report, "membership_routes_agree", ok, witness)

    z2 = z_n(H, 2)
    z2_spans = {n: coideal_closure(H, [(z2 ** n).vec]) for n in (1, 2, 3)}
    for n in (1, 2):
        _check_all(f"eta_in_z2^{n}_coideal_iff_f{n}_pairing",
                   _eta_memberships(data, z2_spans[n], f_n(H, n)), report)
    fit = f_iterated(H)
    _check_all("eta_in_iterated_coideal_iff_pairing", _eta_memberships(
        data, coideal_closure(H, [hopf_commutator(z2, integral).vec]), fit), report)

    # fusion route: coefficient of chi_i in f_iterated is d^2/d_i sum_k m_ki/d_k
    def from_fusion(i, c):
        acc = sum(Fraction(mult, ir.degrees[k])
                  for k, mult in enumerate(fusion_coefficients(H, i)))
        return c == CycNum.rational(Fraction(d * d, ir.degrees[i]) * acc)

    _check_all("iterated_coefficients_from_fusion",
               _coordinate_checks(character_coordinates(H, fit), from_fusion), report)

    # z_2 = (1/d) sum dim(F_iH*) eta_i S(eta_i), and the eta orthogonality
    prods = [eta * HElem(H, H.antipode_raw(eta.vec)) for eta in data.eta]
    expansion = _combination([Fraction(k, d) for k in data.class_dims], prods)
    _entry(report, "z2_expands_in_eta_dual_basis", HElem(H, expansion) == z2)

    def eta_pairings():
        for i in range(m):
            si = HElem(H, H.antipode_raw(data.eta[i].vec))
            for j in range(m):
                got = lam(data.eta[j] * si)
                want = (CycNum.rational(Fraction(d, data.class_dims[i]))
                        if i == j else _ZERO)
                yield {"pair": [i, j], "got": str(got)}, got == want

    _check_all("eta_pairs_diagonally_under_lambda", eta_pairings(), report)

    # open question: does a nonzero <f_n, eta_j> pairing characterize
    # membership of eta_j in H'?  Logged per class, never asserted.
    hprime = commutator_subalgebra(H)
    probe = {}
    for j in range(m):
        spans = {n: z2_spans[n].contains(data.eta[j].vec) for n in (1, 2, 3)}
        pairings = {n: f_n(H, n)(data.eta[j]) != _ZERO for n in (1, 2, 3)}
        probe[f"class_{j}"] = {
            "in_hprime": hprime.contains(data.eta[j].vec),
            "in_z2^n_coideal": spans,
            "f_n_pairing_nonzero": pairings,
        }
    _entry(report, "question_fn_pairing_vs_hprime", "evidence", probe)

    return report


# ---------------------------------------------------------------------------
# Kaplansky integrality


def kaplansky_report(H: HopfAlgebra) -> list[dict]:
    """d_i | d checks and integrality of the counting functionals.

    When every degree divides the dimension, f_rob, f_2 and the iterated
    functional must have nonnegative integer character coefficients, with the
    iterated coefficients decomposing into the summands d^2 m_ki/(d_i d_k).
    The second indicator vector is reported as evidence only: it need not be
    integral.
    """
    ir = require_irred(H)
    d = H.dim
    report: list[dict] = []

    nondiv = [i for i in range(len(ir)) if d % ir.degrees[i]]
    _entry(report, "degrees_divide_dimension", not nondiv,
           {"indices": nondiv} if nondiv else None)

    if not nondiv:
        for name, func in (("frob", f_rob(H)), ("f2", f_n(H, 2)),
                           ("iterated", f_iterated(H))):
            _check_all(f"integral_coefficients[{name}]", _coordinate_checks(
                character_coordinates(H, func), lambda i, c: _is_natural(c)), report)

        def summands():
            for i in range(len(ir)):
                for k, mult in enumerate(fusion_coefficients(H, i)):
                    num = d * d * mult
                    den = ir.degrees[i] * ir.degrees[k]
                    yield {"i": i, "k": k, "coeff": f"{num}/{den}"}, num % den == 0

        _check_all("iterated_summands_integral", summands(), report)

    nu2 = [str(fs_indicator(H, i, 2)) for i in range(len(ir))]
    _entry(report, "second_indicator_vector", "evidence", {"nu_2": nu2})

    return report


# ---------------------------------------------------------------------------
# Drinfeld map and factorizability


class RMatrixData:
    """A verified quasitriangular structure: the R-matrix, its monodromy
    R_21 R_12, and whether the Drinfeld map is bijective."""

    __slots__ = ("R", "monodromy", "factorizable")

    def __init__(self, R: dict, monodromy: dict, factorizable: bool):
        self.R = R
        self.monodromy = monodromy
        self.factorizable = factorizable


def r_matrix_data(H: HopfAlgebra, R: Tensor = None) -> RMatrixData:
    """Verify the quasitriangular axioms for R (default: the instance's
    R-matrix) and compute the monodromy and the factorizability flag."""
    if R is None:
        R = H.r_matrix
    if R is None:
        raise ValueError("instance carries no R-matrix")
    # the unit law turns R_13 R_23 and R_13 R_12 into the outer products below
    _require_axioms(H)

    terms = R.items()
    eps = H.counit_vec
    if not _summed(_slant(eps, terms, 0)) == H.unit_vec == _summed(_slant(eps, terms, 1)):
        raise NotQuasitriangular("(eps (x) id)R or (id (x) eps)R != 1")

    # R = sum r_a (x) l_a.  R_13 R_23 = sum r_a (x) r_b (x) l_a l_b maps l_a to
    # (1 (x) l_a) R, and R_13 R_12 = sum r_a r_b (x) l_b (x) l_a maps r_a to (r_a (x) 1) R
    delta_first, delta_second = _comult_legs(H, terms)
    r13r23 = _leg_map(terms, 1, {j: _leg_map(terms, 1, H.mult.get(j, {})).items()
                                 for j in {j for _, j in R}})
    r13r12 = _leg_map(terms, 0, {i: _leg_map(terms, 0, H.mult.get(i, {})).items()
                                 for i in {i for i, _ in R}})
    if delta_first != r13r23:
        raise NotQuasitriangular("(Delta (x) id)R != R_13 R_23")
    if delta_second != r13r12:
        raise NotQuasitriangular("(id (x) Delta)R != R_13 R_12")

    def commutes(k):
        delta = H.comult_raw({k: _ONE})
        return tensor_mult(H, R, delta) == tensor_mult(H, tensor_swap(delta), R)

    # the b with R Delta(b) = Delta^op(b) R form a subalgebra once Delta is
    # multiplicative: R Delta(bc) = Delta^op(b) R Delta(c) = Delta^op(bc) R
    k = _first_failure((k, commutes(k)) for k in _closed_basis(H))
    if k is not None:
        raise NotQuasitriangular(f"R Delta != Delta^op R at basis {k}")

    monodromy = tensor_mult(H, tensor_swap(R), R)
    image = rank(_left_legs(monodromy))  # of p -> (p (x) id)(monodromy), at p = e^i
    return RMatrixData(R=dict(R), monodromy=monodromy,
                       factorizable=image == H.dim)


def drinfeld_map(H: HopfAlgebra, rdata: RMatrixData, p: HFunc) -> HElem:
    """f_Q(p) = (p (x) id)(R_21 R_12)."""
    return HElem(H, _summed(_slant(p.vec, rdata.monodromy.items(), 0)))


def factorizable_suite(H: HopfAlgebra, rdata: RMatrixData, seed: int = 0) -> list[dict]:
    """Exact checks of the Drinfeld-map identities on a factorizable instance.

    Raises NotFactorizable when the Drinfeld map is not bijective (callers
    that want skip semantics catch it)."""
    if not rdata.factorizable:
        raise NotFactorizable("Drinfeld map is not bijective")
    data = require_classdata(H, seed)
    ir = require_irred(H)
    d = H.dim
    report: list[dict] = []
    _entry(report, "drinfeld_map_bijective", True)

    def eta_hits(v):
        return [j for j in range(len(data)) if data.eta[j] == v]

    hits = {i: eta_hits(drinfeld_map(H, rdata, ir.characters[i])
                        * CycNum.rational(Fraction(1, ir.degrees[i])))
            for i in range(1, len(ir))}
    witness = _first_failure(({"chi_index": i}, len(h) == 1) for i, h in hits.items())
    matching = {i: h[0] for i, h in hits.items() if len(h) == 1}
    if witness is None and len(set(matching.values())) != len(matching):
        witness = {"reason": "character-to-class matching is not injective"}
    _entry(report, "drinfeld_map_sends_chi_to_eta", witness is None, witness)

    hits0 = eta_hits(drinfeld_map(H, rdata, ir.characters[0]))
    _entry(report, "drinfeld_map_on_trivial_character", "evidence",
           {"equals_eta_index": hits0[0] if hits0 else None})

    chi_ad_f = HFunc(H, _combination([1] * len(ir), [
        chi * func_antipode_s(chi) for chi in ir.characters]))
    z2 = z_n(H, 2)
    _entry(report, "adjoint_character_maps_to_z2",
           drinfeld_map(H, rdata, chi_ad_f) == z2 * CycNum.rational(d))

    eta_sum = HElem(H, _combination([1] * len(data), data.eta))
    _entry(report, "fourier_sends_z2_to_eta_sum",
           drinfeld_map(H, rdata, frobenius_psi(H, z2)) == eta_sum)

    _entry(report, "dual_fourier_sends_adjoint_character_to_frob",
           frobenius_psi(H, drinfeld_map(H, rdata, chi_ad_f)) == f_rob(H))

    if len(matching) == len(ir) - 1:
        if hits0:
            matching[0] = hits0[0]
        _check_all("class_dims_are_degree_squares", (
            ({"chi_index": i, "class": j, "dim": data.class_dims[j]},
             data.class_dims[j] == ir.degrees[i] ** 2) for i, j in matching.items()),
            report)
    else:
        _entry(report, "class_dims_are_degree_squares", False,
               {"reason": "no character-to-class matching"})

    return report


# ---------------------------------------------------------------------------
# combined section suite


def theorem_suite_sec4(H: HopfAlgebra, seed: int = 0) -> list[dict]:
    """Class-data suite: eta membership biconditionals, Kaplansky report, and
    the factorizable checks when an R-matrix is present.  Refused
    preconditions are recorded as evidence entries instead of failures."""
    report: list[dict] = []
    try:
        require_classdata(H, seed)
    except NotAlmostCocommutative as exc:
        _entry(report, "classdata_applicable", "evidence", f"skipped: {exc}")
        return report
    report.extend(theorem_eta_suite(H, seed))
    report.extend(kaplansky_report(H))
    if H.r_matrix is None:
        _entry(report, "factorizable_applicable", "evidence",
               "skipped: instance carries no R-matrix")
    else:
        try:
            rdata = r_matrix_data(H)
            report.extend(factorizable_suite(H, rdata, seed))
        except NotFactorizable as exc:
            _entry(report, "factorizable_applicable", "evidence", f"skipped: {exc}")
        except NotQuasitriangular as exc:
            _entry(report, "quasitriangular_axioms", False, str(exc))
    report.sort(key=lambda e: e["check"])
    return report


# ---------------------------------------------------------------------------
# JSON export


def classdata_to_dict(data: ClassData) -> dict:
    return {
        "class_dims": list(data.class_dims),
        "F": [_vec_to_json(f.vec) for f in data.F],
        "C": [_vec_to_json(c.vec) for c in data.C],
        "eta": [_vec_to_json(e.vec) for e in data.eta],
    }

