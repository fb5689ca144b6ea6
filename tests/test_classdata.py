"""Class sums, membership criteria, Kaplansky integrality, and the Drinfeld
map, anchored on group algebras where everything is classical."""

import re
from fractions import Fraction

import pytest

from hopfcomm._linalg import Echelon, vec_axpy
from hopfcomm.classdata import (
    ClassData,
    classdata_from_dict,
    classdata_to_dict,
    conjugacy_class_coideal,
    drinfeld_map,
    factorizable_suite,
    fusion_coefficients,
    kaplansky_report,
    membership_test,
    r_matrix_data,
    rh_idempotents,
    theorem_eta_suite,
    theorem_suite_sec4,
)
from hopfcomm.commutator import z_n
from hopfcomm.counting import f_rob
from hopfcomm.errors import (
    LemmaViolation,
    NotAlmostCocommutative,
    NotFactorizable,
    NotQuasitriangular,
    VerificationFailed,
)
from hopfcomm.exactnum import CycNum
from hopfcomm.hopf import (
    HElem,
    HFunc,
    generators,
    integrals,
    tensor_mult,
    tensor_of,
    tensor_swap,
)

ONE = CycNum.rational(1)


def rat(x):
    return CycNum.rational(x)


def class_index_of(G, cd, rep_label):
    """Index j with eta_j supported on the class of the given element."""
    g = G.labels.index(rep_label)
    cls = G.conjugacy_data()
    members = set(cls.elements[cls.class_of[g]])
    for j, eta in enumerate(cd.eta):
        if set(eta.vec) == members:
            return j
    raise AssertionError(f"no eta matches class of {rep_label}")


# ---------------------------------------------------------------------------
# class data on group algebras


def test_group_algebra_class_data_is_classical(s3, ks3):
    H, _ = ks3
    cd = rh_idempotents(H)
    cls = s3.conjugacy_data()
    assert len(cd) == cls.n_classes
    assert sorted(cd.class_dims) == sorted(cls.sizes)
    for j in range(len(cd)):
        support = set(cd.F[j].vec)
        (ci,) = {cls.class_of[g] for g in support}
        assert support == set(cls.elements[ci])
        # F_j is the indicator function of its class
        assert all(c == ONE for c in cd.F[j].vec.values())
        # C_j is the class sum, eta_j the class average
        assert cd.C[j] == HElem(H, {g: ONE for g in support})
        assert cd.class_dims[j] == cls.sizes[ci]
        size = rat(1) * rat(cls.sizes[ci]).inverse()
        assert cd.eta[j] == HElem(H, {g: size for g in support})


def test_f0_is_normalized_dual_integral(kq8):
    H, _ = kq8
    cd = rh_idempotents(H)
    _, lam = integrals(H)
    assert cd.F[0] == lam * rat(8).inverse()
    assert cd.class_dims[0] == 1
    assert cd.eta[0] == H.one()


def test_dual_group_algebra_refused(dual_s3):
    H, _ = dual_s3
    with pytest.raises(NotAlmostCocommutative):
        rh_idempotents(H)


def test_class_data_deterministic(ks3):
    H, _ = ks3
    a = rh_idempotents(H, seed=0)
    b = rh_idempotents(H, seed=0)
    assert a.F == b.F and a.C == b.C and a.class_dims == b.class_dims


def test_classdata_json_round_trip(ks3):
    H, _ = ks3
    cd = rh_idempotents(H)
    back = classdata_from_dict(H, classdata_to_dict(cd))
    assert back.F == cd.F and back.eta == cd.eta
    broken = classdata_to_dict(cd)
    broken["class_dims"][1] += 1
    with pytest.raises(VerificationFailed):
        classdata_from_dict(H, broken)


def _set_entry(field, i, entry):
    def edit(doc):
        doc[field][i][0] = entry
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["C"][0].append([99, "5"]), "outside range"),
    (_set_entry("F", 1, [0.0, "1"]), "outside range"),
    (lambda doc: doc["F"][1].append(list(doc["F"][1][0])), "repeats the key"),
    (lambda doc: doc["class_dims"].__setitem__(0, "1"), "not an integer"),
    (lambda doc: doc["class_dims"].__setitem__(0, 1.9), "not an integer"),
    (lambda doc: doc["class_dims"].__setitem__(0, 0), "< 1"),
    (lambda doc: doc.pop("eta"), "malformed classdata"),
    (lambda doc: doc["eta"].pop(), "differ in length"),
    (lambda doc: doc["C"].__setitem__(1, [[i, str(2 * Fraction(c))]
                                          for i, c in doc["C"][1]]), "C_1"),
], ids=["C-index-99", "F-index-float", "F-key-repeated", "dim-string", "dim-float",
        "dim-zero", "eta-missing", "eta-short", "C-scaled"])
def test_classdata_from_dict_refuses_malformed_payload(ks3, edit, message):
    H, _ = ks3
    doc = classdata_to_dict(rh_idempotents(H))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        classdata_from_dict(H, doc)


def test_classdata_from_dict_refuses_a_partition_finer_than_the_classes(ks3, s3):
    # The point functions of S3 pass every pairing check of class data: the
    # F_i must also lie in R(H), one per character.
    H, _ = ks3
    order = [s3.identity] + [g for g in range(6) if g != s3.identity]
    points = [[[g, "1"]] for g in order]
    doc = {"F": points, "C": points, "eta": points, "class_dims": [1] * 6}
    with pytest.raises(VerificationFailed, match="6 F_i for 3 characters"):
        classdata_from_dict(H, doc)
    cd = classdata_to_dict(rh_idempotents(H))
    e, t = order[0], order[1]  # a transposition, in a class of three
    doc = dict(cd, F=[[[e, "1"]], [[t, "1"]],
                      [[g, "1"] for g in range(6) if g not in (e, t)]])
    with pytest.raises(VerificationFailed, match="F_1 is not in the character span"):
        classdata_from_dict(H, doc)


# ---------------------------------------------------------------------------
# conjugacy-class coideals


def test_group_coideals_are_class_spans(s3, ks3):
    H, _ = ks3
    cd = rh_idempotents(H)
    cls = s3.conjugacy_data()
    for j in range(len(cd)):
        sub = conjugacy_class_coideal(H, cd, j)
        members = sorted(cd.C[j].vec)
        (ci,) = {cls.class_of[g] for g in members}
        want = Echelon([{g: ONE} for g in cls.elements[ci]])
        assert sub == want


def test_coideal_zero_is_span_of_unit(ds3):
    # F_0 H* = span{lambda/d}, and Lambda <- lambda = 1, so c_0 = k*1
    H, _ = ds3
    cd = rh_idempotents(H)
    sub = conjugacy_class_coideal(H, cd, 0)
    assert sub.rank == 1
    assert sub.contains(H.one().vec)


def test_double_coideals_decompose(ds3):
    H, _ = ds3
    cd = rh_idempotents(H)
    subs = [conjugacy_class_coideal(H, cd, i) for i in range(len(cd))]
    assert sum(s.rank for s in subs) == 36
    total = Echelon()
    for s in subs:
        for v in s.basis():
            total.insert(v)
    assert total.rank == 36


# ---------------------------------------------------------------------------
# membership criterion


def test_membership_verdicts_on_s3(s3, ks3):
    H, _ = ks3
    cd = rh_idempotents(H)
    fr = f_rob(H)
    j_id = class_index_of(s3, cd, "()")
    j_rot = class_index_of(s3, cd, "(1 2 3)")
    j_flip = class_index_of(s3, cd, "(1 2)")
    assert membership_test(H, cd, fr, j_id) == (True, True)
    assert membership_test(H, cd, fr, j_rot) == (True, True)
    assert membership_test(H, cd, fr, j_flip) == (False, False)
    assert fr(cd.eta[j_rot]) == rat(9)
    assert fr(cd.eta[j_flip]) == rat(0)


def test_membership_of_trivial_class(ks3):
    H, _ = ks3
    cd = rh_idempotents(H)
    _, lam = integrals(H)
    assert membership_test(H, cd, lam * rat(6).inverse(), 0) == (True, True)


def test_membership_verdicts_on_q8(q8, kq8):
    H, _ = kq8
    cd = rh_idempotents(H)
    fr = f_rob(H)
    verdicts = {}
    for j in range(len(cd)):
        label = H.labels[min(cd.eta[j].vec)]
        verdicts[label] = membership_test(H, cd, fr, j)[0]
    assert verdicts == {"1": True, "-1": True, "i": False, "j": False, "k": False}


def test_membership_requires_character_span(ks3):
    H, _ = ks3
    cd = rh_idempotents(H)
    with pytest.raises(ValueError):
        membership_test(H, cd, HFunc(H, {1: ONE}), 0)


# ---------------------------------------------------------------------------
# suites


@pytest.mark.parametrize("fix", ["ks3", "kq8", "dc2", "ds3"])
def test_eta_suite_passes(request, fix):
    H, _ = request.getfixturevalue(fix)
    report = theorem_eta_suite(H)
    assert [e for e in report if e["status"] == "fail"] == []
    (probe,) = [e for e in report if e["check"] == "question_fn_pairing_vs_hprime"]
    assert probe["status"] == "evidence"


def test_cas5_identity_direct(kq8):
    H, _ = kq8
    cd = rh_idempotents(H)
    acc = HElem(H, {})
    for i in range(len(cd)):
        s_eta = HElem(H, H.antipode_raw(cd.eta[i].vec))
        acc = acc + (cd.eta[i] * s_eta) * rat(cd.class_dims[i])
    assert acc * rat(8).inverse() == z_n(H, 2)


def test_fusion_coefficients_on_s3(ks3):
    H, irr = ks3
    # chi_2 is the 2-dimensional character; chi_2 s(chi_2) = chi_0 + chi_1 + chi_2
    (i2,) = [i for i, d in enumerate(irr.degrees) if d == 2]
    assert fusion_coefficients(H, i2) == [1, 1, 1]
    assert fusion_coefficients(H, 0) == [1, 0, 0]


def test_kaplansky_on_double(ds3):
    H, _ = ds3
    report = kaplansky_report(H)
    by_name = {e["check"]: e for e in report}
    assert by_name["degrees_divide_dimension"]["status"] == "pass"
    for name in ("frob", "f2", "iterated"):
        assert by_name[f"integral_coefficients[{name}]"]["status"] == "pass"
    assert by_name["iterated_summands_integral"]["status"] == "pass"
    assert by_name["second_indicator_vector"]["status"] == "evidence"


def test_kaplansky_on_group_algebras(ks3, kq8):
    for H, _ in (ks3, kq8):
        report = kaplansky_report(H)
        assert [e for e in report if e["status"] == "fail"] == []


# ---------------------------------------------------------------------------
# Drinfeld map


def test_double_r_matrix_is_quasitriangular_and_factorizable(dc2, ds3):
    for H, _ in (dc2, ds3):
        rdata = r_matrix_data(H)
        assert rdata.factorizable


def test_factorizable_suite_on_doubles(dc2, ds3):
    for H, _ in (dc2, ds3):
        report = factorizable_suite(H, r_matrix_data(H))
        assert [e for e in report if e["status"] == "fail"] == []
        (ev,) = [e for e in report if e["check"] == "drinfeld_map_on_trivial_character"]
        assert ev["witness"]["equals_eta_index"] == 0


def test_drinfeld_map_values_on_double(ds3):
    H, irr = ds3
    rdata = r_matrix_data(H)
    cd = rh_idempotents(H)
    for i in range(1, len(irr)):
        v = drinfeld_map(H, rdata, irr.characters[i])
        matches = [j for j in range(len(cd))
                   if cd.eta[j] * rat(irr.degrees[i]) == v]
        assert len(matches) == 1


def test_trivial_r_matrix_not_factorizable(ks3):
    H, _ = ks3
    rdata = r_matrix_data(H, tensor_of(H.one(), H.one()))
    assert not rdata.factorizable
    with pytest.raises(NotFactorizable):
        factorizable_suite(H, rdata)


def test_broken_r_matrix_rejected(dc2):
    H, _ = dc2
    bad = dict(H.r_matrix)
    key = next(iter(bad))
    bad[key] = bad[key] * rat(2)
    with pytest.raises(NotQuasitriangular):
        r_matrix_data(H, bad)


def _r_delta_failure_on(H, R, basis):
    """The first k of ``basis`` with R Delta(e_k) != Delta^op(e_k) R."""
    for k in basis:
        delta = H.comult_raw({k: ONE})
        if tensor_mult(H, R, delta) != tensor_mult(H, tensor_swap(delta), R):
            return k
    return None


def test_r_delta_on_generators_agrees_with_full_sweep(ks3, ds3):
    # R = 1 (x) 1 satisfies every other axiom, and R Delta = Delta^op R
    # exactly when H is cocommutative
    H, _ = ks3
    R = tensor_of(H.one(), H.one())
    assert _r_delta_failure_on(H, R, range(H.dim)) is None
    r_matrix_data(H, R)
    H, _ = ds3
    R = tensor_of(H.one(), H.one())
    assert _r_delta_failure_on(H, R, range(H.dim)) is not None
    with pytest.raises(NotQuasitriangular, match="Delta\\^op") as err:
        r_matrix_data(H, R)
    k = int(re.search(r"at basis (\d+)", str(err.value)).group(1))
    assert k in generators(H) and _r_delta_failure_on(H, R, [k]) == k
    # p_e (x) e, the first generator, is cocommutative: a later one fails
    assert _r_delta_failure_on(H, R, generators(H)[:1]) is None
    # the double's own R-matrix passes on every basis element
    assert _r_delta_failure_on(H, H.r_matrix, range(H.dim)) is None


def _t3_mult(H, s, t):
    """Componentwise product in H (x) H (x) H."""
    out = {}
    for ka, ca in s.items():
        for kb, cb in t.items():
            legs = [H.mult.get(ab) for ab in zip(ka, kb)]
            if all(legs):
                vec_axpy(out, ca * cb, [((k1, k2, k3), c1 * c2 * c3)
                                        for k1, c1 in legs[0] for k2, c2 in legs[1]
                                        for k3, c3 in legs[2]])
    return out


def _embed(H, R, slot):
    """R with the unit inserted as leg ``slot`` of H (x) H (x) H: slot 2
    gives R_12, slot 1 gives R_13 and slot 0 gives R_23."""
    out = {}
    for ij, c in R.items():
        for u, cu in H.unit_vec.items():
            out[ij[:slot] + (u,) + ij[slot:]] = c * cu
    return out


def _r_axiom_failure_by_t3(H, R):
    """The quasitriangular check with R_13 R_23 and R_13 R_12 multiplied out
    in H (x) H (x) H, and R Delta = Delta^op R on the whole basis: the
    message of the first failing axiom, or None.  ``r_matrix_data`` checked
    the products so before it wrote them as outer products."""
    eps_first, eps_second = {}, {}
    for (i, j), c in R.items():
        vec_axpy(eps_first, c, ((j, H.counit_raw({i: ONE})),))
        vec_axpy(eps_second, c, ((i, H.counit_raw({j: ONE})),))
    if eps_first != H.unit_vec or eps_second != H.unit_vec:
        return "(eps (x) id)R or (id (x) eps)R != 1"
    lhs = {}
    for (i, j), c in R.items():
        vec_axpy(lhs, c, [((a, b, j), x) for (a, b), x in H.comult.get(i, ())])
    if lhs != _t3_mult(H, _embed(H, R, 1), _embed(H, R, 0)):
        return "(Delta (x) id)R != R_13 R_23"
    lhs = {}
    for (i, j), c in R.items():
        vec_axpy(lhs, c, [((i, a, b), x) for (a, b), x in H.comult.get(j, ())])
    if lhs != _t3_mult(H, _embed(H, R, 1), _embed(H, R, 2)):
        return "(id (x) Delta)R != R_13 R_12"
    if _r_delta_failure_on(H, R, range(H.dim)) is not None:
        return "R Delta != Delta^op R"
    return None


def _r_matrix_verdict(H, R):
    try:
        r_matrix_data(H, R)
    except NotQuasitriangular as exc:
        return str(exc).split(" at basis")[0]
    return None


def _r_mutants(H):
    """Every R-matrix with one entry of H's scaled by 2 or moved to the key
    whose second leg is the next basis index."""
    R = H.r_matrix
    for (i, j), c in R.items():
        yield {**R, (i, j): c * rat(2)}
        moved = {key: x for key, x in R.items() if key != (i, j)}
        vec_axpy(moved, ONE, (((i, (j + 1) % H.dim), c),))
        yield moved


def _second_leg_conjugate(H):
    """(1 (x) u) R (1 (x) u^-1) for u = 1 + P, P = p_h (x) e with h != e in
    D(G): it keeps the counit laws and (Delta (x) id)R = R_13 R_23, and
    breaks the other unless u commutes with the 1 (x) g."""
    k = next(i for i in H.unit_vec if not H.counit_raw({i: ONE}))
    u = H.one() + H.elem({k: ONE})
    u_inv = H.one() - H.elem({k: rat(Fraction(1, 2))})
    return tensor_mult(H, tensor_of(H.one(), u),
                       tensor_mult(H, H.r_matrix, tensor_of(H.one(), u_inv)))


def test_r_axioms_as_outer_products_agree_with_the_t3_products(ks3, dc2, ds3):
    cases = [(H, R) for H in (dc2[0], ds3[0]) for R in _r_mutants(H)]
    cases += [(H, tensor_of(H.one(), H.one())) for H in (ks3[0], ds3[0])]
    cases.append((ds3[0], _second_leg_conjugate(ds3[0])))
    verdicts = [_r_matrix_verdict(H, R) for H, R in cases]
    assert verdicts == [_r_axiom_failure_by_t3(H, R) for H, R in cases]
    assert None in verdicts
    assert {"(Delta (x) id)R != R_13 R_23", "(id (x) Delta)R != R_13 R_12"} <= set(verdicts)


def test_missing_r_matrix_rejected(ks3):
    H, _ = ks3
    with pytest.raises(ValueError):
        r_matrix_data(H)


# ---------------------------------------------------------------------------
# section wrapper


def test_sec4_wrapper_full_pass_on_double(ds3):
    H, _ = ds3
    report = theorem_suite_sec4(H)
    assert [e for e in report if e["status"] == "fail"] == []
    names = {e["check"] for e in report}
    assert "drinfeld_map_sends_chi_to_eta" in names
    assert "eta_in_z2^1_coideal_iff_f1_pairing" in names


def test_sec4_wrapper_skips_without_r_matrix(ks3):
    H, _ = ks3
    report = theorem_suite_sec4(H)
    assert [e for e in report if e["status"] == "fail"] == []
    (skip,) = [e for e in report if e["check"] == "factorizable_applicable"]
    assert skip["status"] == "evidence"


def test_sec4_wrapper_skips_non_almost_cocommutative(dual_s3):
    H, _ = dual_s3
    report = theorem_suite_sec4(H)
    assert [e["check"] for e in report] == ["classdata_applicable"]
    assert report[0]["status"] == "evidence"
