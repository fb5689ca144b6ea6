"""Hopf algebra core: builders, axiom verifier, integrals, Frobenius map,
irreducible data, JSON round trip.

Numeric anchors (regular-representation traces, central idempotent
coefficients, degree multisets) are classical facts rederivable by hand.
"""

import json
import random

import pytest

import hopfcomm.hopf as hopf_mod
from hopfcomm.errors import (
    DimMismatch,
    NonIntegerDegree,
    VerificationFailed,
)
from hopfcomm.exactnum import cyc
from hopfcomm.group import cyclic_group, from_perm_generators
from hopfcomm.hopf import (
    HElem,
    HopfAlgebra,
    adjoint,
    build_group_algebra,
    casimir_tensor,
    counit,
    frobenius_psi,
    func_antipode_s,
    func_left_hit,
    func_mult,
    func_right_hit,
    grouplike_functionals,
    hopf_from_dict,
    hopf_to_dict,
    integrals,
    irred_from_dict,
    irred_to_dict,
    irreducibles_generic,
    left_hit,
    memo,
    pair,
    psi_inv,
    random_element,
    random_functional,
    right_hit,
    tensor_flatten,
    theorem_suite_sec1,
    verify_hopf_axioms,
)

ONE = cyc(1)


# -- builders and axioms --


def test_group_algebra_s3_shape(ks3):
    H, irred = ks3
    assert H.dim == 6
    assert H.kind == "group"
    assert tuple(irred.degrees) == (1, 1, 2)
    report = verify_hopf_axioms(H)
    assert all(r["status"] == "pass" for r in report)
    names = {r["check"] for r in report}
    assert "associativity" in names and "antipode" in names


def test_dual_group_algebra_s3(dual_s3):
    H, irred = dual_s3
    assert H.dim == 6
    assert irred.degrees == (1,) * 6
    # commutative: p_a p_b = p_b p_a
    for i in range(6):
        for j in range(6):
            assert H.mul_raw({i: ONE}, {j: ONE}) == H.mul_raw({j: ONE}, {i: ONE})


def test_double_c2_shape(dc2):
    H, irred = dc2
    assert H.dim == 4
    assert irred.degrees == (1, 1, 1, 1)
    for i in range(4):
        for j in range(4):
            assert H.mul_raw({i: ONE}, {j: ONE}) == H.mul_raw({j: ONE}, {i: ONE})


def test_double_s3_degrees(ds3):
    H, irred = ds3
    assert H.dim == 36
    assert sorted(irred.degrees) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert irred.degrees[0] == 1  # trivial first
    assert H.r_matrix is not None


def test_drinfeld_double_r_matrix_size(dc2):
    H, _ = dc2
    # R = sum_g (p_g x e) x (1 x g) has |G|^2 terms
    assert len(H.r_matrix) == 4


# -- axiom verifier catches mutants --


def _ks3_raw(s3):
    n = s3.order
    mult = {(i, j): ((s3.table[i][j], 1),) for i in range(n) for j in range(n)}
    comult = {i: (((i, i), 1),) for i in range(n)}
    antipode = {i: ((s3.inverse(i), 1),) for i in range(n)}
    return dict(dim=n, mult=mult, comult=comult, unit={s3.identity: 1},
                counit={i: 1 for i in range(n)}, antipode=antipode,
                cyc_order=6)


def test_mutated_mult_fails_with_witness(s3):
    raw = _ks3_raw(s3)
    g = next(i for i in range(6) if i != s3.identity)
    raw["mult"] = dict(raw["mult"])
    raw["mult"][(g, g)] = ((g, 1),)  # force g*g = g
    H = HopfAlgebra(**raw, check=False)
    report = verify_hopf_axioms(H)
    bad = {r["check"]: r for r in report if r["status"] == "fail"}
    assert "associativity" in bad
    assert bad["associativity"]["witness"] is not None
    with pytest.raises(VerificationFailed):
        HopfAlgebra(**raw)


def test_mutated_antipode_fails(s3):
    raw = _ks3_raw(s3)
    g = next(i for i in range(6) if s3.inverse(i) not in (i,))
    raw["antipode"] = dict(raw["antipode"])
    raw["antipode"][g] = ((g, 1),)  # S(g) = g instead of g^-1
    H = HopfAlgebra(**raw, check=False)
    report = verify_hopf_axioms(H)
    assert any(r["check"] == "antipode" and r["status"] == "fail" for r in report)


def test_mutated_coefficient_fails(s3):
    raw = _ks3_raw(s3)
    raw["mult"] = dict(raw["mult"])
    raw["mult"][(s3.identity, s3.identity)] = ((s3.identity, 2),)
    with pytest.raises(VerificationFailed):
        HopfAlgebra(**raw)


# -- integrals --


def test_integrals_ks3(ks3, s3):
    H, _ = ks3
    lam, dual = integrals(H)
    sixth = cyc("1/6")
    assert lam.vec == {g: sixth for g in range(6)}
    # regular character: 6 at the identity, 0 elsewhere
    assert dual.vec == {s3.identity: cyc(6)}
    assert pair(dual, lam) == ONE
    assert lam * lam == lam
    for i in range(6):
        b = HElem(H, {i: ONE})
        assert b * lam == counit(b) * lam == lam * b


def test_integrals_dual_group(dual_s3, s3):
    H, _ = dual_s3
    lam, dual = integrals(H)
    assert lam.vec == {s3.identity: ONE}
    assert dual.vec == {g: ONE for g in range(6)}


def test_integrals_double(dc2):
    H, _ = dc2
    lam, dual = integrals(H)
    # Lambda = (1/|G|) sum_h p_e x h
    half = cyc("1/2")
    assert lam.vec == {0 * 2 + h: half for h in range(2)}
    assert pair(dual, lam) == ONE


def test_casimir_tensor_flattens_to_unit(ks3, dc2):
    for H, _ in (ks3, dc2):
        cas = casimir_tensor(H)
        assert tensor_flatten(H, cas) == H.unit_vec


# -- Frobenius map --


@pytest.mark.parametrize("which", ["ks3", "dual_s3", "dc2"])
def test_psi_round_trip_random(which, request):
    H, _ = request.getfixturevalue(which)
    rng = random.Random(7)
    for _ in range(100):
        h = random_element(H, rng)
        assert psi_inv(H, frobenius_psi(H, h)) == h
        p = random_functional(H, rng)
        assert frobenius_psi(H, psi_inv(H, p)) == p


def test_psi_maps_idempotents_to_characters(ks3, dc2):
    for H, irred in (ks3, dc2):
        for deg, E, chi in zip(irred.degrees, irred.idempotents,
                               irred.characters):
            assert frobenius_psi(H, E) == deg * func_antipode_s(chi)


def test_psi_of_integral_is_counit(ks3):
    H, _ = ks3
    lam, _ = integrals(H)
    assert frobenius_psi(H, lam) == H.eps()


# -- hit actions --


@pytest.mark.parametrize("which", ["ks3", "dc2"])
def test_hit_adjunctions_random(which, request):
    H, _ = request.getfixturevalue(which)
    rng = random.Random(3)
    for _ in range(25):
        h = random_element(H, rng)
        p = random_functional(H, rng)
        q = random_functional(H, rng)
        # <q, h <- p> = <pq, h> and <q, p -> h> = <qp, h>
        assert pair(q, right_hit(h, p)) == pair(func_mult(p, q), h)
        assert pair(q, left_hit(p, h)) == pair(func_mult(q, p), h)
        a = random_element(H, rng)
        b = random_element(H, rng)
        # <p <- a, b> = <p, ab> and <a -> p, b> = <p, ba>
        assert pair(func_right_hit(p, a), b) == pair(p, a * b)
        assert pair(func_left_hit(a, p), b) == pair(p, b * a)


def test_adjoint_of_integral_is_central(ks3, dc2):
    for H, _ in (ks3, dc2):
        lam, _ = integrals(H)
        rng = random.Random(11)
        for _ in range(5):
            h = random_element(H, rng)
            c = adjoint(lam, h)
            for k in range(H.dim):
                b = HElem(H, {k: ONE})
                assert b * c == c * b


def test_adjoint_group_algebra_is_conjugation(ks3, s3):
    H, _ = ks3
    for g in range(6):
        for x in range(6):
            got = adjoint(HElem(H, {g: ONE}), HElem(H, {x: ONE}))
            assert got == HElem(H, {s3.conj(x, g): ONE})


def test_dim_mismatch_raises(ks3, dc2):
    (H1, _), (H2, _) = ks3, dc2
    with pytest.raises(DimMismatch):
        H1.one() * H2.one()


# -- central decomposition identities --


def test_central_element_expansion(kq8):
    # z central => z = sum (1/d_i) <chi_i, z> E_i
    H, irred = kq8
    rng = random.Random(5)
    coeffs = [cyc(rng.randrange(-3, 4)) for _ in irred.degrees]
    z = HElem(H, {})
    for c, E in zip(coeffs, irred.idempotents):
        z = z + c * E
    back = HElem(H, {})
    for deg, E, chi in zip(irred.degrees, irred.idempotents, irred.characters):
        back = back + (cyc(f"1/{deg}") * chi(z)) * E
    assert back == z


def test_character_hit_by_central(kq8):
    # chi_i <- z = (1/d_i) <chi_i, z> chi_i for central z
    H, irred = kq8
    z = HElem(H, {})
    for t, E in enumerate(irred.idempotents):
        z = z + cyc(t + 1) * E
    for deg, chi in zip(irred.degrees, irred.characters):
        lhs = func_right_hit(chi, z)
        rhs = (cyc(f"1/{deg}") * chi(z)) * chi
        assert lhs == rhs


# -- generic irreducibles (structure constants only) --


def _match_irred(a, b):
    """Same irreducible data up to ordering; trivial row pinned at 0."""
    assert sorted(a.degrees) == sorted(b.degrees)
    assert a.idempotents[0] == b.idempotents[0]
    used = set()
    for E, deg, chi in zip(a.idempotents, a.degrees, a.characters):
        hit = None
        for j, E2 in enumerate(b.idempotents):
            if j not in used and E2 == E:
                hit = j
                break
        assert hit is not None, "idempotent not matched"
        used.add(hit)
        assert b.degrees[hit] == deg
        assert b.characters[hit] == chi


def test_generic_irreducibles_kc2():
    H, irred = build_group_algebra(cyclic_group(2))
    _match_irred(irred, irreducibles_generic(H))


def test_generic_irreducibles_ks3(ks3):
    H, irred = ks3
    _match_irred(irred, irreducibles_generic(H))


def test_generic_irreducibles_kq8(kq8):
    H, irred = kq8
    _match_irred(irred, irreducibles_generic(H))


def test_generic_irreducibles_dual(dual_s3):
    H, irred = dual_s3
    _match_irred(irred, irreducibles_generic(H))


def test_generic_irreducibles_double_c2(dc2):
    H, irred = dc2
    _match_irred(irred, irreducibles_generic(H))


def test_generic_irreducibles_double_s3(ds3):
    H, irred = ds3
    _match_irred(irred, irreducibles_generic(H))


def test_generic_irreducibles_deterministic(kq8):
    H, _ = kq8
    a = irreducibles_generic(H, seed=0)
    b = irreducibles_generic(H, seed=0)
    assert [e.vec for e in a.idempotents] == [e.vec for e in b.idempotents]
    assert a.degrees == b.degrees


# -- grouplikes --


def test_grouplikes_ks3(ks3):
    H, _ = ks3
    gl = grouplike_functionals(H)
    assert len(gl) == 2  # trivial and sign


def test_grouplikes_ka3():
    H, _ = build_group_algebra(from_perm_generators("A3", [[[1, 2, 3]]]))
    assert len(grouplike_functionals(H)) == 3


def test_grouplikes_dual(dual_s3):
    H, _ = dual_s3
    assert len(grouplike_functionals(H)) == 6


# -- JSON round trip --


def test_json_round_trip(ks3):
    H, irred = ks3
    blob = json.dumps(hopf_to_dict(H))
    H2 = hopf_from_dict(json.loads(blob))
    assert H2.dim == H.dim
    assert H2.mult == H.mult
    assert H2.comult == H.comult
    assert H2.antipode == H.antipode
    assert H2.unit_vec == H.unit_vec
    assert H2.counit_vec == H.counit_vec
    blob2 = json.dumps(irred_to_dict(irred))
    irred2 = irred_from_dict(H2, json.loads(blob2))
    assert irred2.degrees == irred.degrees


def test_json_round_trip_double(dc2):
    H, _ = dc2
    H2 = hopf_from_dict(json.loads(json.dumps(hopf_to_dict(H))))
    assert H2.r_matrix == H.r_matrix


def test_json_malformed_raises():
    with pytest.raises(ValueError):
        hopf_from_dict({"dim": 2, "mult": []})


@pytest.mark.parametrize("field, entry", [
    ("comult", [7, 0, 0, "1"]),
    ("mult", [9, 0, 0, "1"]),
    ("antipode", [0, 3, "1"]),
    ("unit", [-1, "1"]),
])
def test_json_index_outside_basis_raises(field, entry):
    # The verifier reads only entries inside the basis, so an outside index
    # must be rejected on load.
    H, _ = build_group_algebra(cyclic_group(3))
    data = json.loads(json.dumps(hopf_to_dict(H)))
    data[field].append(entry)
    with pytest.raises(ValueError, match="outside range"):
        hopf_from_dict(data)


def _kc3_dump(cyc_order=3):
    H, irred = build_group_algebra(cyclic_group(3))
    data = json.loads(json.dumps(hopf_to_dict(H)))
    data["cyc_order"] = cyc_order
    return data, json.loads(json.dumps(irred_to_dict(irred)))


def test_json_coefficient_outside_cyc_order_raises():
    # kC3 with one structure constant turned into zeta_3 and cyc_order 1:
    # the coefficient lies outside Q(zeta_1), so the load names the field.
    data, _ = _kc3_dump(cyc_order=1)
    data["mult"][0][3] = {"order": 3, "coeffs": ["0", "1"]}
    with pytest.raises(ValueError, match="mult .*cyc_order 1"):
        hopf_from_dict(data)


def test_json_irred_outside_cyc_order_raises():
    # The kC3 idempotents need zeta_3; a dump that claims cyc_order 1 lies.
    data, irred = _kc3_dump(cyc_order=1)
    H = hopf_from_dict(data)  # the structure constants are rational
    with pytest.raises(ValueError, match="irred.idempotents .*cyc_order 1"):
        irred_from_dict(H, irred)


def test_json_cyc_order_must_be_positive():
    data, _ = _kc3_dump(cyc_order=0)
    with pytest.raises(ValueError, match="cyc_order"):
        hopf_from_dict(data)


def test_json_corrupted_tensor_raises(ks3):
    H, _ = ks3
    data = hopf_to_dict(H)
    data = json.loads(json.dumps(data))
    data["mult"][0][3] = "2"  # scale one structure constant
    with pytest.raises(VerificationFailed):
        hopf_from_dict(data)


def test_json_corrupted_irred_raises(ks3):
    H, irred = ks3
    data = json.loads(json.dumps(irred_to_dict(irred)))
    data["degrees"][2] = 3
    with pytest.raises(VerificationFailed):
        irred_from_dict(H, data)


# -- degree failure path --


def test_non_integer_degree_detected():
    # The 2x2 split algebra k x k with a scaled trace cannot occur from a
    # Hopf algebra; force the error through a fake instance with check=False
    # and a unit that is not the sum of honest idempotent traces.
    H = HopfAlgebra(
        dim=2,
        mult={(0, 0): ((0, 1),), (0, 1): ((1, 1),),
              (1, 0): ((1, 1),), (1, 1): ((0, 1), (1, 1))},
        comult={0: (((0, 0), 1),), 1: (((1, 1), 1),)},
        unit={0: 1},
        counit={0: 1, 1: 1},
        antipode={0: ((0, 1),), 1: ((1, 1),)},
        cyc_order=1,
        check=False,
    )
    with pytest.raises((NonIntegerDegree, VerificationFailed)):
        irreducibles_generic(H)


# -- per-instance memo --


def test_sec1_reuses_the_axiom_report_of_the_build(ks3, monkeypatch):
    # A check=True instance verified its axioms when it was built; sec1 reads
    # that report and runs no second sweep.
    H, _ = ks3
    axioms = {e["check"] for e in verify_hopf_axioms(H)}
    sweeps = []
    check_all = hopf_mod._check_all

    def counted(name, it, report):
        sweeps.append(name)
        return check_all(name, it, report)

    monkeypatch.setattr(hopf_mod, "_check_all", counted)
    report = theorem_suite_sec1(H)
    assert axioms.isdisjoint(sweeps)
    assert {"check": "hopf_axioms_pass", "status": "pass"} in report
    assert verify_hopf_axioms(H) is verify_hopf_axioms(H)


def test_unchecked_instance_verifies_on_demand(s3):
    H = HopfAlgebra(**_ks3_raw(s3), check=False)
    assert H._memo == {}
    assert all(e["status"] == "pass" for e in verify_hopf_axioms(H))


def test_memo_keys_by_arguments_and_does_not_store_errors(ks3):
    H, _ = ks3
    runs = []

    @memo
    def probe(H, n):
        runs.append(n)
        if n < 0:
            raise ValueError("negative")
        return [n]

    assert probe(H, 1) is probe(H, 1)
    assert probe(H, 2) == [2]
    for _ in range(2):
        with pytest.raises(ValueError):
            probe(H, -1)
    assert runs == [1, 2, -1, -1]


def test_integrals_are_shared(ks3):
    H, _ = ks3
    assert integrals(H)[0] is integrals(H)[0]
