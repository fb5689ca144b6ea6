"""Hopf algebra core: builders, axiom verifier, integrals, Frobenius map,
irreducible data, JSON round trip.

Numeric anchors (regular-representation traces, central idempotent
coefficients, degree multisets) are classical facts rederivable by hand.
"""

import copy
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hopfcomm.hopf as hopf_mod
from hopfcomm import runlog
from hopfcomm._linalg import Echelon, nullspace, vec_axpy, vec_scale
from hopfcomm.cli import main
from hopfcomm.classdata import classdata_to_dict, require_classdata, rh_idempotents
from hopfcomm.errors import (
    DimMismatch,
    HopfcommError,
    NonIntegerDegree,
    VerificationFailed,
)
from hopfcomm.exactnum import cyc
from hopfcomm.group import cyclic_group, from_perm_generators, load_group
from hopfcomm.hopf import (
    HElem,
    HopfAlgebra,
    adjoint_row,
    build_drinfeld_double,
    build_dual_group_algebra,
    build_group_algebra,
    casimir_tensor,
    frobenius_psi,
    func_antipode_s,
    generators,
    grouplike_functionals,
    hopf_from_dict,
    hopf_to_dict,
    integrals,
    irred_from_dict,
    irred_to_dict,
    irreducibles_generic,
    memo,
    psi_inv,
    random_element,
    random_functional,
    tensor_flatten,
    tensor_mult,
    tensor_of,
    theorem_suite_sec1,
    verify_hopf_axioms,
)

from test_classdata import classdata_from_dict

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


def _hand_tables(kind, G):
    """The tables of kG, k^G or D(G), each written out from that algebra's own
    product, coproduct and antipode, independently of ``_smash_tables``."""
    n = G.order
    inv = G.inverse
    if kind == "group":
        return dict(
            dim=n,
            mult={i: {j: ((G.table[i][j], 1),) for j in range(n)} for i in range(n)},
            comult={i: (((i, i), 1),) for i in range(n)},
            antipode={i: ((inv(i), 1),) for i in range(n)},
            unit={G.identity: 1},
            counit={i: 1 for i in range(n)})
    if kind == "dualgroup":
        # p_a p_b = [a = b] p_a; Delta p_g = sum_a p_a (x) p_{a^-1 g}
        return dict(
            dim=n,
            mult={i: {i: ((i, 1),)} for i in range(n)},
            comult={g: tuple(((a, G.mul(inv(a), g)), 1) for a in range(n))
                    for g in range(n)},
            antipode={i: ((inv(i), 1),) for i in range(n)},
            unit={i: 1 for i in range(n)},
            counit={G.identity: 1})
    # D(G) on p_g (x) h, indexed g*n + h:
    # (p_g (x) h)(p_g' (x) h') = [g' = h^-1 g h] p_g (x) hh'
    mult = {}
    for g in range(n):
        for h in range(n):
            gp = G.conj(g, inv(h))
            mult[g * n + h] = {gp * n + h2: ((g * n + G.mul(h, h2), 1),) for h2 in range(n)}
    return dict(
        dim=n * n,
        mult=mult,
        comult={g * n + h: tuple(((a * n + h, G.mul(inv(a), g) * n + h), 1)
                                 for a in range(n))
                for g in range(n) for h in range(n)},
        antipode={g * n + h: ((G.conj(inv(g), inv(h)) * n + inv(h), 1),)
                  for g in range(n) for h in range(n)},
        unit={g * n + G.identity: 1 for g in range(n)},
        counit={G.identity * n + h: 1 for h in range(n)},
        r_matrix={(g * n + G.identity, gp * n + g): 1
                  for g in range(n) for gp in range(n)})


@pytest.mark.parametrize("group", ["s3", "q8", "a4"])
@pytest.mark.parametrize("kind, build", [("group", build_group_algebra),
                                         ("dualgroup", build_dual_group_algebra),
                                         ("double", build_drinfeld_double)])
def test_builders_match_hand_written_tables(kind, build, group, request):
    G = request.getfixturevalue(group)
    H, _ = build(G)
    oracle = HopfAlgebra(**_hand_tables(kind, G), check=False)
    assert H.dim == oracle.dim
    assert H.mult == oracle.mult
    assert H.comult == oracle.comult  # terms compared in order
    assert H.antipode == oracle.antipode
    assert H.unit_vec == oracle.unit_vec
    assert H.counit_vec == oracle.counit_vec
    assert H.r_matrix == oracle.r_matrix


def test_smash_tables_refuse_an_action_not_by_automorphisms(s3):
    # left translation f.n = fn is a group action, but not by automorphisms
    with pytest.raises(VerificationFailed, match="comult_algebra_map"):
        HopfAlgebra(**hopf_mod._smash_tables(s3, s3, s3.mul))


def _ks3_raw(s3):
    return dict(_hand_tables("group", s3), cyc_order=6)


def _with_product(mult, i, j, terms):
    """A copy of the rows ``mult`` with the product e_i e_j set to ``terms``."""
    return {**mult, i: {**mult.get(i, {}), j: terms}}


def test_mutated_mult_fails_with_witness(s3):
    raw = _ks3_raw(s3)
    g = next(i for i in range(6) if i != s3.identity)
    raw["mult"] = _with_product(raw["mult"], g, g, ((g, 1),))  # force g*g = g
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
    raw["mult"] = _with_product(raw["mult"], s3.identity, s3.identity, ((s3.identity, 2),))
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
    assert dual(lam) == ONE
    assert lam * lam == lam
    for i in range(6):
        b = HElem(H, {i: ONE})
        assert b * lam == H.counit_raw(b.vec) * lam == lam * b


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
    assert dual(lam) == ONE


def _integral_by_nullspace(H):
    # the derivation that integrals replaced: Lambda spans the nullspace of
    # h -> e_i h - eps(e_i) h over the generators, scaled to eps(Lambda) = 1,
    # and lambda is summed off the table one (i, j) pair at a time
    d = H.dim
    rows = hopf_mod._closed_basis(H)

    def left_mult_minus_counit(i):
        eps_i = H.counit_raw({i: ONE})
        for j in range(d):
            col = H.mul_raw({i: ONE}, {j: ONE})
            vec_axpy(col, -eps_i, ((j, ONE),))
            yield col

    space = nullspace((left_mult_minus_counit(i) for i in rows), d, ONE)
    assert len(space) == 1
    cand = space[0]
    lam_vec = vec_scale(cand, H.counit_raw(cand).inverse())
    lam_func = {}
    for i in range(d):
        acc = cyc(0)
        for j in range(d):
            for k, c in H.mult.get(i, {}).get(j, ()):
                if k == j:
                    acc = acc + c
        if acc:
            lam_func[i] = acc
    return lam_vec, lam_func


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3", "dq8", "ks4c2"])
def test_integrals_match_the_nullspace_solve(which, request):
    H, _ = request.getfixturevalue(which)
    lam, dual = integrals(H)
    assert (lam.vec, dual.vec) == _integral_by_nullspace(H)


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
        assert q(H.elem(H.right_hit_raw(h.vec, p.vec))) == (p * q)(h)
        assert q(H.elem(H.left_hit_raw(p.vec, h.vec))) == (q * p)(h)
        a = random_element(H, rng)
        b = random_element(H, rng)
        # <p <- a, b> = <p, ab> and <a -> p, b> = <p, ba>
        assert H.func(H.func_right_hit_raw(p.vec, a.vec))(b) == p(a * b)
        assert H.func(H.func_left_hit_raw(a.vec, p.vec))(b) == p(b * a)


def test_adjoint_of_integral_is_central(ks3, dc2):
    for H, _ in (ks3, dc2):
        lam, _ = integrals(H)
        rng = random.Random(11)
        for _ in range(5):
            h = random_element(H, rng)
            c = H.elem(H.adjoint_raw(lam.vec, h.vec))
            for k in range(H.dim):
                b = HElem(H, {k: ONE})
                assert b * c == c * b


def test_adjoint_group_algebra_is_conjugation(ks3, s3):
    H, _ = ks3
    for g in range(6):
        for x in range(6):
            assert H.adjoint_raw({g: ONE}, {x: ONE}) == {s3.conj(x, g): ONE}


def _adjoint_by_loop(H, h, a):
    """The adjoint action as HopfAlgebra.adjoint_raw computed it before it
    read the table: sum (e_j a) S(e_k) over Delta h = sum e_j (x) e_k, kept
    verbatim as a reference."""
    # h .ad a = sum h_1 a S(h_2)
    out: dict = {}
    for i, ci in h.items():
        for (j, k), c in H.comult.get(i, ()):
            left = H.mul_raw({j: ONE}, a)
            term = H.mul_raw(left, dict(H.antipode.get(k, ())))
            vec_axpy(out, ci * c, term.items())
    return out


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3", "dq8"])
def test_adjoint_table_matches_the_loop(request, which):
    H, _ = request.getfixturevalue(which)
    rng = random.Random(13)
    for _ in range(8):
        h = random_element(H, rng, 0.2).vec
        a = random_element(H, rng, 0.2).vec
        assert H.adjoint_raw(h, a) == _adjoint_by_loop(H, h, a)
    for i in range(H.dim):
        # only nonzero values are stored
        assert all(adjoint_row(H, i).values())


@pytest.mark.parametrize("which", ["ks3", "dual_s3", "ds3"])
def test_tensor_sandwich_matches_the_products(request, which):
    # sum t[(i, j)] e_i h e_j, each term by two mul_raw calls, for h a basis
    # vector (as Z_n_map sandwiches it) and a sparse random h
    H, _ = request.getfixturevalue(which)
    rng = random.Random(5)
    t = dict(hopf_mod.casimir_tensor(H))
    vec_axpy(t, ONE, hopf_mod.tensor_of(random_element(H, rng, 0.2),
                                        random_element(H, rng, 0.2)).items())
    for h in [{k: ONE} for k in range(H.dim)] + [random_element(H, rng, 0.3).vec]:
        want: dict = {}
        for (i, j), c in t.items():
            vec_axpy(want, c, H.mul_raw(H.mul_raw({i: ONE}, h), {j: ONE}).items())
        assert hopf_mod._tensor_sandwich(H, t, h) == want


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
        lhs = H.func(H.func_right_hit_raw(chi.vec, z.vec))
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


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3"])
def test_grouplikes_are_algebra_maps(which, request):
    # The multiplicativity sweep that grouplike_functionals no longer makes,
    # as an oracle over every basis pair.
    H, irred = request.getfixturevalue(which)
    gl = grouplike_functionals(H)
    assert len(gl) == irred.degrees.count(1)
    for sigma in gl:
        assert sigma(H.one()) == ONE
        for i in range(H.dim):
            for j in range(H.dim):
                prod = HElem(H, H.mul_raw({i: ONE}, {j: ONE}))
                assert sigma(prod) == sigma.vec.get(i, cyc(0)) * sigma.vec.get(j, cyc(0))


# -- the irreducible-data certificate --


def _irred_pairing_failure(H, idems, degrees, chars):
    """The checks ``_verify_irred`` made before it read (d_i, chi_i) off each
    E_i, kept as an oracle: sum d_i^2 = dim, <chi_i, E_j> = delta_ij d_j and
    <chi_i s(chi_j), Lambda> = delta_ij.  The first failure, or None."""
    n = len(idems)
    if sum(x * x for x in degrees) != H.dim:
        return "sum of squared degrees"
    integral, _ = integrals(H)
    for i in range(n):
        for j in range(n):
            if chars[i](idems[j]) != (degrees[j] if i == j else 0):
                return f"<chi_{i}, E_{j}>"
            if (chars[i] * func_antipode_s(chars[j]))(integral) != (1 if i == j else 0):
                return f"<chi_{i} s(chi_{j}), Lambda>"
    return None


def _certificate_refuses(H, idems, degrees, chars):
    try:
        hopf_mod._verify_irred(H, [(e.vec, d, chi.vec)
                                   for e, d, chi in zip(idems, degrees, chars)])
    except (VerificationFailed, NonIntegerDegree):
        return True
    return False


def _irred_mutants(H, irred):
    """(idems, degrees, chars) with one character coefficient changed, two
    different degrees swapped, or one E_i scaled by 2."""
    idems, degrees, chars = irred.idempotents, irred.degrees, irred.characters
    n = len(degrees)
    for i, chi in enumerate(chars):
        for k in range(H.dim):
            vec = dict(chi.vec)
            vec_axpy(vec, ONE, [(k, ONE)])
            yield idems, degrees, chars[:i] + (H.func(vec),) + chars[i + 1:]
    for i in range(n):
        for j in range(i + 1, n):
            if degrees[i] != degrees[j]:
                swapped = list(degrees)
                swapped[i], swapped[j] = degrees[j], degrees[i]
                yield idems, tuple(swapped), chars
    for i in range(n):
        scaled = H.elem(vec_scale(idems[i].vec, cyc(2)))
        yield idems[:i] + (scaled,) + idems[i + 1:], degrees, chars


def _irred_tuples(irred):
    return irred.idempotents, irred.degrees, irred.characters


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3"])
def test_certificate_refuses_what_the_pairing_loops_refuse(which, request):
    H, irred = request.getfixturevalue(which)
    assert _irred_pairing_failure(H, *_irred_tuples(irred)) is None
    assert not _certificate_refuses(H, *_irred_tuples(irred))
    accepted_by_oracle = 0
    for mutant in _irred_mutants(H, irred):
        if _irred_pairing_failure(H, *mutant) is None:
            accepted_by_oracle += 1
        assert _certificate_refuses(H, *mutant)
    # The loops read a character only where some E_j or Lambda has support:
    # on D(S3) they accept each of the 8 characters changed at any of the 18
    # basis elements p_g h with gh != hg.
    assert accepted_by_oracle == (8 * 18 if which == "ds3" else 0)


@pytest.fixture(scope="module")
def ka5():
    spec = json.loads((Path(__file__).resolve().parent / "golden" / "specs"
                       / "A5.json").read_text())
    return build_group_algebra(load_group(spec))


def _merged_irred(irred, a, b):
    """Irreducible data with irreducibles a and b merged into one of degree
    d_c = sqrt(d_a^2 + d_b^2): E = E_a + E_b and chi = (d_a chi_a + d_b
    chi_b)/d_c, which passes every check of the pairing oracle."""
    da, db = irred.degrees[a], irred.degrees[b]
    dc = math.isqrt(da * da + db * db)
    assert dc * dc == da * da + db * db
    E = irred.idempotents[a] + irred.idempotents[b]
    chi = (cyc(Fraction(da, dc)) * irred.characters[a]
           + cyc(Fraction(db, dc)) * irred.characters[b])

    def merge(xs, x):
        return tuple(x if k == a else y for k, y in enumerate(xs) if k != b)

    return hopf_mod.IrredData(idempotents=merge(irred.idempotents, E),
                              degrees=merge(irred.degrees, dc),
                              characters=merge(irred.characters, chi))


def test_certificate_refuses_merged_irreducibles_of_ka5(ka5, tmp_path):
    # kA5 has degrees 1, 3, 3, 4, 5; a 3 and the 4 merged into a fake 5
    # (3^2 + 4^2 = 5^2) pass the pairing loops, but four idempotents do not
    # split a five-dimensional center.
    H, irred = ka5
    assert irred.degrees == (1, 3, 3, 4, 5)
    merged = _merged_irred(irred, 1, 3)
    assert _irred_pairing_failure(H, *_irred_tuples(merged)) is None
    doc = irred_to_dict(merged)
    with pytest.raises(VerificationFailed, match="4 idempotents for a center of dimension 5"):
        irred_from_dict(H, doc)
    path = tmp_path / "ka5_merged.json"
    path.write_text(json.dumps(dict(hopf_to_dict(H), irred=doc)))
    assert main(["compute", "frob", "--hopf", str(path)]) == 3


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


@pytest.mark.parametrize("field, value", [
    ("mult", True),
    ("mult", 1.0),
    ("unit", {"order": "1", "coeffs": ["1"]}),
    ("unit", {"order": 1.9, "coeffs": ["1"]}),
    ("unit", {"order": 1, "coeffs": [1.0]}),
], ids=["mult-true", "mult-float", "order-string", "order-float", "coeffs-float"])
def test_json_coefficient_must_be_written_as_dumps_write_it(field, value):
    # Dumps write a coefficient as a string or an {order, coeffs} dict with
    # an integer order and string coeffs; each edit keeps the value 1.
    data, _ = _kc3_dump()
    data[field][0][-1] = value
    with pytest.raises(ValueError, match="coefficient"):
        hopf_from_dict(data)


@pytest.fixture(scope="module")
def kc3_doc():
    H, irred = build_group_algebra(cyclic_group(3))
    return json.loads(json.dumps({"hopf": hopf_to_dict(H), "irred": irred_to_dict(irred),
                                  "classdata": classdata_to_dict(rh_idempotents(H))}))


def _places(node, out):
    """Every (container, key) inside a JSON document, depth first."""
    keys = range(len(node)) if isinstance(node, list) else node.keys()
    for key in list(keys):
        out.append((node, key))
        if isinstance(node[key], (list, dict)):
            _places(node[key], out)
    return out


_SWAPS = [None, True, 0, -1, 2, 1.5, "x", "1/0", [], {}, [0], [[0, "1"]],
          {"order": 3}, {"order": "x", "coeffs": ["1"]}]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loaders_refuse_mutated_dumps_with_typed_errors(kc3_doc, data):
    # Swap a value for one of another type, drop or repeat an entry (which
    # also changes list lengths), a few times over; the three loaders either
    # accept the result or raise ValueError or a HopfcommError.
    doc = copy.deepcopy(kc3_doc)
    for _ in range(data.draw(st.integers(1, 3))):
        places = _places(doc, [])
        node, key = places[data.draw(st.integers(0, len(places) - 1))]
        op = data.draw(st.sampled_from(["swap", "drop", "repeat"]))
        if op == "swap":
            node[key] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))
        elif op == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
    try:
        H = hopf_from_dict(doc.get("hopf"))
        H.irred = irred_from_dict(H, doc.get("irred"))
        classdata_from_dict(H, doc.get("classdata"))
    except (ValueError, HopfcommError):
        pass


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


def test_json_irred_out_of_order_raises(ks3):
    # every (d_i, chi_i) is still read off its E_i; only E_0 = Lambda fails
    H, irred = ks3
    data = json.loads(json.dumps(irred_to_dict(irred)))
    for key in data:
        data[key][0], data[key][1] = data[key][1], data[key][0]
    with pytest.raises(VerificationFailed, match="E_0 != Lambda"):
        irred_from_dict(H, data)


# -- degree failure path --


def test_non_integer_degree_detected():
    # The 2x2 split algebra k x k with a scaled trace cannot occur from a
    # Hopf algebra; Delta is not multiplicative on this fake instance, so it
    # is refused before any idempotent is split or any degree is read (the
    # test below reaches NonIntegerDegree on a checked instance).
    H = HopfAlgebra(
        dim=2,
        mult={0: {0: ((0, 1),), 1: ((1, 1),)},
              1: {0: ((1, 1),), 1: ((0, 1), (1, 1))}},
        comult={0: (((0, 0), 1),), 1: (((1, 1), 1),)},
        unit={0: 1},
        counit={0: 1, 1: 1},
        antipode={0: ((0, 1),), 1: ((1, 1),)},
        cyc_order=1,
        check=False,
    )
    with pytest.raises(VerificationFailed, match="Hopf axiom 'comult_algebra_map'"):
        irreducibles_generic(H)


def test_non_integer_degree_detected_on_a_checked_instance(ks3):
    # E_1 + E_2 of kS3 is a central idempotent but not a primitive one:
    # Tr(L_E) = 1 + 4 = 5 is not a square
    H, irred = ks3
    assert irred.degrees[1:] == (1, 2)
    e = irred.idempotents[1] + irred.idempotents[2]
    with pytest.raises(NonIntegerDegree, match="Tr\\(L_E\\) = 5 "):
        hopf_mod._degree_and_character(H, e.vec)


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


# -- generating sets, and the full sweep as an oracle for the verifier --


def _full_sweep_report(H):
    """Every Hopf axiom on every basis pair and triple: the d^3/d^2 sweep
    that verify_hopf_axioms replaced by checks on generators, kept as the
    oracle for its pass/fail verdicts."""
    d = H.dim
    report = []
    basis = [H.basis_vec(i) for i in range(d)]
    check_all = hopf_mod._check_all

    def assoc():
        for i in range(d):
            for j in range(d):
                ij = H.mul_raw(basis[i], basis[j])
                for k in range(d):
                    left = H.mul_raw(ij, basis[k])
                    right = H.mul_raw(basis[i], H.mul_raw(basis[j], basis[k]))
                    yield (i, j, k), left == right

    check_all("associativity", assoc(), report)

    def unit_law():
        one = H.unit_vec
        for i in range(d):
            yield i, H.mul_raw(one, basis[i]) == basis[i] == H.mul_raw(basis[i], one)

    check_all("unit", unit_law(), report)

    def coassoc():
        for i in range(d):
            left, right = {}, {}
            for (j, k), c in H.comult.get(i, ()):
                vec_axpy(left, c, [((a, b, k), c2) for (a, b), c2 in H.comult.get(j, ())])
                vec_axpy(right, c, [((j, a, b), c2) for (a, b), c2 in H.comult.get(k, ())])
            yield i, left == right

    check_all("coassociativity", coassoc(), report)

    def counit_law():
        eps = H.counit_vec
        for i in range(d):
            lhs, rhs = {}, {}
            for (j, k), c in H.comult.get(i, ()):
                if j in eps:
                    vec_axpy(lhs, c, ((k, eps[j]),))
                if k in eps:
                    vec_axpy(rhs, c, ((j, eps[k]),))
            yield i, lhs == basis[i] == rhs

    check_all("counit", counit_law(), report)

    def comult_map():
        yield "unit", H.comult_raw(H.unit_vec) == hopf_mod.tensor_of(H.one(), H.one())
        for i in range(d):
            di = H.comult_raw(basis[i])
            for j in range(d):
                lhs = H.comult_raw(H.mul_raw(basis[i], basis[j]))
                rhs = hopf_mod.tensor_mult(H, di, H.comult_raw(basis[j]))
                yield (i, j), lhs == rhs

    check_all("comult_algebra_map", comult_map(), report)

    def counit_map():
        yield "unit", H.counit_raw(H.unit_vec) == ONE
        for i in range(d):
            ei = H.counit_raw(basis[i])
            for j in range(d):
                lhs = H.counit_raw(H.mul_raw(basis[i], basis[j]))
                yield (i, j), lhs == ei * H.counit_raw(basis[j])

    check_all("counit_algebra_map", counit_map(), report)

    def antipode_axiom():
        for i in range(d):
            lhs, rhs = {}, {}
            for (j, k), c in H.comult.get(i, ()):
                vec_axpy(lhs, c, H.mul_raw(H.antipode_raw(basis[j]), basis[k]).items())
                vec_axpy(rhs, c, H.mul_raw(basis[j], H.antipode_raw(basis[k])).items())
            want = vec_scale(H.unit_vec, H.counit_raw(basis[i]))
            yield i, lhs == want == rhs

    check_all("antipode", antipode_axiom(), report)

    def s_squared():
        for i in range(d):
            yield i, H.antipode_raw(H.antipode_raw(basis[i])) == basis[i]

    check_all("antipode_involutive", s_squared(), report)
    return report


def _verdicts(report):
    return [(e["check"], e["status"]) for e in report]


def _closure_rank(H, gens, with_unit=True):
    """Rank of the span of all products of the generators (and of the unit),
    closed under multiplication on both sides."""
    queue = [{g: ONE} for g in gens] + ([H.unit_vec] if with_unit else [])
    span = Echelon(queue)
    while queue:
        w = queue.pop()
        for g in gens:
            for p in (H.mul_raw(w, {g: ONE}), H.mul_raw({g: ONE}, w)):
                if span.insert(p):
                    queue.append(p)
    return span.rank


def _rebuilt(H, check=True):
    """A fresh instance with the structure constants of H."""
    return HopfAlgebra(dim=H.dim, mult=H.mult, comult=H.comult, unit=H.unit_vec,
                       counit=H.counit_vec, antipode=H.antipode,
                       cyc_order=H.cyc_order, check=check)


@pytest.fixture(scope="module")
def ks4c2():
    G = from_perm_generators("S4xC2", [[[1, 2]], [[1, 2, 3, 4]], [[5, 6]]])
    return build_group_algebra(G)


@pytest.mark.parametrize("which", ["ks3", "kq8", "ks4c2", "ds3", "dual_s3", "reloaded"])
def test_generators_generate_and_are_deterministic(which, request, ks3):
    if which == "reloaded":
        H = hopf_from_dict(json.loads(json.dumps(hopf_to_dict(ks3[0]))))
        again = hopf_from_dict(json.loads(json.dumps(hopf_to_dict(ks3[0]))))
    else:
        H, _ = request.getfixturevalue(which)
        again = _rebuilt(H)
    gens = generators(H)
    assert _closure_rank(H, gens) == H.dim
    assert generators(again) == gens
    assert list(gens) == sorted(set(gens))
    # greedy: no generator lies in the closure of the ones before it (for an
    # associative table, left-normed words span the whole closure)
    for t, g in enumerate(gens):
        assert _closure_rank(H, gens[:t] + (g,)) > _closure_rank(H, gens[:t])


def test_generators_of_small_instances(ks3, dual_s3, kq8, ks4c2, ds3):
    H, _ = ks3
    assert generators(H) == (1, 2)  # (1 2) and (1 2 3); the unit is seeded
    H, _ = dual_s3
    assert generators(H) == (0, 1, 2, 3, 4)  # the sixth p_g is 1 - the rest
    assert generators(kq8[0]) == (1, 2, 4)
    assert generators(ks4c2[0]) == (1, 2, 3)
    assert generators(ds3[0]) == (0, 1, 2, 6, 7, 8, 10, 12, 13, 14, 18, 19, 20, 24, 25, 31)


@pytest.mark.parametrize("which", ["ks4c2", "ds3"])
def test_generators_multiply_each_word_by_each_generator_once(which, request):
    # 2d products for the unit law, then at most one product per (word,
    # generator) pair, and there are at most d independent words
    H = _rebuilt(request.getfixturevalue(which)[0], check=False)
    calls = []
    mul_raw = H.mul_raw

    def counted(u, v):
        calls.append(1)
        return mul_raw(u, v)

    H.mul_raw = counted
    gens = generators(H)
    assert len(calls) <= 2 * H.dim + H.dim * len(gens)


def test_unit_is_not_seeded_when_the_unit_law_fails(s3):
    raw = _ks3_raw(s3)
    g = next(i for i in range(6) if i != s3.identity)
    raw["unit"] = {g: 1}
    H = HopfAlgebra(**raw, check=False)
    assert hopf_mod._unit_failure(H) is not None
    gens = generators(H)
    assert s3.identity in gens
    assert _closure_rank(H, gens, with_unit=False) == 6


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "dc2", "ds3"])
def test_full_sweep_agrees_with_verifier(which, request):
    H, _ = request.getfixturevalue(which)
    assert _verdicts(verify_hopf_axioms(H)) == _verdicts(_full_sweep_report(H))


def _mult_mutants(s3):
    raw = _ks3_raw(s3)
    for i, row in raw["mult"].items():
        for j, ((k, _),) in row.items():
            for other in range(6):
                if other != k:
                    yield dict(raw, mult=_with_product(raw["mult"], i, j, ((other, 1),)))


def _scaled_mult_mutants(s3):
    # e_i e_j = 2 (e_i e_j): associativity fails, and so does
    # Delta/eps-multiplicativity at (i, j) even when j is not a generator
    raw = _ks3_raw(s3)
    for i, row in raw["mult"].items():
        for j, ((k, _),) in row.items():
            yield dict(raw, mult=_with_product(raw["mult"], i, j, ((k, 2),)))


def _comult_mutants(s3):
    # Delta e_i = e_i (x) e_k fails (eps (x) id) and e_k (x) e_i fails (id (x) eps)
    raw = _ks3_raw(s3)
    for i in range(6):
        for k in range(6):
            if k != i:
                yield dict(raw, comult={**raw["comult"], i: (((i, k), 1),)})
                yield dict(raw, comult={**raw["comult"], i: (((k, i), 1),)})


def _unit_and_counit_mutants(s3):
    raw = _ks3_raw(s3)
    for g in range(6):
        if g != s3.identity:
            yield dict(raw, unit={g: 1})
        for c in (0, 2):
            yield dict(raw, counit={**raw["counit"], g: c})


@pytest.mark.parametrize("family", [_mult_mutants, _scaled_mult_mutants,
                                    _comult_mutants, _unit_and_counit_mutants])
def test_full_sweep_agrees_on_every_single_entry_mutant(family, s3):
    failed = set()
    for raw in family(s3):
        H = HopfAlgebra(**raw, check=False)
        got = verify_hopf_axioms(H)
        assert _verdicts(got) == _verdicts(_full_sweep_report(H))
        fails = [e for e in got if e["status"] == "fail"]
        assert fails and all("witness" in e for e in fails)
        failed.update(e["check"] for e in fails)
    # each family reaches a product-closed check on generators or in fallback
    assert failed & {"associativity", "comult_algebra_map", "counit_algebra_map"}


# A loop of order 5 whose middle nucleus is {0}: (ab)c = a(bc) for all a, c
# only when b = 0.
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _loop5_algebra():
    """k[L x C2] for the loop L = LOOP5, (l, x) at index 2l + x."""
    def mul(a, b):
        return 2 * LOOP5[a // 2][b // 2] + (a % 2 ^ b % 2)

    return _diagonal_algebra(10, {a: {b: ((mul(a, b), 1),) for b in range(10)}
                                  for a in range(10)})


def _diagonal_algebra(n, mult):
    """An unchecked instance on the product rows ``mult``, with Delta e_i =
    e_i (x) e_i, eps = 1 on the basis, S = id and unit e_0."""
    return HopfAlgebra(dim=n, mult=mult, comult={i: (((i, i), 1),) for i in range(n)},
                       unit={0: 1}, counit={i: 1 for i in range(n)},
                       antipode={i: ((i, 1),) for i in range(n)}, check=False)


def test_full_sweep_agrees_where_only_a_later_generator_fails():
    # the first generator (0, 1) of k[L x C2] lies in the nucleus, so only a
    # later generator can witness non-associativity.
    H = _loop5_algebra()
    gens = generators(H)
    assert gens[0] == 1
    report = verify_hopf_axioms(H)
    assert _verdicts(report) == _verdicts(_full_sweep_report(H))
    bad = {e["check"]: e for e in report if e["status"] == "fail"}
    assert bad["associativity"]["witness"][1] in gens[1:]


def test_associativity_witness_has_a_generator_in_the_middle(s3):
    raw = _ks3_raw(s3)
    g = next(i for i in range(6) if i != s3.identity)
    raw["mult"] = _with_product(raw["mult"], g, g, ((g, 1),))
    H = HopfAlgebra(**raw, check=False)
    bad = {e["check"]: e for e in verify_hopf_axioms(H) if e["status"] == "fail"}
    a, b, c = bad["associativity"]["witness"]
    assert b in generators(H)
    assert H.mul_raw(H.mul_raw({a: ONE}, {b: ONE}), {c: ONE}) \
        != H.mul_raw({a: ONE}, H.mul_raw({b: ONE}, {c: ONE}))
    # a failed axiom refuses every product-closed check
    with pytest.raises(VerificationFailed, match="Hopf axiom 'associativity'"):
        hopf_mod._closed_basis(H)


def _associativity_witness_by_triples(H):
    """The first (a, g, c) in (g, a, c) order, g in generators(H), with
    (e_a e_g) e_c != e_a (e_g e_c), each product by mul_raw: the per-triple
    loop that the verifier's row-by-row check replaced, kept as its oracle."""
    d = H.dim
    for g in generators(H):
        for a in range(d):
            ag = H.mul_raw({a: ONE}, {g: ONE})
            for c in range(d):
                if H.mul_raw(ag, {c: ONE}) != H.mul_raw({a: ONE}, H.mul_raw({g: ONE}, {c: ONE})):
                    return a, g, c
    return None


def _associativity_witness(H):
    entry = next(e for e in verify_hopf_axioms(H) if e["check"] == "associativity")
    assert (entry["status"] == "pass") == ("witness" not in entry)
    return entry.get("witness")


@pytest.mark.parametrize("family", [_mult_mutants, _scaled_mult_mutants,
                                    _comult_mutants, _unit_and_counit_mutants])
def test_associativity_witness_is_the_first_failing_triple(family, s3):
    witnesses = set()
    for raw in family(s3):
        H = HopfAlgebra(**raw, check=False)
        witness = _associativity_witness(H)
        assert witness == _associativity_witness_by_triples(H)
        witnesses.add(witness)
    # a changed product breaks associativity, at many different triples;
    # a changed coproduct, unit or counit leaves the products alone
    if family in (_mult_mutants, _scaled_mult_mutants):
        assert None not in witnesses and len(witnesses) > 10
    else:
        assert witnesses == {None}


def test_associativity_witness_on_the_loop():
    H = _loop5_algebra()
    witness = _associativity_witness(H)
    assert witness is not None and witness == _associativity_witness_by_triples(H)


# e_1 e_1 = e_2 - e_3 and e_2 e_1 = e_3 e_1 = e_1, so (e_1 e_1) e_1 cancels to
# zero, while e_1 (e_1 e_1) = e_1 e_2 - e_1 e_3 is whatever those rows say.
_CANCELLING = {0: {i: ((i, 1),) for i in range(4)},
               1: {0: ((1, 1),), 1: ((2, 1), (3, -1))},
               2: {0: ((2, 1),), 1: ((1, 1),)},
               3: {0: ((3, 1),), 1: ((1, 1),)}}


@pytest.mark.parametrize("e1e2, e1e3, cancels", [
    (((2, 1),), ((3, 1),), False),  # e_1 (e_1 e_1) = e_2 - e_3
    (((2, 1),), ((2, 1),), True),   # e_1 (e_1 e_1) = 0 as well
    (((2, 1), (2, 1), (2, -1)), ((3, 2), (3, -1)), False),  # repeated keys
])
def test_associativity_where_a_product_cancels_to_zero(e1e2, e1e3, cancels):
    mult = {**_CANCELLING, 1: {**_CANCELLING[1], 2: e1e2, 3: e1e3}}
    H = _diagonal_algebra(4, mult)
    assert generators(H)[0] == 1
    assert H.mul_raw(H.mul_raw({1: ONE}, {1: ONE}), {1: ONE}) == {}
    witness = _associativity_witness(H)
    assert witness == _associativity_witness_by_triples(H)
    assert (witness == (1, 1, 1)) != cancels


def test_verifier_multiplies_on_generators_only(ks4c2):
    H = _rebuilt(ks4c2[0], check=False)
    calls = []
    mul_raw = H.mul_raw

    def counted(u, v):
        calls.append(1)
        return mul_raw(u, v)

    H.mul_raw = counted
    report = verify_hopf_axioms(H)
    assert all(e["status"] == "pass" for e in report)
    d = H.dim
    assert len(calls) <= 4 * d * d * len(generators(H))


def test_first_failure_stops_at_the_first_failing_witness():
    seen = []

    def pairs():
        for w, ok in [(0, True), ((1, 2), False), (3, False)]:
            seen.append(w)
            yield w, ok

    assert hopf_mod._first_failure(pairs()) == (1, 2)
    assert seen == [0, (1, 2)]
    assert hopf_mod._first_failure([(0, False)]) == 0
    assert hopf_mod._first_failure([(0, True)]) is None


# -- trace form and Casimir slide moves on generators, with their full
# sweeps as oracles --


def _trace_form_failure_on(H, t, basis):
    """The first (i, k), k in ``basis``, with <t, e_i e_k> != <t, e_k e_i>."""
    for i in range(H.dim):
        for k in basis:
            ik = hopf_mod._dot(t, H.mul_raw({i: ONE}, {k: ONE}).items())
            if ik != hopf_mod._dot(t, H.mul_raw({k: ONE}, {i: ONE}).items()):
                return i, k
    return None


@pytest.mark.parametrize("which", ["ks3", "kq8", "ds3"])
def test_trace_form_on_generators_agrees_with_full_sweep(which, request):
    # lambda, and lambda perturbed at each basis index in turn: the verdict
    # on generators is the verdict of the sweep over every pair
    H, _ = request.getfixturevalue(which)
    _, lam = integrals(H)
    gens = generators(H)
    assert hopf_mod._trace_form_failure(H, lam.vec) is None
    assert _trace_form_failure_on(H, lam.vec, range(H.dim)) is None
    verdicts = set()
    missed_by_first_generator = 0
    for k in range(H.dim):
        t = dict(lam.vec)
        vec_axpy(t, ONE, ((k, ONE),))
        got = hopf_mod._trace_form_failure(H, t)
        full = _trace_form_failure_on(H, t, range(H.dim))
        assert (got is None) == (full is None)
        if got is not None:
            i, g = got
            assert g in gens and _trace_form_failure_on(H, t, [g]) is not None
            missed_by_first_generator += _trace_form_failure_on(H, t, gens[:1]) is None
        verdicts.add(got is None)
    assert verdicts == {True, False}
    # some perturbation is caught only by a later generator
    assert missed_by_first_generator


def _slide_failure_on(H, T, basis):
    """The first k of ``basis`` with T(e_k (x) 1) != (1 (x) e_k)T or
    (e_k (x) 1)T != T(1 (x) e_k), each side a product in H (x) H."""
    one = H.one()
    for k in basis:
        a = HElem(H, {k: ONE})
        a1, one_a = tensor_of(a, one), tensor_of(one, a)
        if (tensor_mult(H, T, a1) != tensor_mult(H, one_a, T)
                or tensor_mult(H, a1, T) != tensor_mult(H, T, one_a)):
            return k
    return None


@pytest.mark.parametrize("which", ["ks3", "kq8", "ds3"])
def test_casimir_slide_on_generators_agrees_with_full_sweep(which, request):
    # the integral Casimir, and the same tensor with one entry doubled
    H, _ = request.getfixturevalue(which)
    cas = casimir_tensor(H)
    gens = generators(H)
    assert hopf_mod._casimir_slide_failure(H, cas) is None
    assert _slide_failure_on(H, cas, range(H.dim)) is None
    missed_by_first_generator = 0
    for key, c in cas.items():
        T = {**cas, key: c + c}
        got = hopf_mod._casimir_slide_failure(H, T)
        assert got is not None and got in gens
        assert _slide_failure_on(H, T, range(H.dim)) is not None
        assert _slide_failure_on(H, T, [got]) == got
        missed_by_first_generator += _slide_failure_on(H, T, gens[:1]) is None
    if which == "ds3":
        # p_e (x) e, the first generator, kills most single entries
        assert missed_by_first_generator


# -- idempotent families: squares and sum, with the pairwise check as oracle --


def _pairwise_idempotent_failure(vecs, mul, unit):
    """The check that ``_check_idempotents`` replaced, kept as its oracle:
    every product e_i e_j (e_i when i == j, else 0), then the sum.  The
    first failing pair (i, j), or "sum"; None when the family passes."""
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if mul(u, v) != (u if i == j else {}):
                return i, j
    total = {}
    for u in vecs:
        vec_axpy(total, ONE, u.items())
    return None if total == unit else "sum"


def _passes_check_idempotents(vecs, mul, unit):
    try:
        hopf_mod._check_idempotents("e", vecs, mul, unit, "1")
    except VerificationFailed:
        return False
    return True


def _idempotent_family(H, family):
    if family == "E":
        return [e.vec for e in H.irred.idempotents], H.mul_raw, H.unit_vec
    return [f.vec for f in require_classdata(H).F], H.func_mul_raw, H.counit_vec


_FAMILIES = [("ks3", "E"), ("kq8", "E"), ("dual_s3", "E"), ("ds3", "E"),
             ("ks3", "F"), ("ds3", "F")]


@pytest.mark.parametrize("which, family", _FAMILIES)
def test_check_idempotents_agrees_with_pairwise_check(which, family, request):
    # The family itself, and every compensated single-coefficient mutant:
    # e_k added to E_i and taken from E_{i+1}, so the sum still holds.
    # Where e_k is itself an idempotent summand of E_{i+1} (the point
    # functions of k^S3 and of the F_i, the p_g (x) e of D(S3)), the mutant
    # is again a family of orthogonal idempotents, so both verdicts occur.
    H, _ = request.getfixturevalue(which)
    vecs, mul, unit = _idempotent_family(H, family)
    assert _pairwise_idempotent_failure(vecs, mul, unit) is None
    assert _passes_check_idempotents(vecs, mul, unit)
    verdicts = set()
    n = len(vecs)
    for i in range(n):
        j = (i + 1) % n
        for k in range(H.dim):
            mutant = list(vecs)
            mutant[i], mutant[j] = dict(vecs[i]), dict(vecs[j])
            vec_axpy(mutant[i], ONE, [(k, ONE)])
            vec_axpy(mutant[j], -ONE, [(k, ONE)])
            ok = _pairwise_idempotent_failure(mutant, mul, unit) is None
            assert _passes_check_idempotents(mutant, mul, unit) == ok
            verdicts.add(ok)
    assert verdicts == ({False} if which in ("ks3", "kq8") and family == "E"
                        else {True, False})


@pytest.mark.parametrize("which", ["ks3", "ds3", "ks4c2"])
def test_check_idempotents_makes_one_product_per_vector(which, request):
    H, irred = request.getfixturevalue(which)
    vecs = [e.vec for e in irred.idempotents]
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return H.mul_raw(u, v)

    hopf_mod._check_idempotents("E", vecs, counted, H.unit_vec, "1")
    assert len(calls) == len(vecs)


def _irred_fields(irred):
    return irred.idempotents, irred.degrees, irred.characters


def test_check_idempotents_runs_once_per_generic_split(ds3, monkeypatch):
    # the split leaves the E_i to the certificate of irreducibles_generic
    H, _ = ds3
    calls = []
    real = hopf_mod._check_idempotents

    def spy(name, *args):
        calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(hopf_mod, "_check_idempotents", spy)
    assert _irred_fields(irreducibles_generic(H)) == _irred_fields(H.irred)
    assert calls == ["E"]


def test_degree_and_character_read_once_per_idempotent(ds3, monkeypatch):
    # the sort and the certificate of a generic split share one read
    H, irred = ds3
    calls = []
    real = hopf_mod._degree_and_character

    def spy(H, evec):
        calls.append(evec)
        return real(H, evec)

    monkeypatch.setattr(hopf_mod, "_degree_and_character", spy)
    assert _irred_fields(irreducibles_generic(H)) == _irred_fields(irred)
    assert len(calls) == len(irred) == 8


@pytest.mark.parametrize("refusal", [VerificationFailed("refused"),
                                     NonIntegerDegree("Tr(L_E) = 5")],
                         ids=["verification_failed", "non_integer_degree"])
def test_split_commutative_retries_a_family_its_caller_refuses(ks3, refusal):
    # a candidate that is no idempotent can fail the degree read first
    H, irred = ks3
    families = []

    def accept(idems):
        families.append(idems)
        if len(families) == 1:
            raise refusal
        return idems

    runlog.drain()
    got = hopf_mod.split_commutative(hopf_mod._center(H), H.mul_raw, H.unit_vec,
                                     H.cyc_order, random.Random(0), accept)
    assert [e["outcome"] for e in runlog.drain()] == ["reconstruction_failed", "ok"]
    assert got is families[1]
    assert len(got) == len(irred) and all(H.elem(v) in irred.idempotents for v in got)


def _antipode_mutant(s3):
    # kS3 with S(g) = g for an element g of order 3: the algebra and its
    # idempotents are untouched, but the antipode axiom fails.
    raw = _ks3_raw(s3)
    g = next(i for i in range(6) if s3.inverse(i) != i)
    raw["antipode"] = {**raw["antipode"], g: ((g, 1),)}
    return HopfAlgebra(**raw, check=False)


def test_verify_irred_refuses_an_instance_that_fails_an_axiom(ks3, s3):
    _, irred = ks3
    H = _antipode_mutant(s3)
    entries = [(e.vec, d, chi.vec) for e, d, chi
               in zip(irred.idempotents, irred.degrees, irred.characters)]
    with pytest.raises(VerificationFailed, match="Hopf axiom 'antipode'"):
        hopf_mod._verify_irred(H, entries)
    with pytest.raises(VerificationFailed, match="Hopf axiom 'antipode'"):
        classdata_from_dict(H, classdata_to_dict(require_classdata(ks3[0])))


# -- H* on the transposed table, with the scans it replaced as oracles --


def _func_mul_scan(H, p, q):
    # <pq, e_i> = sum <p, e_i(1)><q, e_i(2)>, over every comult term
    out = {}
    for i, terms in H.comult.items():
        acc = cyc(0)
        for (j, k), c in terms:
            if j in p and k in q:
                acc = acc + c * p[j] * q[k]
        if acc:
            out[i] = acc
    return out


def _func_antipode_scan(H, p):
    # <s(p), e_i> = <p, S(e_i)>
    out = {}
    for i in range(H.dim):
        acc = cyc(0)
        for j, c in H.antipode.get(i, ()):
            if j in p:
                acc = acc + c * p[j]
        if acc:
            out[i] = acc
    return out


def _func_hit_scan(H, p, a, right):
    # <p <- a, a'> = <p, a a'> (right) and <a -> p, a'> = <p, a' a> (left)
    out = {}
    for i, ci in a.items():
        for j in range(H.dim):
            terms = (H.mult.get(i, {}).get(j, ()) if right
                     else H.mult.get(j, {}).get(i, ()))
            x = sum((c * p[k] for k, c in terms if k in p), cyc(0))
            if x:
                vec_axpy(out, ci, ((j, x),))
    return out


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3"])
def test_dual_operations_agree_with_the_scans(request, which):
    H, _ = request.getfixturevalue(which)
    rng = random.Random(5)
    for density in (0.2, 1.0):
        for _ in range(4):
            p, q, a = (random_element(H, rng, density).vec for _ in range(3))
            assert H.func_mul_raw(p, q) == _func_mul_scan(H, p, q)
            assert H.func_antipode_raw(p) == _func_antipode_scan(H, p)
            assert H.func_right_hit_raw(p, a) == _func_hit_scan(H, p, a, True)
            assert H.func_left_hit_raw(a, p) == _func_hit_scan(H, p, a, False)


@pytest.mark.parametrize("which", ["ks3", "dual_s3", "ds3"])
def test_dual_is_a_memoized_hopf_algebra(request, which):
    # built unchecked, its axioms are H's read backwards: they hold
    H, _ = request.getfixturevalue(which)
    D = hopf_mod._dual(H)
    assert hopf_mod._dual(H) is D
    assert all(e["status"] == "pass" for e in verify_hopf_axioms(D))
    assert D.unit_vec == H.counit_vec and D.counit_vec == H.unit_vec
