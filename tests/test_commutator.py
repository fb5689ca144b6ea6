"""Commutator calculus: {a,b}, n-th commutators, z_n, Com spans, closures,
H' routes, the identity suite, and the Com = z_2 <- H* probe.

Anchors: commutators of S3 span kA3 (dim 3); commutators of Q8 span
{e, -1} (dim 2); z_2(kS3) = E_0 + E_1 + (1/4)E_2 for degrees (1,1,2).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcomm._linalg import Echelon
from hopfcomm import commutator
from hopfcomm.commutator import (
    _u_tensor,
    Z_n_map,
    _commutator_table,
    _is_commutative,
    _u_power,
    algebra_closure,
    coideal_closure,
    com_span,
    commutator_subalgebra,
    hopf_commutator,
    is_adjoint_stable,
    is_central,
    is_left_coideal,
    n_commutator,
    theorem_suite_sec2,
    z_n,
)
from hopfcomm.errors import EnumerationCapExceeded
from hopfcomm.exactnum import cyc
from hopfcomm.group import from_perm_generators
from hopfcomm.hopf import (
    HElem,
    HopfAlgebra,
    _combination,
    _flatten_times,
    _tensor_sandwich,
    adjoint_row,
    build_drinfeld_double,
    build_group_algebra,
    integrals,
    random_element,
    tensor_flatten,
    tensor_mult,
)

ONE = cyc(1)


# -- the commutator itself --


def test_group_algebra_commutator_is_group_commutator(ks3, s3):
    H, _ = ks3
    for g in range(6):
        for h in range(6):
            got = hopf_commutator(HElem(H, {g: ONE}), HElem(H, {h: ONE}))
            want = s3.mul(s3.mul(g, h), s3.mul(s3.inverse(g), s3.inverse(h)))
            assert got == HElem(H, {want: ONE})


def test_commutator_with_unit(ks3, dc2):
    for fixture in (ks3, dc2):
        H, _ = fixture
        rng = random.Random(2)
        for _ in range(5):
            b = random_element(H, rng)
            eps_b = H.counit_raw(b.vec)
            assert hopf_commutator(H.one(), b) == eps_b * H.one()
            assert hopf_commutator(b, H.one()) == eps_b * H.one()


def test_n_commutator_n1_is_counit(ks3):
    H, _ = ks3
    rng = random.Random(4)
    a = random_element(H, rng)
    assert n_commutator([a]) == H.counit_raw(a.vec) * H.one()


def _direct_commutator(a, b):
    """Oracle: {a, b} = sum a_1 b_1 S(a_2) S(b_2), summed term by term over
    both comultiplications, independent of the U-tensor route."""
    H = a.H
    out = {}
    for (i, j), ca in H.comult_raw(a.vec).items():
        sj = H.antipode_raw({j: ONE})
        for (k, l), cb in H.comult_raw(b.vec).items():
            term = H.mul_raw({i: ONE}, {k: ONE})
            term = H.mul_raw(term, sj)
            term = H.mul_raw(term, H.antipode_raw({l: ONE}))
            for idx, c in term.items():
                s = out.get(idx, cyc(0)) + ca * cb * c
                if s:
                    out[idx] = s
                else:
                    out.pop(idx, None)
    return HElem(H, out)


@pytest.mark.parametrize("which", ["ks3", "ds3"])
def test_n2_matches_hopf_commutator(which, request):
    H, _ = request.getfixturevalue(which)
    rng = random.Random(6)
    for _ in range(5):
        a, b = random_element(H, rng), random_element(H, rng)
        want = _direct_commutator(a, b)
        assert n_commutator([a, b]) == want
        assert hopf_commutator(a, b) == want


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3", "dq8"])
def test_hopf_commutator_matches_n_commutator_on_basis_pairs(which, request):
    H, _ = request.getfixturevalue(which)
    basis = [HElem(H, {i: ONE}) for i in range(H.dim)]
    for a in basis:
        for b in basis:
            assert hopf_commutator(a, b) == n_commutator([a, b])
    # only nonzero commutators are stored
    assert all(_commutator_table(H).values())


_DS3_DIM = 36
_sparse_ds3 = st.dictionaries(
    st.integers(0, _DS3_DIM - 1),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool).map(cyc),
    min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(_sparse_ds3, _sparse_ds3)
def test_hopf_commutator_matches_direct_sum_on_sparse_pairs(ds3, u, v):
    H, _ = ds3
    a, b = HElem(H, u), HElem(H, v)
    assert hopf_commutator(a, b) == _direct_commutator(a, b)


def test_n3_on_grouplikes(ks3, s3):
    H, _ = ks3
    rng = random.Random(8)
    for _ in range(10):
        g1, g2, g3 = (rng.randrange(6) for _ in range(3))
        got = n_commutator([HElem(H, {g: ONE}) for g in (g1, g2, g3)])
        w = s3.mul(s3.mul(g1, g2), g3)
        w = s3.mul(w, s3.mul(s3.mul(s3.inverse(g1), s3.inverse(g2)),
                             s3.inverse(g3)))
        assert got == HElem(H, {w: ONE})


def test_com1_identity_on_double(ds3):
    # ab = sum {a_1, b_1} b_2 a_2
    H, _ = ds3
    rng = random.Random(10)
    cache = {}
    for _ in range(2):
        a = random_element(H, rng, 0.25)
        b = random_element(H, rng, 0.25)
        rhs = {}
        for (i, j), ca in H.comult_raw(a.vec).items():
            for (k, l), cb in H.comult_raw(b.vec).items():
                if (i, k) not in cache:
                    cache[(i, k)] = hopf_commutator(
                        HElem(H, {i: ONE}), HElem(H, {k: ONE})).vec
                term = H.mul_raw(cache[(i, k)], H.mul_raw({l: ONE}, {j: ONE}))
                for idx, c in term.items():
                    s = rhs.get(idx, cyc(0)) + ca * cb * c
                    if s:
                        rhs[idx] = s
                    elif idx in rhs:
                        del rhs[idx]
        assert HElem(H, rhs) == a * b


# -- z_n --


def test_z0_z1(ks3):
    H, _ = ks3
    assert z_n(H, 0) == H.one()
    assert z_n(H, 1) == H.one()


def test_z2_ks3_idempotent_expansion(ks3):
    H, irred = ks3
    want = (irred.idempotents[0] + irred.idempotents[1]
            + cyc("1/4") * irred.idempotents[2])
    assert z_n(H, 2) == want


def test_z2_commutative_is_unit(dual_s3):
    H, _ = dual_s3
    assert z_n(H, 2) == H.one()


def test_z_even_odd_collapse(kq8):
    H, _ = kq8
    z2 = z_n(H, 2)
    assert z_n(H, 3) == z2
    assert z_n(H, 4) == z2 * z2
    assert z_n(H, 5) == z2 * z2


def test_zn_squares_u_of_the_integral(s3, monkeypatch):
    # a fresh instance, so no power of U(Lambda) is in the memo yet
    H, irred = build_group_algebra(s3)
    products = []

    def counted(*args):
        products.append(1)
        return tensor_mult(*args)

    monkeypatch.setattr(commutator, "tensor_mult", counted)
    z_n(H, 64)
    assert len(products) <= 12  # 2 log2(64); a chain of U(Lambda) factors takes 63
    want = _combination([Fraction(1, deg ** 1000) for deg in irred.degrees],
                        irred.idempotents)
    assert z_n(H, 1001).vec == want


def _squaring_chain(n: int) -> set:
    """The powers U^n = U^(n-1) U (odd n) and U^n = (U^(n/2))^2 (even n) reach."""
    if n == 1:
        return {1}
    return {n} | _squaring_chain(n - 1 if n % 2 else n // 2)


def test_u_power_keeps_every_power_of_its_squaring_chain(s3, monkeypatch):
    H, _ = build_group_algebra(s3)
    products = []

    def counted(H, a, b):
        products.append((id(a), id(b)))
        return tensor_mult(H, a, b)

    monkeypatch.setattr(commutator, "tensor_mult", counted)
    n = 1001
    top = _u_power(H, n)
    chain = _squaring_chain(n)
    assert len(products) == len(chain) - 1
    kept = {m: _u_power(H, m) for m in chain}
    assert len(products) == len(chain) - 1  # every power was in the memo
    assert kept[n] is top
    for m in chain - {1}:
        a, b = (m - 1, 1) if m % 2 else (m // 2, m // 2)
        assert (id(kept[a]), id(kept[b])) in products


def test_zn_at_a_huge_n_on_a_commutative_algebra(dual_s3):
    # 2 * 1329 products along the bits of 10^400, with no recursion over them
    H, _ = dual_s3
    assert z_n(H, 10 ** 400) == H.one()


@pytest.mark.parametrize("which", ["ks3", "dual_s3", "ds3"])
def test_zn_matches_the_chain_of_n_commutators(request, which):
    H, _ = request.getfixturevalue(which)
    lam, _ = integrals(H)
    for n in range(1, 8):
        assert z_n(H, n) == n_commutator([lam] * n)


def test_Zn_insertion(ks3):
    H, _ = ks3
    rng = random.Random(12)
    z2 = z_n(H, 2)
    for _ in range(3):
        h = random_element(H, rng)
        assert Z_n_map(H, 0, h) == h
        assert Z_n_map(H, 2, h) == z2 * h
        assert is_central(H, Z_n_map(H, 1, h))
        assert is_central(H, Z_n_map(H, 3, h))


@pytest.mark.parametrize("which", ["ks3", "ds3"])
def test_Zn_map_matches_the_sandwich_of_u_powers(request, which):
    H, _ = request.getfixturevalue(which)
    rng = random.Random(14)
    for n in (1, 2, 3):
        for _ in range(3):
            h = random_element(H, rng, 0.3)
            want = _tensor_sandwich(H, _u_power(H, n), h.vec)
            assert Z_n_map(H, n, h).vec == want


# -- spans and closures --


def test_com_span_ks3_is_alternating_span(ks3, s3):
    H, _ = ks3
    com = com_span(H, 2)
    assert com.rank == 3
    a3 = [g for g in range(6) if any(
        s3.mul(s3.mul(x, y), s3.mul(s3.inverse(x), s3.inverse(y))) == g
        for x in range(6) for y in range(6))]
    assert len(a3) == 3
    for g in a3:
        assert com.contains({g: ONE})


def test_com_span_kq8_dim2(kq8, q8):
    H, _ = kq8
    com = com_span(H, 2)
    assert com.rank == 2
    assert com.contains({q8.identity: ONE})


def test_com_span_commutative_is_scalar(dual_s3):
    H, _ = dual_s3
    com = com_span(H, 2)
    assert com.rank == 1
    assert com.contains(dict(H.unit_vec))


def test_com2_is_spanned_by_the_basis_n_commutators(ds3):
    H, _ = ds3
    basis = [HElem(H, {i: ONE}) for i in range(H.dim)]
    want = Echelon(n_commutator([a, b]).vec for a in basis for b in basis)
    assert com_span(H, 2) == want


def test_com_chain(ks3):
    H, _ = ks3
    assert com_span(H, 2) <= com_span(H, 3)


def test_com_span_cap(monkeypatch):
    import hopfcomm.hopf as hopf_mod
    from hopfcomm.group import cyclic_group
    H, _ = hopf_mod.build_group_algebra(cyclic_group(3))
    monkeypatch.setenv("HOPFCOMM_CAP", "enum=5")
    with pytest.raises(EnumerationCapExceeded):
        com_span(H, 2)


def test_com_span_cap_checked_on_every_call(ks3, monkeypatch):
    # com_span(H, 3) is computed once, but a lowered cap still refuses it.
    H, _ = ks3
    first = com_span(H, 3)
    assert com_span(H, 3) is first
    monkeypatch.setenv("HOPFCOMM_CAP", "enum=100")
    with pytest.raises(EnumerationCapExceeded):
        com_span(H, 3)


def _com_span_by_levels(H, n):
    """Com_n with every level, the last included, reduced in H (x) H and
    only the novel products carried on: the route ``com_span`` took before
    it flattened the last level into H as it made it."""
    gens = [_u_tensor(H, {i: ONE}) for i in range(H.dim)]
    level = Echelon()
    novel = [g for g in gens if level.insert(g)]
    for _ in range(n - 1):
        nxt = Echelon()
        nxt_novel = []
        for t in novel:
            for g in gens:
                prod = tensor_mult(H, t, g)
                if nxt.insert(prod):
                    nxt_novel.append(prod)
        level, novel = nxt, nxt_novel
    return Echelon([tensor_flatten(H, row) for row in level.basis()])


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3"])
def test_com_span_agrees_with_the_level_route(request, which):
    H, _ = request.getfixturevalue(which)
    for n in (2, 3):
        assert com_span(H, n) == _com_span_by_levels(H, n)


def _com3_by_flattened_products(H):
    """Com_3 with its last level flattened from the U-tensor products
    t U(e_k): the route ``com_span`` took before it read the adjoint table."""
    gens = [_u_tensor(H, {i: ONE}) for i in range(H.dim)]
    level = Echelon(tensor_mult(H, s, g) for s in gens for g in gens).basis()
    return Echelon(tensor_flatten(H, tensor_mult(H, t, g)) for t in level for g in gens)


@pytest.mark.parametrize("which", ["kq8", "dual_s3", "ds3"])
def test_com3_last_level_reads_the_adjoint_table(request, which):
    # flatten(t U(e_k)) = sum t_ab e_a (e_k .ad e_b) for random t and every k.
    # Com_2 = Com_3 = H' on these instances, so the span alone cannot tell
    # e_a (e_k .ad e_b) from (e_k .ad e_b) e_a; the vectors can.
    H, _ = request.getfixturevalue(which)
    rng = random.Random(11)
    for _ in range(3):
        t = {(rng.randrange(H.dim), rng.randrange(H.dim)): cyc(Fraction(rng.randint(1, 3), 2))
             for _ in range(4)}
        for k in range(H.dim):
            want = tensor_flatten(H, tensor_mult(H, t, _u_tensor(H, {k: ONE})))
            assert _flatten_times(H, t.items(), adjoint_row(H, k)) == want
    assert com_span(H, 3) == _com3_by_flattened_products(H)


@pytest.mark.parametrize("which", ["ks3", "dual_s3", "ds3"])
def test_random_triple_commutators_lie_in_com3(request, which):
    # oracle for the exact span: commutators of random triples lie in it
    H, _ = request.getfixturevalue(which)
    com3 = com_span(H, 3)
    rng = random.Random(5)
    for _ in range(4):
        assert com3.contains(n_commutator([random_element(H, rng) for _ in range(3)]).vec)
    assert com_span(H, 2) <= com3


def test_coideal_closure_of_z2(ks3, s3):
    H, _ = ks3
    closure = coideal_closure(H, [z_n(H, 2).vec])
    assert closure.rank == 3
    assert closure == com_span(H, 2)


def test_closure_of_unit(ks3):
    H, _ = ks3
    assert coideal_closure(H, [dict(H.unit_vec)]).rank == 1
    assert algebra_closure(H, [dict(H.unit_vec)]).rank == 1


def test_algebra_closure_idempotent(ks3):
    H, _ = ks3
    com = com_span(H, 2)
    alg = algebra_closure(H, com.basis())
    assert alg == com  # span of A3 is already an algebra
    assert algebra_closure(H, alg.basis()) == alg


def _two_sided_closure(H, vecs):
    # the two-sided closure that algebra_closure replaced: every basis
    # vector times every new vector, on both sides, until nothing is new
    space = Echelon([dict(H.unit_vec)])
    fresh = [v for v in vecs if space.insert(v)]
    while fresh:
        basis = space.basis()
        new = []
        for u in basis:
            for v in fresh:
                for prod in (H.mul_raw(u, v), H.mul_raw(v, u)):
                    if space.insert(prod):
                        new.append(prod)
        fresh = new
    return space


@pytest.mark.parametrize("which", ["ks3", "kq8", "ds3", "dq8"])
def test_algebra_closure_matches_two_sided_closure(which, request):
    H, _ = request.getfixturevalue(which)
    seeds = [com_span(H, 2).basis()]
    seeds += [coideal_closure(H, [z_n(H, n).vec]).basis() for n in (2, 3)]
    for vecs in seeds:
        assert algebra_closure(H, vecs) == _two_sided_closure(H, vecs)


@settings(max_examples=30, deadline=None)
@given(st.lists(_sparse_ds3, min_size=1, max_size=3))
def test_algebra_closure_matches_two_sided_closure_on_sparse_sets(ds3, vecs):
    H, _ = ds3
    assert algebra_closure(H, vecs) == _two_sided_closure(H, vecs)


def test_subspace_canonical_equality(ks3):
    H, _ = ks3
    a = Echelon([{0: ONE, 1: ONE}, {1: ONE}])
    b = Echelon([{0: ONE}, {0: cyc(3), 1: cyc(-2)}])
    assert a == b
    assert a.rank == 2


# -- H' --


def test_hprime_ks3(ks3):
    H, _ = ks3
    hp = commutator_subalgebra(H)
    assert hp.rank == 3
    assert hp == com_span(H, 2)


@pytest.mark.parametrize("which", ["ks3", "kq8", "ds3", "dq8"])
def test_hprime_is_a_unital_subalgebra(which, request):
    # checks commutator_subalgebra no longer makes: route A spans the words
    # 1 v_1 ... v_k, so it holds 1 and every product of its elements
    H, _ = request.getfixturevalue(which)
    hp = commutator_subalgebra(H)
    assert hp.contains(dict(H.unit_vec))
    basis = hp.basis()
    assert all(hp.contains(H.mul_raw(u, v)) for u in basis for v in basis)


def test_hprime_commutative(dual_s3, dc2):
    for fixture in (dual_s3, dc2):
        H, _ = fixture
        hp = commutator_subalgebra(H)
        assert hp.rank == 1
        assert hp.contains(dict(H.unit_vec))


def test_hprime_double_s3_routes_agree(ds3):
    H, _ = ds3
    hp = commutator_subalgebra(H)  # raises RouteMismatch on disagreement
    assert is_left_coideal(H, hp)
    assert hp.contains(dict(H.unit_vec))


def test_hprime_kq8(kq8):
    H, _ = kq8
    assert commutator_subalgebra(H).rank == 2


def test_hprime_computed_once(kq8):
    H, _ = kq8
    assert commutator_subalgebra(H) is commutator_subalgebra(H)


# -- suite and probe --


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "dc2"])
def test_theorem_suite_passes(which, request):
    H, _ = request.getfixturevalue(which)
    report = theorem_suite_sec2(H)
    failures = [r for r in report if r["status"] == "fail"]
    assert failures == []
    names = {r["check"] for r in report}
    assert "zn_is_z2_power" in names
    assert "zn_idempotent_expansion" in names
    assert "hprime_from_zn_closures" in names


def test_theorem_suite_computes_com3_exactly_above_dim_36():
    # D(C2^3) has dim 64: Com_3 is the exact span, not a sampled lower bound
    G = from_perm_generators("C2^3", [[[1, 2]], [[3, 4]], [[5, 6]]])
    H, _ = build_drinfeld_double(G)
    report = {r["check"]: r for r in theorem_suite_sec2(H)}
    assert [r for r in report.values() if r["status"] != "pass"] == []
    assert "com3_lower_bound_sampled" not in report
    assert report["com2_in_com3"]["status"] == "pass"


def test_zn_recursion_names_the_failing_basis_element(ks3, monkeypatch):
    H, _ = ks3
    last = H.dim - 1
    exact = commutator.Z_n_map

    def skewed(H, n, h):
        out = exact(H, n, h)
        return out + H.one() if n == 3 and h.vec == {last: ONE} else out

    monkeypatch.setattr(commutator, "Z_n_map", skewed)
    report = {r["check"]: r for r in theorem_suite_sec2(H)}
    assert report["Zn_recursion"]["status"] == "fail"
    assert report["Zn_recursion"]["witness"] == {"n": 3, "basis": last}


def test_theorem_suite_deterministic(ks3):
    H, _ = ks3
    assert theorem_suite_sec2(H, seed=3) == theorem_suite_sec2(H, seed=3)


def test_suite_z2_scalar_branch(dual_s3, ks3):
    H, _ = dual_s3
    report = {r["check"]: r for r in theorem_suite_sec2(H)}
    assert report["z2_scalar_iff_commutative"]["status"] == "pass"
    H2, _ = ks3
    report2 = {r["check"]: r for r in theorem_suite_sec2(H2)}
    assert report2["z2_scalar_iff_commutative"]["status"] == "pass"


@pytest.mark.parametrize("which, dim", [("ks3", 3), ("dual_s3", 1), ("kq8", 2)])
def test_question_31_com_equals_z2_hit(request, which, dim):
    # Question 3.1 asks whether Com = z_2 <- H* always; it holds on these.
    H, _ = request.getfixturevalue(which)
    com = com_span(H, 2)
    hit = coideal_closure(H, [z_n(H, 2).vec])
    assert com.rank == hit.rank == dim
    assert com == hit


def test_adjoint_stability_and_centrality_on_every_element(ks3, s3, ds3):
    # checked on generators, the verdicts must match the whole basis
    H, _ = ks3
    t = s3.labels.index("(1 2)")
    transpositions = [g for g in range(6) if s3.element_order(g) == 2]
    assert not is_adjoint_stable(H, Echelon([{t: ONE}]))
    assert is_adjoint_stable(H, Echelon([{g: ONE} for g in transpositions]))
    assert not is_central(H, {t: ONE})
    assert is_central(H, {g: ONE for g in transpositions})
    H, _ = ds3
    for k in range(H.dim):
        v = {k: ONE}
        central = all(H.mul_raw({j: ONE}, v) == H.mul_raw(v, {j: ONE}) for j in range(H.dim))
        assert is_central(H, v) == central


def _bare_table(mult):
    # a 3-dim table with no coalgebra, read by _is_commutative only
    return HopfAlgebra(dim=3, mult=mult, comult={}, unit={}, counit={}, antipode={},
                       check=False)


def test_is_commutative_sees_a_product_stored_only_one_way():
    # e1 e0 != 0 while e0 e1 = 0
    H = _bare_table({1: {0: ((2, 1),)}})
    assert not _is_commutative(H)


def test_is_commutative_compares_products_as_vectors():
    # e0 e1 = e1 + e2 and e1 e0 = e2 + e1, the terms stored in another order
    H = _bare_table({0: {1: ((1, 1), (2, 1))}, 1: {0: ((2, 1), (1, 1))}})
    assert _is_commutative(H)


@pytest.mark.parametrize("e0e1, e1e0, commutes", [
    # e0 e1 = 2 e2 - e2 = e2
    (((2, 2), (2, -1)), ((2, 1),), True),
    # e0 e1 = e2 + e2 = 2 e2, whose last term alone is e1 e0 = e2
    (((2, 1), (2, 1)), ((2, 1),), False),
])
def test_is_commutative_sums_a_repeated_key(e0e1, e1e0, commutes):
    # an unchecked table may repeat a key; mul_raw sums it, and so must the check
    H = _bare_table({0: {1: e0e1}, 1: {0: e1e0}})
    assert (H.mul_raw({0: ONE}, {1: ONE}) == H.mul_raw({1: ONE}, {0: ONE})) == commutes
    assert _is_commutative(H) == commutes
