"""Counting functionals against brute-force word counts, plus the symmetric
form / Casimir / Higman layer."""

import json
import random
from pathlib import Path

import pytest

from hopfcomm import counting
from hopfcomm._linalg import Solver, vec_axpy
from hopfcomm.cli import main
from hopfcomm.commutator import z_n, Z_n_map
from hopfcomm.counting import (
    bullet,
    character_coordinates,
    bullet_power,
    bullet_unit_probe,
    casimir_of_form,
    f_iterated,
    f_n,
    f_rob,
    fs_indicator,
    higman_map,
    oracle_crosscheck,
    root_function,
    sweedler_power,
    symmetric_form,
    t_n_form,
    t_tilde_form,
    theorem_suite_sec3,
)
from hopfcomm.errors import DegenerateForm
from hopfcomm.exactnum import CycNum
from hopfcomm.group import count_word, cyclic_group, parse_word
from hopfcomm.hopf import (
    HElem,
    HFunc,
    _combination,
    build_group_algebra,
    frobenius_psi,
    integrals,
    require_irred,
    theorem_suite_sec1,
)

ONE = CycNum.rational(1)


def rat(x):
    return CycNum.rational(x)


def at(f, H, g):
    return f(H.elem({g: ONE}))


def all_pass(report):
    return [e for e in report if e["status"] == "fail"] == []


def crosscheck(G, w, f):
    return oracle_crosscheck(G, w, f, count_word(G, w))


# ---------------------------------------------------------------------------
# character coordinates


def _solver_coordinates(H, f):
    """Oracle: f in the character basis by elimination, or None."""
    chars = require_irred(H).characters
    solver = Solver()
    for i, chi in enumerate(chars):
        assert solver.insert(chi.vec, i)
    combo = solver.express(f.vec)
    return None if combo is None else [combo.get(i, rat(0)) for i in range(len(chars))]


@pytest.mark.parametrize("which", ["ks3", "kq8", "dual_s3", "ds3"])
def test_character_coordinates_match_elimination(request, which):
    H, _ = request.getfixturevalue(which)
    chars = require_irred(H).characters
    rng = random.Random(3)
    mixes = [HFunc(H, _combination([rng.randint(-3, 3) for _ in chars], chars))
             for _ in range(3)]
    deltas = [HFunc(H, {k: ONE}) for k in range(H.dim)]
    for f in [*chars, f_rob(H), f_n(H, 2), f_iterated(H), *mixes, *deltas]:
        assert character_coordinates(H, f) == _solver_coordinates(H, f)
    assert (character_coordinates(H, chars[-1])
            == [ONE if i == len(chars) - 1 else rat(0) for i in range(len(chars))])


def test_functional_outside_the_character_span_has_no_coordinates(ks3, s3):
    H, _ = ks3
    delta = HFunc(H, {s3.labels.index("(1 2)"): ONE})
    assert character_coordinates(H, delta) is None
    assert _solver_coordinates(H, delta) is None


# ---------------------------------------------------------------------------
# f_rob and f_n


def test_f_rob_values_on_s3(ks3):
    H, _ = ks3
    fr = f_rob(H)
    want = {"()": 18, "(1 2)": 0, "(2 3)": 0, "(1 3)": 0, "(1 2 3)": 9, "(1 3 2)": 9}
    got = {H.labels[g]: at(fr, H, g) for g in range(6)}
    assert got == {k: rat(v) for k, v in want.items()}


def test_f_rob_is_commutator_count(s3, ks3, q8, kq8):
    for G, (H, _) in ((s3, ks3), (q8, kq8)):
        assert all_pass(crosscheck(G, parse_word("[x1,x2]"), f_rob(H)))


def test_f_rob_at_minus_one_on_q8(kq8):
    H, _ = kq8
    assert at(f_rob(H), H, H.labels.index("-1")) == rat(24)


def test_f_rob_matches_frobenius_route(ds3):
    H, _ = ds3
    assert f_rob(H) == frobenius_psi(H, z_n(H, 2)) * rat(H.dim)


def test_f_n_rejects_zero(ks3):
    H, _ = ks3
    with pytest.raises(ValueError):
        f_n(H, 0)


def test_f_1_is_f_rob(ks3):
    H, _ = ks3
    assert f_n(H, 1) == f_rob(H)


def test_f_2_counts_products_of_two_commutators(s3, ks3):
    H, _ = ks3
    assert all_pass(crosscheck(s3, parse_word("[x1,x2][x3,x4]"), f_n(H, 2)))


def test_f_2_equals_generalized_commutator_count(s3, ks3):
    # the length-4 generalized commutator x1 x2 x3 x4 x1^-1 ... x4^-1 counts
    # the same elements as products of two commutators
    H, _ = ks3
    w = parse_word("x1x2x3x4x1^-1x2^-1x3^-1x4^-1")
    assert count_word(s3, w) == count_word(s3, parse_word("[x1,x2][x3,x4]"))
    assert all_pass(crosscheck(s3, w, f_n(H, 2)))


def test_f_n_on_commutative_instance(dual_s3):
    H, _ = dual_s3
    d = H.dim
    for n in (1, 2):
        fn = f_n(H, n)
        scale = rat(d ** (2 * n - 1))
        total = HFunc(H, {})
        for chi in H.irred.characters:
            total = total + chi
        assert fn == total * scale


# ---------------------------------------------------------------------------
# bullet product


def test_bullet_square_of_f_rob_is_f_2(ks3):
    H, _ = ks3
    fr = f_rob(H)
    assert bullet(H, fr, fr) == f_n(H, 2)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_bullet_powers_match_f_l(ks3, ds3, l):
    for H, _ in (ks3, ds3):
        assert bullet_power(H, f_rob(H), l) == f_n(H, l)


def test_bullet_power_rejects_zero(ks3):
    H, _ = ks3
    with pytest.raises(ValueError):
        bullet_power(H, f_rob(H), 0)


def test_bullet_unit_candidate(ks3, ds3):
    for H, _ in (ks3, ds3):
        probe = bullet_unit_probe(H)
        assert probe["status"] == "evidence"
        assert probe["witness"]["two_sided_unit"] is True


# ---------------------------------------------------------------------------
# Sweedler powers and root functions


def test_sweedler_power_on_group_algebra(s3, ks3):
    H, _ = ks3
    integral, _ = integrals(H)
    for m in (1, 2, 3):
        got = sweedler_power(H, integral, m)
        want: dict = {}
        frac = rat(1) * rat(6).inverse()
        for g in range(6):
            k = s3.power(g, m)
            want[k] = want.get(k, rat(0)) + frac
        assert got == HElem(H, {k: v for k, v in want.items() if v})


@pytest.mark.parametrize("which", ["ks3", "kq8", "ds3"])
def test_sweedler_table_past_the_exponent_equals_the_plain_loop(which, request):
    # the loop before the early stop, kept as the oracle: m - 1 passes of
    # e_k^[t] = sum e_i e_j^[t-1] over Delta(e_k) = sum e_i (x) e_j
    H, _ = request.getfixturevalue(which)
    plain = [{k: ONE} for k in range(H.dim)]
    for m in range(1, 14):
        assert counting._sweedler_table(H, m) == plain
        nxt = []
        for k in range(H.dim):
            acc: dict = {}
            for (i, j), c in H.comult_raw({k: ONE}).items():
                vec_axpy(acc, c, H.mul_raw({i: ONE}, plain[j]).items())
            nxt.append(acc)
        plain = nxt


def test_root_function_at_a_huge_m_stops_at_the_exponent(monkeypatch, capsys):
    # exp(S3) = 6 and 1000000003 = 1 (mod 6): r_m = r_1, after 5 passes to
    # reach e_k^[6] = eps(e_k) 1 and one more
    passes = []
    step = counting._sweedler_pass

    def counted(H, table):
        passes.append(1)
        return step(H, table)

    monkeypatch.setattr(counting, "_sweedler_pass", counted)
    spec = str(Path(__file__).resolve().parent / "golden" / "specs" / "S3.json")
    docs = []
    for m in ("1000000003", "1"):
        assert main(["compute", "root", "--m", m, "--group", spec]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    assert docs[0]["result"]["values"] == docs[1]["result"]["values"]
    assert len(passes) <= 7


def test_sweedler_power_rejects_zero(ks3):
    H, _ = ks3
    with pytest.raises(ValueError):
        sweedler_power(H, H.one(), 0)


def test_root_function_m1_is_counit(ks3, dual_s3):
    for H, _ in (ks3, dual_s3):
        assert root_function(H, 1) == H.eps()


def test_first_indicator_picks_trivial(ks3):
    H, irr = ks3
    got = [fs_indicator(H, i, 1) for i in range(len(irr))]
    assert got == [rat(1)] + [rat(0)] * (len(irr) - 1)


def test_s3_second_indicators_all_one(ks3):
    H, irr = ks3
    assert [fs_indicator(H, i, 2) for i in range(len(irr))] == [rat(1)] * 3


def test_q8_two_dimensional_indicator(kq8):
    H, irr = kq8
    (i,) = [i for i, d in enumerate(irr.degrees) if d == 2]
    assert fs_indicator(H, i, 2) == rat(-1)


def test_root_function_counts_roots(s3, ks3, q8, kq8):
    for G, (H, _) in ((s3, ks3), (q8, kq8)):
        for m in (2, 3):
            rm = root_function(H, m)
            for g in range(G.order):
                brute = sum(1 for x in range(G.order) if G.power(x, m) == g)
                assert at(rm, H, g) == rat(brute)


def test_root_oracle_on_q8(q8, kq8):
    H, _ = kq8
    assert all_pass(crosscheck(q8, parse_word("x1^2"), root_function(H, 2)))


# ---------------------------------------------------------------------------
# iterated commutators


def test_f_iterated_oracle_s3(s3, ks3):
    H, _ = ks3
    assert all_pass(crosscheck(s3, parse_word("[[x1,x2],x3]"), f_iterated(H)))


def test_f_iterated_oracle_q8(q8, kq8):
    H, _ = kq8
    assert all_pass(crosscheck(q8, parse_word("[[x1,x2],x3]"), f_iterated(H)))


def test_f_iterated_three_way_on_commutative(dual_s3):
    H, _ = dual_s3
    fit = f_iterated(H)
    assert fit(H.one()) == rat(H.dim ** 2 * len(H.irred))


# ---------------------------------------------------------------------------
# symmetric forms and Casimir elements


def test_full_lambda_casimir_on_c2():
    H, _ = build_group_algebra(cyclic_group(2))
    _, lam = integrals(H)
    tensor, cas = casimir_of_form(H, symmetric_form(H, lam, scope="full"))
    half = rat(1) * rat(2).inverse()
    assert tensor == {(0, 0): half, (1, 1): half}
    assert cas == H.one()


def test_center_form_t2_is_dual_integral(ks3):
    H, _ = ks3
    _, lam = integrals(H)
    form = t_n_form(H, 2)
    assert form.t == lam
    assert form.u == H.one()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_center_casimir_is_z_n(ks3, n):
    H, _ = ks3
    cas = casimir_of_form(H, t_n_form(H, n))
    assert cas == z_n(H, n)
    if n == 4:
        assert cas == z_n(H, 2) * z_n(H, 2)


def test_degenerate_center_form_raises(ks3):
    H, _ = ks3
    with pytest.raises(DegenerateForm):
        symmetric_form(H, H.eps(), scope="center")


def test_degenerate_full_form_raises(ks3):
    H, _ = ks3
    with pytest.raises(DegenerateForm):
        symmetric_form(H, H.eps(), scope="full")


def test_non_trace_functional_rejected(ks3):
    H, _ = ks3
    delta = HFunc(H, {H.labels.index("(1 2)"): ONE})
    with pytest.raises(ValueError):
        symmetric_form(H, delta, scope="full")


def test_t_tilde_connection_is_z_n_inverse(ks3, ds3):
    for H, _ in (ks3, ds3):
        for n in (2, 3):
            form = t_tilde_form(H, n)
            assert form.u * z_n(H, n) == H.one()


# ---------------------------------------------------------------------------
# Higman maps


def test_higman_at_one_gives_z3(ks3):
    H, _ = ks3
    assert higman_map(H, 2, H.one()) == z_n(H, 3)
    assert z_n(H, 3) == z_n(H, 2)


def test_higman_matches_sandwich_and_adjoint_routes(ks3):
    H, _ = ks3
    integral, _ = integrals(H)
    h = H.elem({2: rat(3), 4: rat(-1)})
    tau = higman_map(H, 2, h)
    assert tau == Z_n_map(H, 3, h)
    assert tau == z_n(H, 2) * H.elem(H.adjoint_raw(integral.vec, h.vec))


def test_higman_identity_on_commutative(dual_s3):
    H, _ = dual_s3
    integral, _ = integrals(H)
    h = H.elem({1: rat(2), 3: rat(5)})
    got = higman_map(H, 2, h)
    assert got == H.elem(H.adjoint_raw(integral.vec, h.vec))
    assert got == h


def test_higman_rejects_small_n(ks3):
    H, _ = ks3
    with pytest.raises(ValueError):
        higman_map(H, 1, H.one())


# ---------------------------------------------------------------------------
# oracle plumbing


def test_oracle_requires_matching_group(s3, kq8):
    H, _ = kq8
    with pytest.raises(ValueError):
        crosscheck(s3, parse_word("[x1,x2]"), f_rob(H))


def test_oracle_flags_wrong_functional(s3, ks3):
    H, _ = ks3
    report = crosscheck(s3, parse_word("[x1,x2]"), f_n(H, 2))
    verdicts = {e["check"].split("[")[0]: e["status"] for e in report}
    assert verdicts["functional_matches_count"] == "fail"
    assert verdicts["character_expansion_matches_count"] == "pass"


# ---------------------------------------------------------------------------
# theorem suites


@pytest.mark.parametrize("fix", ["ks3", "kq8", "dual_s3", "dc2", "ds3"])
def test_suite_sec1_passes(request, fix):
    H, _ = request.getfixturevalue(fix)
    report = theorem_suite_sec1(H, 0)
    assert [e for e in report if e["status"] != "pass"] == []


@pytest.mark.parametrize("fix", ["ks3", "kq8", "dual_s3", "dc2", "ds3"])
def test_suite_sec3_passes(request, fix):
    H, _ = request.getfixturevalue(fix)
    report = theorem_suite_sec3(H, 0)
    assert all_pass(report)
    evidence = [e["check"] for e in report if e["status"] == "evidence"]
    assert "bullet_unit_probe" in evidence


def test_suite_sec3_deterministic(ks3):
    H, _ = ks3
    a = json.dumps(theorem_suite_sec3(H, 7), default=str, sort_keys=True)
    b = json.dumps(theorem_suite_sec3(H, 7), default=str, sort_keys=True)
    assert a == b
