"""Acceptance criteria, one test per criterion: running ``pytest -v`` on this
file prints one pass/fail line per criterion.

Each criterion pins the library against independent anchors (brute-force
word counts on finite groups, classical character theory) and a wall-clock
budget; the budgets are generous so they only catch complexity regressions.
"""

import random
import time

import pytest

from hopfcomm.chartab import dixon_character_table
from hopfcomm.classdata import (
    factorizable_suite,
    kaplansky_report,
    membership_test,
    r_matrix_data,
    require_classdata,
    theorem_suite_sec4,
)
from hopfcomm.commutator import (
    algebra_closure,
    com_span,
    commutator_subalgebra,
    probe_question_31,
    theorem_suite_sec2,
)
from hopfcomm.counting import (
    bullet_power,
    bullet_unit_probe,
    casimir_of_form,
    f_iterated,
    f_n,
    f_rob,
    oracle_crosscheck,
    root_function,
    t_n_form,
)
from hopfcomm.commutator import z_n
from hopfcomm.exactnum import CycNum
from hopfcomm.group import count_word, parse_word
from hopfcomm.hopf import (
    HopfAlgebra,
    frobenius_psi,
    psi_inv,
    random_element,
    random_functional,
    verify_hopf_axioms,
)

rat = CycNum.rational


class _Budget:
    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.seconds, \
                f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s"
        return False


def _no_fail(report):
    return [e for e in report if e["status"] == "fail"] == []


def test_criterion_01_frobenius_counts_commutator_words(ks3, kq8, ks4, kd4):
    with _Budget(5):
        w = parse_word("[x1,x2]")
        for H, _ in (ks3, kq8, ks4, kd4):
            f = f_rob(H)
            assert f == rat(H.dim) * frobenius_psi(H, z_n(H, 2))
            counts = count_word(H.group, w)
            for g in range(H.dim):
                assert f(H.elem({g: rat(1)})) == rat(counts[g])
        H, _ = ks3
        by_label = {H.labels[g]: f_rob(H)(H.elem({g: rat(1)}))
                    for g in range(6)}
        assert by_label["()"] == rat(18)
        assert by_label["(1 2)"] == rat(0)
        assert by_label["(1 2 3)"] == rat(9)
        H, _ = kq8
        minus_one = H.labels.index("-1")
        assert f_rob(H)(H.elem({minus_one: rat(1)})) == rat(24)


def test_criterion_02_commutator_suite_and_hprime(ks3, kq8, dual_s3, dc2, ds3):
    with _Budget(30):
        for H, _ in (ks3, kq8, dual_s3, dc2, ds3):
            report = theorem_suite_sec2(H)
            assert _no_fail(report)
        H, _ = ks3
        route_closure = commutator_subalgebra(H)
        route_span = algebra_closure(H, com_span(H, 2).basis())
        assert route_closure == route_span
        assert route_closure.rank == 3


def test_criterion_03_word_oracle_equivalences(s3, q8, ks3, kq8):
    with _Budget(10):
        for G, (H, _) in ((s3, ks3), (q8, kq8)):
            pairs = [
                ("[x1,x2]", f_rob(H)),
                ("x1^2", root_function(H, 2)),
                ("x1^3", root_function(H, 3)),
                ("[[x1,x2],x3]", f_iterated(H)),
                ("[x1,x2][x3,x4]", f_n(H, 2)),
            ]
            for word, f in pairs:
                report = oracle_crosscheck(G, parse_word(word), f)
                assert report and _no_fail(report), (G.name, word)


def test_criterion_04_bullet_powers_give_higher_functionals(ks3, ds3):
    with _Budget(10):
        for H, _ in (ks3, ds3):
            frob = f_rob(H)
            for l in (1, 2, 3):
                power = bullet_power(H, frob, l)
                assert power == f_n(H, l)
                assert power == rat(H.dim ** (2 * l - 1)) \
                    * frobenius_psi(H, z_n(H, 2 * l))


def test_criterion_05_iterated_functional_three_routes(ks3, kq8, dual_s3, ds3):
    with _Budget(10):
        # f_iterated raises FormulaMismatch unless all three routes agree
        for H, _ in (ks3, kq8, dual_s3, ds3):
            f = f_iterated(H)
            assert f(H.one()) != rat(0)


def test_criterion_06_class_suite_and_membership_verdicts(ks3, kq8, ds3):
    with _Budget(60):
        for H, _ in (ks3, kq8, ds3):
            assert _no_fail(theorem_suite_sec4(H))
            for n in (2, 3):  # center Casimir of the t_n form is z_n
                _, cas = casimir_of_form(H, t_n_form(H, n))
                assert cas == z_n(H, n)
        H, _ = ks3
        data = require_classdata(H)
        f1 = f_n(H, 1)
        verdict_by_size = {}
        for j in range(len(data)):
            pair_nz, in_coideal = membership_test(H, data, f1, j)
            assert pair_nz == in_coideal
            verdict_by_size[data.class_dims[j]] = in_coideal
        # size 1: identity; size 2: the 3-cycles; size 3: the transpositions
        assert verdict_by_size == {1: True, 2: True, 3: False}


def test_criterion_07_factorizable_double_suite(dc2, ds3):
    with _Budget(60):
        expected = {
            "drinfeld_map_bijective",
            "drinfeld_map_sends_chi_to_eta",
            "adjoint_character_maps_to_z2",
            "fourier_sends_z2_to_eta_sum",
            "dual_fourier_sends_adjoint_character_to_frob",
            "class_dims_are_degree_squares",
        }
        for H, _ in (dc2, ds3):
            report = factorizable_suite(H, r_matrix_data(H))
            assert _no_fail(report)
            names = {e["check"] for e in report}
            assert expected <= names


def test_criterion_08_kaplansky_integrality_on_double(ds3):
    with _Budget(10):
        H, _ = ds3
        report = kaplansky_report(H)
        assert _no_fail(report)
        names = {e["check"]: e["status"] for e in report}
        assert names["degrees_divide_dimension"] == "pass"
        for tag in ("frob", "f2", "iterated"):
            assert names[f"integral_coefficients[{tag}]"] == "pass"
        assert names["iterated_summands_integral"] == "pass"


def test_criterion_09_verifier_mutants_dixon_and_psi(
        s3, s4, q8, d4, a4, ks3, kq8, dual_s3, dc2, ds3):
    with _Budget(30):
        H, _ = ks3
        assert _no_fail(verify_hopf_axioms(H))

        # mutant: 3-cycle antipode pointed at itself instead of its inverse
        bad_antipode = dict(H.antipode)
        three_cycle = H.labels.index("(1 2 3)")
        bad_antipode[three_cycle] = ((three_cycle, 1),)
        mutant = HopfAlgebra(
            dim=H.dim, mult=H.mult, comult=H.comult, unit=H.unit_vec,
            counit=H.counit_vec, antipode=bad_antipode,
            cyc_order=H.cyc_order, check=False)
        failures = [e for e in verify_hopf_axioms(mutant)
                    if e["status"] == "fail"]
        assert failures and all("witness" in e for e in failures)

        degrees = {
            "S3": (1, 1, 2), "S4": (1, 1, 2, 3, 3), "Q8": (1, 1, 1, 1, 2),
            "D4": (1, 1, 1, 1, 2), "A4": (1, 1, 1, 3),
        }
        for G in (s3, s4, q8, d4, a4):
            table = dixon_character_table(G)  # orthogonality checked inside
            assert table.degrees == degrees[G.name]
            assert sum(d * d for d in table.degrees) == G.order

        rng = random.Random(9)
        for H, _ in (ks3, kq8, dual_s3, dc2, ds3):
            for _i in range(100):
                h = random_element(H, rng, density=0.5)
                assert psi_inv(H, frobenius_psi(H, h)) == h
            for _i in range(20):
                p = random_functional(H, rng)
                assert frobenius_psi(H, psi_inv(H, p)) == p


def test_criterion_10_open_question_probes_are_evidence_only(ks3, kq8, dual_s3, ds3):
    with _Budget(30):
        for H, _ in (ks3, kq8, dual_s3, ds3):
            for entry in probe_question_31(H):
                assert entry["status"] == "evidence"
                assert "witness" in entry
            probe = bullet_unit_probe(H)
            assert probe["status"] == "evidence"
        for H, _ in (ks3, kq8, ds3):
            sec4 = theorem_suite_sec4(H)
            probes = [e for e in sec4
                      if e["check"] in ("question_fn_pairing_vs_hprime",
                                        "second_indicator_vector",
                                        "bullet_unit_probe")]
            assert probes
            assert all(e["status"] == "evidence" for e in probes)
