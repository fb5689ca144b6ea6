"""CLI surface: subcommands, exit codes, JSON report shape, byte-identical
reruns, and the documented anchors (z_2 coefficients on kS3, the second
indicator vector on kQ8, commutator counts on S3).

Exit codes: 0 ok, 1 hard check failure, 2 parse/load error, 3 verification
failure or refused precondition, 4 cap exceeded.
"""

import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfcomm.cli import main
from hopfcomm.exactnum import CycNum, zeta
from hopfcomm.group import quaternion_group
from hopfcomm.hopf import hopf_from_dict

S3_SPEC = {"name": "S3", "perm_generators": [[[1, 2]], [[1, 2, 3]]]}
C2_SPEC = {"name": "C2", "cayley": [[0, 1], [1, 0]]}
C3_SPEC = {"name": "C3", "cayley": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
C8_SPEC = {"name": "C8", "cayley": [[(a + b) % 8 for b in range(8)] for a in range(8)]}


@pytest.fixture(scope="module")
def specdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("specs")
    (d / "s3.json").write_text(json.dumps(S3_SPEC))
    (d / "c2.json").write_text(json.dumps(C2_SPEC))
    G = quaternion_group()
    q8 = {"name": "Q8", "cayley": [list(r) for r in G.table],
          "labels": list(G.labels)}
    (d / "q8.json").write_text(json.dumps(q8))
    return d


@pytest.fixture(scope="module")
def ks3_dump(specdir):
    path = specdir / "ks3_dump.json"
    assert main(["build", "group", str(specdir / "s3.json"),
                 "-o", str(path)]) == 0
    return path


def run_json(capsys, argv, code=0):
    assert main(argv) == code
    return json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# chartab


def test_chartab_s3_json(specdir, capsys):
    doc = run_json(capsys, ["chartab", str(specdir / "s3.json")])
    assert doc["schema"] == "hopfcomm/1"
    assert doc["degrees"] == [1, 1, 2]
    assert sorted(c["size"] for c in doc["classes"]) == [1, 2, 3]
    assert doc["table"][0] == ["1", "1", "1"]
    assert any(e["stage"] == "dixon" and e["outcome"] == "ok"
               for e in doc["events"])


def test_chartab_c2_values(specdir, capsys):
    doc = run_json(capsys, ["chartab", str(specdir / "c2.json")])
    assert doc["table"] == [["1", "1"], ["1", "-1"]]


def test_chartab_markdown(specdir, capsys):
    assert main(["chartab", str(specdir / "s3.json"), "--markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("| S3")
    assert "| chi_2" in out and "()" in out


def test_chartab_bad_spec_exit2(specdir, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "X", "perm_generators": [[[0, 1]]]}))
    assert main(["chartab", str(bad)]) == 2
    bad.write_text("{not json")
    assert main(["chartab", str(bad)]) == 2
    assert main(["chartab", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("spec", [
    {"name": "X", "perm_generators": [[1, 2]]},
    {"name": "X", "perm_generators": 7},
    {"name": "X", "cayley": 7},
    {"name": "X", "perm_generators": [[[1, None]]]},
    {"name": "X", "perm_generators": [[[1.7, 2]]]},
    {"name": "X", "cayley": [[0, 1.5], [1, 0]]},
], ids=["generator-not-cycles", "generators-int", "cayley-int", "null-point",
        "float-point", "float-entry"])
def test_chartab_spec_types_exit2(tmp_path, capsys, spec):
    # Each of these ended in a TypeError traceback or loaded as another
    # group: [[[1.7, 2]]] as (1 2), the float table as C2.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["chartab", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# build


def test_build_double_dump(specdir, capsys):
    doc = run_json(capsys, ["build", "double", str(specdir / "s3.json")])
    assert doc["schema"] == "hopfcomm/1"
    assert doc["dim"] == 36 and doc["kind"] == "double"
    assert "r_matrix" in doc
    assert sorted(doc["irred"]["degrees"]) == [1, 1, 2, 2, 2, 2, 3, 3]
    assert doc["group_name"] == "S3"


def test_build_writes_output_file(ks3_dump):
    doc = json.loads(ks3_dump.read_text())
    assert doc["dim"] == 6 and doc["kind"] == "group"
    assert doc["irred"]["degrees"] == [1, 1, 2]


# ---------------------------------------------------------------------------
# compute


def test_compute_z2_both_routes(ks3_dump, capsys):
    doc = run_json(capsys, ["compute", "z", "--n", "2",
                            "--hopf", str(ks3_dump)])
    res = doc["result"]
    assert res["e_basis_coefficients"] == ["1", "1", "1/4"]
    assert res["routes_agree"] is True
    assert res["direct_route_vector"] == res["idempotent_route_vector"]


def test_compute_root2_q8_indicators(specdir, capsys):
    doc = run_json(capsys, ["compute", "root", "--m", "2",
                            "--group", str(specdir / "q8.json")])
    assert doc["result"]["character_coefficients"] == ["1", "1", "1", "1", "-1"]
    assert doc["result"]["m"] == 2


def test_compute_frob_counts_commutators(ks3_dump, capsys):
    doc = run_json(capsys, ["compute", "frob", "--hopf", str(ks3_dump)])
    res = doc["result"]
    assert res["character_coefficients"] == ["6", "6", "3"]
    by_label = dict(zip(res["labels"], res["values"]))
    assert by_label["()"] == "18"
    assert by_label["(1 2)"] == "0"
    assert by_label["(1 2 3)"] == "9"


def test_compute_fn_rejects_n_zero(ks3_dump):
    assert main(["compute", "fn", "--n", "0", "--hopf", str(ks3_dump)]) == 2


def test_compute_hprime(ks3_dump, capsys):
    doc = run_json(capsys, ["compute", "hprime", "--hopf", str(ks3_dump)])
    assert doc["result"]["dim"] == 3
    assert len(doc["result"]["basis"]) == 3


def test_compute_classdata(ks3_dump, capsys):
    doc = run_json(capsys, ["compute", "classdata", "--hopf", str(ks3_dump)])
    assert doc["result"]["class_dims"] == [1, 2, 3]


def test_compute_classdata_refused_on_dual(specdir):
    code = main(["compute", "classdata", "--group", str(specdir / "s3.json"),
                 "--kind", "dualgroup"])
    assert code == 3


def test_compute_needs_an_instance():
    assert main(["compute", "z"]) == 2


def test_compute_z_negative_n_exit2(ks3_dump, capsys):
    assert main(["compute", "z", "--n", "-3", "--hopf", str(ks3_dump)]) == 2
    assert "n must be >= 0" in capsys.readouterr().err


def test_compute_root_high_power_has_no_recursion_limit(specdir, capsys):
    # e^[m] is built one factor at a time, not one stack frame per factor
    doc = run_json(capsys, ["compute", "root", "--m", "3000",
                            "--group", str(specdir / "s3.json"), "--kind", "group"])
    # 6 divides 3000, so all six elements of S3 are 3000-th roots of 1
    assert doc["result"]["values"][0] == "6"


def _digit_cap_refusal(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"more than {sys.get_int_max_str_digits()} decimal digits" in err


def test_compute_fn_beyond_the_digit_limit_exit4(specdir, capsys):
    # (6/1)^5999 has 4669 digits, over the int-to-str limit that stays in force
    assert main(["compute", "fn", "--n", "3000",
                 "--group", str(specdir / "s3.json"), "--kind", "group"]) == 4
    _digit_cap_refusal(capsys)


# ---------------------------------------------------------------------------
# verify


def test_verify_all_ks3(ks3_dump, capsys):
    doc = run_json(capsys, ["verify", "--suite", "all",
                            "--hopf", str(ks3_dump)])
    assert set(doc["suites"]) == {"sec1", "sec2", "sec3", "sec4"}
    assert doc["summary"]["fail"] == 0
    assert doc["instance"] == {"kind": "group", "dim": 6, "cyc_order": 6,
                               "group": "S3", "source": "dump"}


def test_verify_sec4_trivial_r_matrix_skips(ks3_dump, tmp_path, capsys):
    data = json.loads(ks3_dump.read_text())
    data["r_matrix"] = [[0, 0, "1"]]  # R = 1 (x) 1, fine on cocommutative kS3
    path = tmp_path / "ks3_trivial_r.json"
    path.write_text(json.dumps(data))
    doc = run_json(capsys, ["verify", "--suite", "sec4", "--hopf", str(path)])
    assert doc["summary"]["fail"] == 0
    skip = [e for e in doc["suites"]["sec4"]
            if e["check"] == "factorizable_applicable"]
    assert skip and skip[0]["status"] == "evidence"
    assert "not bijective" in skip[0]["witness"]


def test_verify_sec4_on_dual_is_single_evidence(specdir, capsys):
    doc = run_json(capsys, ["verify", "--suite", "sec4",
                            "--group", str(specdir / "s3.json"),
                            "--kind", "dualgroup"])
    entries = doc["suites"]["sec4"]
    assert [e["check"] for e in entries] == ["classdata_applicable"]
    assert entries[0]["status"] == "evidence"
    assert doc["summary"]["fail"] == 0


def test_verify_corrupted_dump_exit3(ks3_dump, tmp_path):
    data = json.loads(ks3_dump.read_text())
    data["mult"][3][3] = "2"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--suite", "sec1", "--hopf", str(path)]) == 3


def test_dump_index_outside_basis_exit2(specdir, tmp_path):
    path = tmp_path / "kc2.json"
    assert main(["build", "group", str(specdir / "c2.json"), "-o", str(path)]) == 0
    data = json.loads(path.read_text())
    data["comult"].append([7, 0, 0, "1"])
    path.write_text(json.dumps(data))
    assert main(["compute", "z", "--hopf", str(path)]) == 2


def _built_dump(tmp_path, spec_doc):
    spec = tmp_path / f"{spec_doc['name']}.json"
    spec.write_text(json.dumps(spec_doc))
    path = tmp_path / f"k{spec_doc['name']}.json"
    assert main(["build", "group", str(spec), "-o", str(path)]) == 0
    return path, json.loads(path.read_text())


def _kc3_dump_claiming_cyc_order_1(tmp_path, keep_irred):
    path, data = _built_dump(tmp_path, C3_SPEC)
    data["cyc_order"] = 1  # the true exponent is 3
    if not keep_irred:
        del data["irred"]
    path.write_text(json.dumps(data))
    return path


def test_dump_irred_outside_cyc_order_exit2(tmp_path, capsys):
    path = _kc3_dump_claiming_cyc_order_1(tmp_path, keep_irred=True)
    assert main(["compute", "z", "--hopf", str(path)]) == 2
    err = capsys.readouterr().err
    assert "irred.idempotents" in err and "cyc_order 1" in err


def test_dump_cyc_order_too_small_to_split_exit3(tmp_path, capsys):
    # Without irred the structure constants are all rational, so the load
    # passes; the split of the center then fails and names cyc_order.
    path = _kc3_dump_claiming_cyc_order_1(tmp_path, keep_irred=False)
    assert main(["compute", "classdata", "--hopf", str(path)]) == 3
    assert "cyc_order 1 may be too small" in capsys.readouterr().err


def _clear_irred(data):
    data["irred"] = {}


def _zero_denominator_in_irred(data):
    data["irred"]["idempotents"][0][0][1] = "1/0"


def _zero_denominator_in_mult(data):
    data["mult"][0][3] = "1/0"


@pytest.mark.parametrize("edit, message", [
    (_clear_irred, "malformed irred section"),
    (_zero_denominator_in_irred, "malformed irred section"),
    (_zero_denominator_in_mult, "malformed hopf dump"),
])
def test_dump_malformed_section_exit2(tmp_path, capsys, edit, message):
    path, data = _built_dump(tmp_path, C3_SPEC)
    edit(data)
    path.write_text(json.dumps(data))
    assert main(["compute", "z", "--hopf", str(path)]) == 2
    assert message in capsys.readouterr().err


def _negated_degree_and_character(irred):
    # -d_1 and -chi_1 pass every pairing check that d_1 and chi_1 pass
    irred["degrees"][1] = -irred["degrees"][1]
    irred["characters"][1] = [[i, str(-CycNum.rational(c).as_rational())]
                              for i, c in irred["characters"][1]]


@pytest.mark.parametrize("edit", [
    lambda irred: irred["degrees"].__setitem__(0, 1.5),
    lambda irred: irred["degrees"].__setitem__(0, True),
    lambda irred: irred["degrees"].__setitem__(0, "1"),
    _negated_degree_and_character,
    lambda irred: irred["characters"][1].append([99, "0"]),
    lambda irred: irred["idempotents"][1].append([99, "0"]),
    lambda irred: irred["characters"][1].append([-1, "1"]),
    lambda irred: irred["characters"][1][0].__setitem__(0, 0.0),
], ids=["degree-float", "degree-bool", "degree-string", "degree-negative",
        "character-key-99", "idempotent-key-99", "character-key-negative",
        "character-key-float"])
def test_dump_irred_types_and_keys_exit2(ks3_dump, tmp_path, capsys, edit):
    data = json.loads(ks3_dump.read_text())
    edit(data["irred"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["compute", "z", "--hopf", str(path)]) == 2
    assert "malformed irred section" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda data: data["mult"][0].__setitem__(0, 0.0),
    lambda data: data["mult"][0].__setitem__(2, True),
    lambda data: data["comult"][1].__setitem__(1, 1.0),
    lambda data: data["unit"][0].__setitem__(0, float(data["unit"][0][0])),
    lambda data: data.__setitem__("dim", 6.0),
    lambda data: data.__setitem__("dim", "6"),
    lambda data: data.__setitem__("dim", [6]),
    lambda data: data.__setitem__("cyc_order", "6"),
], ids=["mult-float", "mult-bool", "comult-float", "unit-float", "dim-float",
        "dim-string", "dim-list", "cyc-order-string"])
def test_dump_index_and_dim_types_exit2(ks3_dump, tmp_path, capsys, edit):
    data = json.loads(ks3_dump.read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["compute", "z", "--hopf", str(path)]) == 2
    assert "malformed hopf dump" in capsys.readouterr().err


def _custom_kind_with_two_labels(data):
    data["kind"] = "custom"
    data["labels"] = data["labels"][:2]


@pytest.mark.parametrize("edit", [
    lambda data: data.__setitem__("labels", 7),
    _custom_kind_with_two_labels,
    lambda data: data.__setitem__("labels", list(range(6))),
], ids=["labels-int", "labels-two-of-six", "labels-not-strings"])
def test_dump_labels_must_be_dim_strings_exit2(ks3_dump, tmp_path, capsys, edit):
    data = json.loads(ks3_dump.read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["compute", "frob", "--hopf", str(path)]) == 2
    assert "labels must be a list of 6 strings" in capsys.readouterr().err


def _repeat_first_entry(field, value):
    # the entry's key once more, with another coefficient; a dict keeps one
    # of the two and a sum adds them, both without a word
    def edit(data):
        first = data[field][0]
        data[field].insert(0, first[:-1] + [value])
    return edit


def _r_matrix_with_repeated_key(data):
    e = data["unit"][0][0]
    data["r_matrix"] = [[e, e, "5"], [e, e, "1"]]


@pytest.mark.parametrize("edit", [
    _repeat_first_entry("unit", "5"),
    _repeat_first_entry("counit", "5"),
    _repeat_first_entry("antipode", "0"),
    _repeat_first_entry("mult", "0"),
    _repeat_first_entry("comult", "0"),
    _r_matrix_with_repeated_key,
], ids=["unit", "counit", "antipode", "mult", "comult", "r_matrix"])
def test_dump_repeated_key_exit2(ks3_dump, tmp_path, capsys, edit):
    data = json.loads(ks3_dump.read_text())
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    assert main(["compute", "frob", "--hopf", str(path)]) == 2
    err = capsys.readouterr().err
    assert "malformed hopf dump" in err and "repeats the key" in err


def _at_order_8(c: CycNum):
    # c in Q(i) written in the power basis of zeta_8, where i = zeta_8^2.
    q = c.as_rational()
    if q is not None:
        return str(q)
    a, b = c.coeffs  # coordinates on 1 and zeta_4
    return {"order": 8, "coeffs": [str(a), "0", str(b), "0"]}


def _kc8_rescaled(data):
    """The kC8 dump in the basis i*g, g^2, ..., g^7 (g the generator): the
    same Hopf algebra, with structure constants in Q(i), each written at
    order 8, and cyc_order 4."""
    scale = {1: zeta(4)}
    s = [scale.get(a, CycNum.rational(1)) for a in range(data["dim"])]

    def c(x):
        return CycNum.rational(x) if isinstance(x, str) else CycNum.from_dict(x)

    data["mult"] = [[a, b, k, _at_order_8(c(x) * s[a] * s[b] / s[k])]
                    for a, b, k, x in data["mult"]]
    data["comult"] = [[a, j, k, _at_order_8(c(x) * s[a] / (s[j] * s[k]))]
                      for a, j, k, x in data["comult"]]
    data["antipode"] = [[a, j, _at_order_8(c(x) * s[a] / s[j])]
                        for a, j, x in data["antipode"]]
    data["unit"] = [[a, _at_order_8(c(x) / s[a])] for a, x in data["unit"]]
    data["counit"] = [[a, _at_order_8(c(x) * s[a])] for a, x in data["counit"]]
    data["cyc_order"] = 4
    data["kind"] = "custom"
    del data["irred"]
    return data


def test_dump_coefficient_written_at_a_higher_order_loads(tmp_path, capsys):
    # A coefficient written at order 8 that lies in Q(zeta_4) is accepted
    # under cyc_order 4; one truly outside Q(zeta_4) is refused on load.
    path, data = _built_dump(tmp_path, C8_SPEC)
    data = _kc8_rescaled(data)
    written = [e for e in data["mult"] if isinstance(e[3], dict)]
    assert written and all(e[3]["order"] == 8 for e in written)
    H = hopf_from_dict(data)
    assert H.mult[(1, 1)] == ((2, CycNum.rational(-1)),)
    assert H.mult[(1, 2)] == ((3, zeta(4)),) and H.mult[(1, 2)][0][1].order == 4
    written[0][3] = {"order": 8, "coeffs": ["0", "1", "0", "0"]}  # zeta_8
    path.write_text(json.dumps(data))
    assert main(["compute", "z", "--hopf", str(path)]) == 2
    assert "cyc_order 4" in capsys.readouterr().err


def test_verify_wrong_schema_exit2(ks3_dump, tmp_path):
    data = json.loads(ks3_dump.read_text())
    data["schema"] = "other/9"
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--hopf", str(path)]) == 2


def test_verify_rerun_is_byte_identical(ks3_dump, capsys):
    argv = ["verify", "--suite", "sec3", "--hopf", str(ks3_dump)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_timing_flag_opt_in(ks3_dump, capsys):
    doc = run_json(capsys, ["compute", "z", "--hopf", str(ks3_dump)])
    assert "timing_ms" not in doc
    doc = run_json(capsys, ["compute", "z", "--hopf", str(ks3_dump),
                            "--timing"])
    assert "timing_ms" in doc


# ---------------------------------------------------------------------------
# oracle


def test_oracle_commutator_word_against_frob(specdir, capsys):
    doc = run_json(capsys, ["oracle", str(specdir / "s3.json"),
                            "--word", "[x1,x2]", "--against", "frob"])
    by_class = {c["class"]: c["count"] for c in doc["counts_by_class"]}
    assert by_class["()"] == 18
    assert by_class["(1 2)"] == 0
    assert by_class["(1 2 3)"] == 9
    assert doc["count_is_class_function"] is True
    assert doc["checks"] and all(e["status"] == "pass" for e in doc["checks"])


def test_oracle_square_word_against_root(specdir, capsys):
    doc = run_json(capsys, ["oracle", str(specdir / "q8.json"),
                            "--word", "x1^2", "--against", "root:2"])
    by_class = {c["class"]: c["count"] for c in doc["counts_by_class"]}
    assert by_class["1"] == 2 and by_class["-1"] == 6
    assert all(e["status"] == "pass" for e in doc["checks"])


def test_oracle_iterated_word(specdir, capsys):
    doc = run_json(capsys, ["oracle", str(specdir / "s3.json"),
                            "--word", "[[x1,x2],x3]", "--against", "iterated"])
    assert all(e["status"] == "pass" for e in doc["checks"])
    assert doc["arity"] == 3 and doc["tuples"] == 216


def test_oracle_high_power_against_root(specdir, capsys):
    doc = run_json(capsys, ["oracle", str(specdir / "s3.json"),
                            "--word", "x1^3000", "--against", "root:3000"])
    assert doc["word"] == "x1^3000"
    assert doc["checks"] and all(e["status"] == "pass" for e in doc["checks"])


def test_oracle_huge_exponent_counts_like_its_residue(specdir, capsys):
    # 99999999999999 = 3 mod 6, the exponent of S3
    doc = run_json(capsys, ["oracle", str(specdir / "s3.json"),
                            "--word", "x1^99999999999999"])
    want = run_json(capsys, ["oracle", str(specdir / "s3.json"), "--word", "x1^3"])
    assert doc["counts_by_class"] == want["counts_by_class"]


def test_oracle_against_fn_beyond_the_digit_limit_exit4(specdir, capsys):
    assert main(["oracle", str(specdir / "s3.json"), "--word", "[x1,x2]",
                 "--against", "fn:3000"]) == 4
    _digit_cap_refusal(capsys)


def test_oracle_deep_nesting_exit2(specdir, capsys):
    assert main(["oracle", str(specdir / "s3.json"),
                 "--word", "(" * 400 + "x1" + ")" * 400]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_oracle_wrong_functional_fails(specdir, capsys):
    # cube-root counts are identically 1 on Q8, square counts are not
    code = main(["oracle", str(specdir / "q8.json"),
                 "--word", "x1^2", "--against", "root:3"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert any(e["status"] == "fail" for e in doc["checks"])


def test_oracle_word_syntax_exit2(specdir):
    assert main(["oracle", str(specdir / "s3.json"), "--word", "[x1,x2"]) == 2


def test_oracle_letter_zero_exit2(specdir, capsys):
    assert main(["oracle", str(specdir / "s3.json"), "--word", "x0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "offset 1" in err


def test_oracle_unknown_functional_exit2(specdir):
    assert main(["oracle", str(specdir / "s3.json"), "--word", "x1^2",
                 "--against", "nope"]) == 2


def test_oracle_enum_cap_exit4(specdir, monkeypatch):
    monkeypatch.setenv("HOPFCOMM_CAP", "enum=10")
    assert main(["oracle", str(specdir / "s3.json"), "--word", "[x1,x2]"]) == 4


def test_build_dim_cap_exit4(specdir, monkeypatch):
    monkeypatch.setenv("HOPFCOMM_CAP", "dim=8")
    assert main(["build", "double", str(specdir / "s3.json")]) == 4


def test_bad_subcommand_exit2():
    assert main(["bogus"]) == 2


# ---------------------------------------------------------------------------
# fuzzing main


_INT = st.integers(-3, 3000)
# Words as in the word-DSL fuzzer (letters x0-x12, exponents of at most two
# digits, brackets and junk), and well-formed words in x1-x3.
_WORD = st.one_of(
    st.lists(st.one_of(
        st.integers(0, 12).map(lambda i: f"x{i}"),
        st.from_regex(r"\^-?[0-9]{0,2}", fullmatch=True),
        st.sampled_from(["[", "]", ",", "(", ")", " ", "x", "-"]),
    ), max_size=8).map("".join),
    st.recursive(st.integers(1, 3).map(lambda i: f"x{i}"), lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: f"[{ab[0]},{ab[1]}]"),
        st.tuples(inner, st.integers(-99, 99)).map(lambda wk: f"({wk[0]})^{wk[1]}"),
        st.lists(inner, min_size=2, max_size=3).map("".join),
    ), max_leaves=4),
)
_AGAINST_ARG = st.one_of(
    st.sampled_from(["frob", "f2", "iterated", "nope", "fn:", "root:x"]),
    _INT.map(lambda n: f"fn:{n}"),
    _INT.map(lambda m: f"root:{m}"),
)


@pytest.fixture(scope="module")
def fuzz_files(specdir, ks3_dump):
    """The valid inputs; each example may also write a broken copy of one."""
    return {"s3": specdir / "s3.json", "c2": specdir / "c2.json", "ks3": ks3_dump}


def _broken(data, text: str) -> str:
    how = data.draw(st.sampled_from(["truncate", "mutate", "other"]))
    if how == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if how == "mutate":
        i = data.draw(st.integers(0, len(text) - 1))
        return text[:i] + data.draw(st.sampled_from('0123456789-[]{},:" x')) + text[i + 1:]
    return data.draw(st.one_of(
        st.text(max_size=12),
        st.sampled_from(["null", "[]", "{}", "7", '"S3"', '{"name": "S3"}'])))


def _fuzz_argv(data, files, specdir) -> list[str]:
    def path(*usual):
        # mostly the kind of file the flag expects, sometimes any other
        name = data.draw(st.sampled_from([*usual, *usual, "s3", "c2", "ks3", "broken",
                                          "missing"]))
        if name == "broken":
            source = data.draw(st.sampled_from(sorted(files)))
            target = specdir / "broken.json"
            target.write_text(_broken(data, files[source].read_text()))
            return str(target)
        return str(specdir / "missing.json") if name == "missing" else str(files[name])

    def instance():
        how = data.draw(st.sampled_from(["hopf", "group", "none"]))
        if how == "hopf":
            return ["--hopf", path("ks3")]
        if how == "group":
            return ["--group", path("s3", "c2"), "--kind",
                    data.draw(st.sampled_from(["group", "dualgroup", "double"]))]
        return []

    cmd = data.draw(st.sampled_from(["chartab", "build", "compute", "verify", "oracle",
                                     "bogus"]))
    argv = [cmd]
    if cmd == "chartab":
        argv += [path("s3", "c2")] + data.draw(st.sampled_from([[], ["--markdown"]]))
    elif cmd == "build":
        argv += [data.draw(st.sampled_from(["group", "dualgroup", "double"])),
                 path("s3", "c2")]
        argv += data.draw(st.sampled_from([[], ["-o", str(specdir / "out.json")]]))
    elif cmd == "compute":
        argv += [data.draw(st.sampled_from(["z", "frob", "fn", "root", "iterated",
                                            "hprime", "classdata"]))]
        argv += instance()
        for flag in ("--n", "--m"):
            if data.draw(st.booleans()):
                argv += [flag, str(data.draw(_INT))]
    elif cmd == "verify":
        argv += ["--suite", data.draw(st.sampled_from(["sec1", "sec2", "sec3", "sec4",
                                                       "all", "sec9"]))]
        argv += instance()
    elif cmd == "oracle":
        argv += [path("s3", "c2"), "--word", data.draw(_WORD)]
        if data.draw(st.booleans()):
            argv += ["--against", data.draw(_AGAINST_ARG)]
    argv += data.draw(st.sampled_from([[], [], [], ["--seed", "1"], ["--timing"],
                                       ["--seed"], ["--nope"], ["--seed", "x"]]))
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_main_fuzz_ends_in_documented_exit_codes(specdir, fuzz_files, monkeypatch, data):
    # Every argv ends in an exit code of 0-4; no exception escapes main.
    monkeypatch.setenv("HOPFCOMM_CAP", "enum=20000,dim=8")
    assert main(_fuzz_argv(data, fuzz_files, specdir)) in range(5)
