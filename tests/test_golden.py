"""Golden CLI outputs: stdout (or the ``-o`` dump of ``build``) must match
the files in tests/golden/ byte for byte at ``--seed 0``.

The files pin the whole observable output of the CLI on kS3, kQ8 and D(S3):
every ``build`` dump, every ``compute`` target, ``verify --suite all`` on each
instance, ``chartab`` (JSON and markdown), one ``oracle`` cross-check, and
the ``oracle`` counts of the iterated commutator [[x1,x2],x3] over S5.  The
``build`` dumps of kS4xC2 (dim 48, the largest instance pinned here) and of
k^S3 are pinned too, as are ``verify --suite all`` on k^S3 (all six
characters grouplike), the character tables of A4 (values in Q(zeta_3)),
A5 (values in Q(zeta_5)), S4xC2 and C24 (24 classes at conductor 24, the
largest table certified here), and ``compute classdata`` on kC15, which
splits R(kC15) at conductor 15.  A refactor that changes any byte of them changes behaviour.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from hopfcomm.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SPECS = GOLDEN / "specs"

INSTANCES = {"ks3": ("group", "S3"), "kq8": ("group", "Q8"), "ds3": ("double", "S3")}
TARGETS = ("z", "frob", "fn", "root", "iterated", "hprime", "classdata")


def _run(capsys, argv: list[str]) -> bytes:
    assert main(argv + ["--seed", "0"]) == 0
    return capsys.readouterr().out.encode("utf-8")


def _golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    """Each instance's ``build`` dump, built once for the module."""
    out = tmp_path_factory.mktemp("golden")
    paths = {}
    for inst, (kind, group) in INSTANCES.items():
        path = out / f"{inst}.json"
        assert main(["build", kind, str(SPECS / f"{group}.json"),
                     "-o", str(path), "--seed", "0"]) == 0
        paths[inst] = path
    return paths


@pytest.mark.parametrize("inst", sorted(INSTANCES))
def test_build_dump(dumps, inst):
    assert dumps[inst].read_bytes() == _golden(f"build_{inst}.json")


def test_build_dump_ks4c2(tmp_path):
    path = tmp_path / "ks4c2.json"
    assert main(["build", "group", str(SPECS / "S4xC2.json"),
                 "-o", str(path), "--seed", "0"]) == 0
    assert path.read_bytes() == _golden("build_ks4c2.json")


def test_build_dump_dual_s3(tmp_path):
    path = tmp_path / "dual_s3.json"
    assert main(["build", "dualgroup", str(SPECS / "S3.json"),
                 "-o", str(path), "--seed", "0"]) == 0
    assert path.read_bytes() == _golden("build_dual_s3.json")


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("inst", sorted(INSTANCES))
def test_compute(dumps, capsys, inst, target):
    got = _run(capsys, ["compute", target, "--hopf", str(dumps[inst])])
    assert got == _golden(f"compute_{target}_{inst}.json")


@pytest.mark.parametrize("inst", sorted(INSTANCES))
def test_verify_all(dumps, capsys, inst):
    got = _run(capsys, ["verify", "--suite", "all", "--hopf", str(dumps[inst])])
    assert got == _golden(f"verify_all_{inst}.json")


def test_verify_all_dual_s3(capsys):
    got = _run(capsys, ["verify", "--suite", "all", "--group", str(SPECS / "S3.json"),
                        "--kind", "dualgroup"])
    assert got == _golden("verify_all_dual_s3.json")


def test_chartab_json(capsys):
    got = _run(capsys, ["chartab", str(SPECS / "S3.json")])
    assert got == _golden("chartab_S3.json")


@pytest.mark.parametrize("group", ["A4", "A5", "S4xC2", "C24"])
def test_chartab_json_more_groups(capsys, group):
    got = _run(capsys, ["chartab", str(SPECS / f"{group}.json")])
    assert got == _golden(f"chartab_{group}.json")


def test_compute_classdata_kc15(tmp_path, capsys):
    path = tmp_path / "kc15.json"
    assert main(["build", "group", str(SPECS / "C15.json"),
                 "-o", str(path), "--seed", "0"]) == 0
    capsys.readouterr()
    got = _run(capsys, ["compute", "classdata", "--hopf", str(path)])
    assert got == _golden("compute_classdata_kc15.json")


def test_chartab_markdown(capsys):
    got = _run(capsys, ["chartab", str(SPECS / "S3.json"), "--markdown"])
    assert got == _golden("chartab_S3.md")


def test_oracle_against_frob(capsys):
    got = _run(capsys, ["oracle", str(SPECS / "S3.json"), "--word", "[x1,x2]",
                        "--against", "frob"])
    assert got == _golden("oracle_S3_commutator_frob.json")


def test_oracle_s5_iterated_commutator(capsys):
    got = _run(capsys, ["oracle", str(SPECS / "S5.json"), "--word", "[[x1,x2],x3]"])
    assert got == _golden("oracle_S5_iterated_commutator.json")
