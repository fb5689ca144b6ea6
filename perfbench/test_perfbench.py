"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q       (about a minute)
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import micro  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


def test_every_workload_is_declared_with_its_why():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(declared) == set(run.WORKLOADS)
    for why in declared.values():
        assert why.strip() and "\n" not in why and len(why) <= 200


def test_per_layer_names_match_what_the_trace_reports():
    fake = {"functions": {}, "layer_self_s": {}, "exactnum_ops": 0,
            "exactnum_irrational_ops": 0, "undrained_events": []}
    outcome = run.Outcome([sys.executable, "tracer.py", "t.json", "--", "build"],
                          0, 0.0, 0.0, 0.0, b"", "", False)
    reported = set(run.layer_metrics([outcome], [fake]))
    reported |= {f"exactnum.{op}_us.o{n}" for op in ("add", "mul")
                 for n in micro.ADD_MUL_ORDERS}
    reported |= {f"exactnum.inv_us.o{n}" for n in micro.INV_ORDERS}
    reported |= {"linalg.rank_ms.q", "linalg.rank_ms.cyc12", "trace.overhead_ratio"}
    assert reported == {m["name"] for m in SPEC["per_layer"]}


def _s3_spec(tmp_path: Path) -> Path:
    spec = tmp_path / "S3.json"
    spec.write_text(json.dumps({"name": "S3", "perm_generators": run.GROUPS["S3"]}))
    return spec


def _traced(tmp_path: Path, trace: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH_DIR / "tracer.py"),
                           str(tmp_path / trace), "--", *args],
                          cwd=tmp_path, env=ENV, capture_output=True, timeout=120)


def test_traced_stdout_equals_untraced(tmp_path):
    _s3_spec(tmp_path)
    args = ["oracle", "S3.json", "--word", "[x1,x2]", "--against", "frob"]
    plain = subprocess.run([sys.executable, "-m", "hopfcomm.cli", *args], cwd=tmp_path,
                           env=ENV, capture_output=True, timeout=120)
    traced = _traced(tmp_path, "t.json", *args)
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["functions"]["group.count_word"]["calls"] >= 1
    assert doc["layer_self_s"]["group"] > 0
    ids = {s["id"] for s in doc["spans"]}
    assert all(s["parent"] is None or s["parent"] in ids for s in doc["spans"])
    assert all(s["start_s"] <= s["end_s"] for s in doc["spans"])


def test_two_traced_runs_give_identical_counts(tmp_path):
    _s3_spec(tmp_path)
    docs = []
    for name in ("a", "b"):
        r = _traced(tmp_path, f"{name}.json", "build", "double", "S3.json",
                    "-o", f"{name}-ds3.json")
        assert r.returncode == 0
        docs.append(json.loads((tmp_path / f"{name}.json").read_text()))
    a, b = docs
    assert {k: v["calls"] for k, v in a["functions"].items()} == \
           {k: v["calls"] for k, v in b["functions"].items()}
    assert a["exactnum_ops"] == b["exactnum_ops"] > 0
    assert a["undrained_events"] == b["undrained_events"]
    assert (tmp_path / "a-ds3.json").read_bytes() == (tmp_path / "b-ds3.json").read_bytes()


def test_tracer_uninstall_restores_the_package():
    from hopfcomm import cli, exactnum, hopf

    def current():
        return (exactnum.CycNum.__add__, exactnum.CycNum.__dict__["zeta"],
                hopf.HopfAlgebra.mul_raw, cli.build_group_algebra,
                hopf.verify_hopf_axioms, cli._SUITES["sec2"])

    originals = current()
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.build_group_algebra is not originals[3]
        assert cli._SUITES["sec2"] is not originals[5]
        x = exactnum.CycNum.zeta(3) + 1
        assert t.exact_ops == 1 and t.irrational_ops == 1 and x.order == 3
        assert t.stats["exactnum.CycNum.zeta"][0] == 1
        assert exactnum.CycNum.from_dict(x.to_dict()).conjugate() == x.galois(2)
        assert t.stats["exactnum.CycNum.galois"][0] == 2
    finally:
        t.uninstall()
    assert current() == originals


def test_tracer_subtracts_its_own_cost():
    """A frame that makes many wrapped calls is not charged their wrapper cost."""
    def caller(fn, n):
        x = tracer._Operand()
        for _ in range(n):
            fn(x, x)

    self_s = {}
    for name, cost in (("raw", tracer.NO_COST), ("corrected", tracer.calibrate())):
        t = tracer.Tracer(cost)
        leaf = t._wrap(tracer._noop, "leaf", "exactnum", span=False, exact_op=False)
        t._wrap(caller, "caller", "hopf", span=True, exact_op=False)(leaf, 50_000)
        self_s[name] = t.layer_self["hopf"]
        # The layers' self times add up to the traced time, less the wrapper cost.
        assert sum(t.layer_self.values()) == pytest.approx(t.stack[0][1])
        assert t.to_dict()["wrapper_overhead_s"] >= 50_000 * sum(cost["hot"])
    assert self_s["corrected"] < 0.5 * self_s["raw"]


def test_rank_check_catches_a_wrong_rank(monkeypatch):
    from hopfcomm import _linalg
    assert micro.linalg_bench(3)[1] == []
    real = _linalg.rank
    monkeypatch.setattr(_linalg, "rank", lambda vecs: real(vecs) - 1)
    assert len(micro.linalg_bench(3)[1]) == 2


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_the_declared_ones(trace):
    r = bench("--workload", "double", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, r.stderr
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
           {m["name"]: m["unit"] for m in SPEC[kind]}
    for name in result["metrics"]:
        assert name in r.stderr  # the readable table names every metric
    if trace == "0":  # each command reported its own peak RSS
        assert result["metrics"]["peak_rss_mb"]["value"] > 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    r = bench("--workload", "double", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout


def test_a_command_that_overruns_is_killed_and_fails(tmp_path):
    out = run.run_command([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path, 0.5)
    assert out.timed_out and out.wall_s < 10
    assert run.check(("suites_pass",), out) == "timed out"
