"""Benchmark of the ``hopfcomm`` command line, as a user runs it.

    python3 perfbench/run.py --workload {cyclo,double,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  A workload is one user session: a
``build`` command that writes a dump, then one or two commands that read it
or query a group.  Each command is a fresh ``python3 -m hopfcomm.cli``
process, started after the previous one ends (a closed loop with one
client), with PYTHONHASHSEED=0 so that every run does the same work.
Sessions repeat until ``--seconds`` is used up, each in a fresh directory;
the metrics are medians over the sessions.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  session_s    time of the whole session (build_s + query_s)
  build_s      time of its build command
  query_s      time of the other commands
  setup_s      time of ``hopfcomm --help`` (interpreter, imports, parser),
               median of several probes spread over the run
  peak_rss_mb  largest peak RSS (VmHWM) over the session's processes

Times are wall seconds scaled to a nominal host speed.  The host's speed
drifts by tens of percent within seconds, so a thread of the driver times a
fixed stdlib reference loop (in thread CPU time) every SAMPLE_PERIOD_S while
the commands run, and each command's wall time is multiplied by
REF_NOMINAL_S over the mean reading during the command (around it, for a
command shorter than a few periods).  The driver and its commands share one
CPU, so the loop measures the CPU the command ran on; it takes about 5% of
that CPU, the same on every commit.  Raw wall times and the readings are
kept in the results file.

--trace 1 reports the per-layer metrics: L0/L1 microbenchmarks, then one
untraced session and one traced session (``tracer.py``, the same commands
as fresh processes with every layer's public functions wrapped).  Their
stdout and dumps must be identical.  Spans, counts and the run-event log are
written to perfbench/results/.

Every output is checked: exit code, the semantic check of each command and,
at seed 0, byte digests recorded in golden.json.  A change that alters the
output on purpose updates golden.json by hand, from the digests that the
mismatch report prints.  A failed, mismatched or timed-out command counts
in ``failed`` and makes ``correct`` false; it is never dropped.  The last
stdout line is the result as JSON; a readable table, the spread and the
environment (Python, nproc, source revision, load average at start and end)
go to stderr and to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACER = BENCH_DIR / "tracer.py"
GOLDEN = BENCH_DIR / "golden.json"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / ".work"

RUN_LIMIT_S = 170.0       # the whole run, including a command that overruns
SETUP_PROBES = 9
REF_NOMINAL_S = 0.0125    # reference loop time that defines "nominal speed"
SAMPLE_PERIOD_S = 0.3
DEFAULT_SEED = 0          # the seed at which outputs must match golden.json

GROUPS = {
    "C8": [[list(range(1, 9))]],
    "S3": [[[1, 2]], [[1, 2, 3]]],
    "S4xC2": [[[1, 2]], [[1, 2, 3, 4]], [[5, 6]]],
    "S5": [[[1, 2]], [[1, 2, 3, 4, 5]]],
}

# Each command: argv after ``hopfcomm`` (without --seed) and its check.
WORKLOADS = {
    "cyclo": [
        (["build", "group", "C8.json", "-o", "kc8.json"], ("irreducibles", 8)),
        (["compute", "z", "--n", "2", "--hopf", "kc8.json"], ("routes_agree",)),
        (["compute", "classdata", "--hopf", "kc8.json"], ("classdata", 8)),
    ],
    "double": [
        (["build", "double", "S3.json", "-o", "ds3.json"], ("irreducibles", 8)),
        (["verify", "--suite", "all", "--hopf", "ds3.json"], ("suites_pass",)),
    ],
    "sweep": [
        (["build", "group", "S4xC2.json", "-o", "ks4c2.json"], ("irreducibles", 10)),
        (["oracle", "S5.json", "--word", "[[x1,x2],x3]"], ("class_function",)),
    ],
}


# ---------------------------------------------------------------------------
# host speed


def _reference_loop() -> None:
    s, d = Fraction(0), {}
    for i in range(1, 2500):
        s += Fraction(1, i)
        d[i % 97] = s


class SpeedSampler:
    """Times the reference loop every SAMPLE_PERIOD_S in a background thread.

    The loop is timed in thread CPU time, so a reading is the CPU's speed
    while the loop ran, not the wait for a CPU the command is using."""

    def __init__(self):
        self.readings: list[tuple[float, float]] = []   # (perf_counter, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.thread_time()
            _reference_loop()
            self.readings.append((time.perf_counter(), time.thread_time() - t0))

    def speed_during(self, t0: float, t1: float) -> float:
        """Mean of at least three readings: those within [t0, t1], or, for a
        short command, those nearest its midpoint."""
        inside = [r for t, r in self.readings if t0 <= t <= t1]
        if len(inside) < 3:
            mid = (t0 + t1) / 2
            inside = [r for _, r in sorted(self.readings, key=lambda x: abs(x[0] - mid))[:3]]
        return statistics.mean(inside)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


# ---------------------------------------------------------------------------
# running one command


class Outcome:
    def __init__(self, argv, rc, t0, t1, rss_mb, stdout, stderr, timed_out):
        self.argv = argv
        self.rc = rc
        self.t0, self.t1 = t0, t1
        self.wall_s = t1 - t0
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stderr = stderr
        self.timed_out = timed_out
        self.error = None
        self.digests = None
        self.norm_s = None    # set by Run.finish


def run_command(argv: list[str], cwd: Path, timeout: float) -> Outcome:
    """Run argv to completion: exit code, wall time and the peak RSS that a
    command started by ``cli_argv`` reports on its last stderr line."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    timed_out = threading.Event()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)

        def kill():
            timed_out.set()
            proc.kill()

        # A blocking wait sees the exit at once; wait(timeout) polls with
        # sleeps of up to 50 ms, which would show in short commands.
        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        t1 = time.perf_counter()
    stderr, rss_kb = err_path.read_text(errors="replace"), 0
    head, sep, tail = stderr.rpartition(f"\n{RSS_TAG} ")
    if sep:
        stderr, rss_kb = head, int(tail)
    return Outcome(argv, proc.returncode, t0, t1, rss_kb / 1024.0,
                   out_path.read_bytes(), stderr, timed_out.is_set())


# ``python3 -m hopfcomm.cli`` that also writes its own peak RSS (VmHWM) as
# the last stderr line.  The max-RSS of wait4 cannot serve: it starts from the
# driver's RSS at fork, which is about as large as a command's.
RSS_TAG = "perfbench-peak-rss-kb"
CLI_LAUNCHER = f"""import atexit, runpy, sys
def report():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    sys.stderr.write("\\n{RSS_TAG} " + kb)
atexit.register(report)
runpy.run_module("hopfcomm.cli", run_name="__main__", alter_sys=True)
"""


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_LAUNCHER] + args


def traced_argv(trace_path: Path, args: list[str]) -> list[str]:
    return [sys.executable, str(TRACER), str(trace_path), "--"] + args


# ---------------------------------------------------------------------------
# correctness


def check(spec: tuple, out: Outcome) -> str | None:
    """The semantic check of one command; None if it passes."""
    if out.timed_out:
        return "timed out"
    if out.rc != 0:
        return f"exit code {out.rc}: {out.stderr.strip()[-200:]}"
    kind = spec[0]
    if kind == "irreducibles":
        m = re.search(r"(\d+) irreducibles", out.stderr)
        if m is None or int(m.group(1)) != spec[1]:
            return f"expected {spec[1]} irreducibles, stderr: {out.stderr.strip()[-200:]}"
        return None
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return "stdout is not JSON"
    if kind == "routes_agree":
        ok = doc.get("result", {}).get("routes_agree") is True
    elif kind == "classdata":
        result = doc.get("result", {})
        ok = all(len(result.get(k, ())) == spec[1] for k in ("class_dims", "F", "C", "eta"))
    elif kind == "suites_pass":
        summary = doc.get("summary", {})
        ok = summary.get("fail") == 0 and summary.get("pass", 0) > 0
    elif kind == "class_function":
        ok = doc.get("count_is_class_function") is True
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None if ok else f"check {kind} failed"


def digests(cmd_args: list[str], out: Outcome, cwd: Path) -> dict:
    """sha256 of stdout and, for build, of the written dump."""
    d = {"stdout": hashlib.sha256(out.stdout).hexdigest()}
    if "-o" in cmd_args:
        d["dump"] = hashlib.sha256(
            (cwd / cmd_args[cmd_args.index("-o") + 1]).read_bytes()).hexdigest()
    return d


# ---------------------------------------------------------------------------
# sessions


class Run:
    """State of one benchmark run: deadline, work directory, tallies."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        WORK.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.golden = (json.loads(GOLDEN.read_text())[workload]
                       if seed == DEFAULT_SEED else None)
        self.outcomes: list[Outcome] = []
        self.sampler = SpeedSampler()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")

    def command(self, argv: list[str], cwd: Path) -> Outcome:
        out = run_command(argv, cwd, self.remaining())
        self.outcomes.append(out)
        return out

    def finish(self) -> None:
        """Stop sampling; scale every command's wall time to nominal speed."""
        time.sleep(2 * SAMPLE_PERIOD_S)  # readings after the last command
        self.sampler.stop()
        for out in self.outcomes:
            out.norm_s = out.wall_s * REF_NOMINAL_S / self.sampler.speed_during(out.t0, out.t1)

    def setup_probe(self) -> Outcome:
        out = self.command(cli_argv(["--help"]), self.work)
        error = None if out.rc == 0 and b"usage:" in out.stdout else f"exit code {out.rc}"
        self.record("hopfcomm --help", error)
        return out

    def session(self, traced: bool = False) -> dict:
        """One session in a fresh directory: per-command outcomes and times."""
        sdir = Path(tempfile.mkdtemp(prefix="s", dir=self.work))
        for name, gens in GROUPS.items():
            (sdir / f"{name}.json").write_text(
                json.dumps({"name": name, "perm_generators": gens}))
        commands = []
        for i, (args, spec) in enumerate(WORKLOADS[self.workload]):
            args = args + ["--seed", str(self.seed)]
            argv = (traced_argv(sdir / f"trace{i}.json", args) if traced
                    else cli_argv(args))
            out = self.command(argv, sdir)
            out.error = check(spec, out)
            if out.error is None:
                out.digests = digests(args, out, sdir)
                if self.golden is not None and not traced:
                    if out.digests != self.golden[i]:
                        out.error = f"output differs from golden.json: {out.digests}"
            label = ("traced " if traced else "") + "hopfcomm " + " ".join(args)
            self.record(label, out.error)
            commands.append(out)
            if out.timed_out:
                break
        return {"dir": sdir, "commands": commands,
                "wall_s": sum(c.wall_s for c in commands)}

    def close(self) -> None:
        self.sampler.stop()
        shutil.rmtree(self.work, ignore_errors=True)


def session_times(session: dict) -> dict:
    """The end-to-end figures of one session, after Run.finish."""
    commands = session["commands"]
    return {"session_s": sum(c.norm_s for c in commands),
            "build_s": commands[0].norm_s,
            "query_s": sum(c.norm_s for c in commands[1:]),
            "peak_rss_mb": max(c.rss_mb for c in commands),
            "raw_session_s": session["wall_s"]}


def timed_sessions(run: Run, seconds: float) -> tuple[list[dict], list[Outcome]]:
    """Sessions until ``seconds`` is used, with setup probes spread between them."""
    sessions, setups = [], []
    t0 = time.perf_counter()
    while True:
        setups.append(run.setup_probe())
        s = run.session()
        sessions.append(s)
        shutil.rmtree(s["dir"], ignore_errors=True)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(x["wall_s"] for x in sessions)
        if (elapsed + typical > seconds or typical > run.remaining() - 10
                or any(c.timed_out for c in s["commands"])):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(run.setup_probe())
    return sessions, setups


def spread(values: list[float]) -> dict:
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v), "min": v[0], "max": v[-1]}
    if len(v) >= 2:
        q = statistics.quantiles(v, n=4)
        out["iqr_over_median"] = (q[2] - q[0]) / out["median"] if out["median"] else 0.0
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the traced session


def _events(commands: list[Outcome], traces: list[dict]) -> list[dict]:
    """The run-event log: the ``events`` array of every emitted report plus
    what build left in the log (build writes a dump, not a report)."""
    events = []
    for out, tr in zip(commands, traces):
        try:
            events.extend(json.loads(out.stdout).get("events", []))
        except ValueError:
            pass
        events.extend(tr.get("undrained_events", []))
    return events


def layer_metrics(commands: list[Outcome], traces: list[dict]) -> dict:
    calls: dict = {}
    incl: dict = {}
    layer_self: dict = {}
    ops = irrational = 0
    for tr in traces:
        for name, st in tr["functions"].items():
            calls[name] = calls.get(name, 0) + st["calls"]
            incl[name] = incl.get(name, 0.0) + st["inclusive_s"]
        for layer, s in tr["layer_self_s"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        ops += tr["exactnum_ops"]
        irrational += tr["exactnum_irrational_ops"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return incl.get(name, 0.0)

    m = {
        "exactnum.ops": ops,
        "exactnum.irrational_ops": irrational,
        "linalg.insert.calls": c("_linalg.Echelon.insert") + c("_linalg.Solver.insert"),
        "linalg.reduce.calls": c("_linalg.Echelon.reduce"),
        "chartab.dixon_character_table.s": s("chartab.dixon_character_table"),
        "chartab.group_central_idempotents.s": s("chartab.group_central_idempotents"),
        "hopf.mul_raw.calls": c("hopf.HopfAlgebra.mul_raw"),
        "hopf.comult_raw.calls": c("hopf.HopfAlgebra.comult_raw"),
        "hopf.tensor_mult.calls": c("hopf.tensor_mult"),
        "hopf.verify_hopf_axioms.calls": c("hopf.verify_hopf_axioms"),
        "commutator.hopf_commutator.calls": c("commutator.hopf_commutator"),
        "commutator.hopf_commutator.s": s("commutator.hopf_commutator"),
        "commutator.n_commutator.calls": c("commutator.n_commutator"),
        "commutator.n_commutator.s": s("commutator.n_commutator"),
        "commutator.theorem_suite_sec2.s": s("commutator.theorem_suite_sec2"),
        "counting.theorem_suite_sec3.s": s("counting.theorem_suite_sec3"),
        "classdata.theorem_suite_sec4.s": s("classdata.theorem_suite_sec4"),
        "classdata.rh_idempotents.s": s("classdata.rh_idempotents"),
        "group.count_word.s": s("group.count_word"),
        "cli.main.s": s("cli.main"),
    }
    for fn in ("verify_hopf_axioms", "integrals", "split_commutative",
               "irreducibles_generic", "build_group_algebra",
               "build_drinfeld_double", "hopf_from_dict", "irred_from_dict",
               "hopf_to_dict", "theorem_suite_sec1"):
        m[f"hopf.{fn}.s"] = s(f"hopf.{fn}")
    for layer, name in (("exactnum", "exactnum"), ("_linalg", "linalg"),
                        ("_modp", "modp"), ("group", "group"), ("chartab", "chartab"),
                        ("hopf", "hopf"), ("commutator", "commutator"),
                        ("counting", "counting"), ("classdata", "classdata"),
                        ("cli", "cli")):
        m[f"{name}.self_s"] = layer_self.get(layer, 0.0)

    tuples = count_s = 0.0
    for out, tr in zip(commands, traces):
        if out.argv[out.argv.index("--") + 1] == "oracle":
            tuples += json.loads(out.stdout)["tuples"]
            count_s += tr["functions"].get("group.count_word", {}).get("inclusive_s", 0.0)
    m["group.count_word.tuples_per_s"] = tuples / count_s if count_s else 0.0

    events = _events(commands, traces)
    for stage, name in (("dixon", "chartab.dixon"), ("split_commutative", "hopf.split")):
        tries = [e for e in events if e.get("stage") == stage]
        m[f"{name}.attempts"] = len(tries)
        m[f"{name}.ok_ratio"] = (sum(e.get("outcome") == "ok" for e in tries) / len(tries)
                                 if tries else 0.0)
    return m


def traced_pass(run: Run, metrics: dict) -> dict:
    """Untraced then traced sessions; per-layer metrics and the trace file."""
    plain = run.session()
    traced = run.session(traced=True)
    traces = []
    for i, (p, t) in enumerate(zip(plain["commands"], traced["commands"])):
        path = traced["dir"] / f"trace{i}.json"
        traces.append(json.loads(path.read_text()) if path.exists() else None)
        if p.error is None and t.error is None:
            same = p.stdout == t.stdout and p.digests == t.digests
            run.record(f"traced output equals untraced: {' '.join(t.argv[4:])}",
                       None if same else "traced output differs from untraced output")
    complete = len(traced["commands"]) == len(WORKLOADS[run.workload]) and all(traces)
    if complete:
        metrics.update(layer_metrics(traced["commands"], traces))
    run.finish()
    plain_s = session_times(plain)["session_s"]
    traced_s = session_times(traced)["session_s"]
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    return {"untraced_session_s": plain_s,
            "traced_session_s": traced_s,
            "commands": [" ".join(t.argv[4:]) for t in traced["commands"]],
            "traces": traces}


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    rev = None
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.exists() else ref
        else:
            rev = ref
    h = hashlib.sha256()
    for path in sorted((SRC / "hopfcomm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_rev": rev, "src_sha256": h.hexdigest()[:16],
            "loadavg": list(os.getloadavg())}


def declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hopfcomm" / "cli.py").exists():
        print(f"error: no hopfcomm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compileall
    compileall.compile_dir(str(SRC / "hopfcomm"), quiet=1)

    # One CPU for the driver and every command it starts: the reference
    # loop then measures the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env_start = environment()
    units = declared()["per_layer" if args.trace else "end_to_end"]
    metrics: dict = {}
    micro_failures = {}
    if args.trace:  # before the sampler thread starts, which would share the CPU
        import micro
        for bench in (micro.exactnum_bench, micro.linalg_bench):
            values, micro_failures[bench.__name__] = bench(args.seed)
            metrics.update(values)
    run = Run(args.workload, args.seed)
    for name, failures in micro_failures.items():
        run.record(name, "; ".join(failures) or None)
    detail: dict = {}
    try:
        if args.trace:
            detail["trace"] = traced_pass(run, metrics)
        else:
            sessions, setups = timed_sessions(run, args.seconds)
            run.finish()
            times = [session_times(s) for s in sessions]
            series = {key: [t[key] for t in times] for key in times[0]}
            series["setup_s"] = [o.norm_s for o in setups]
            series["raw_setup_s"] = [o.wall_s for o in setups]
            metrics = {k: statistics.median(series[k]) for k in units}
            series["reference_ms"] = [1e3 * r for _, r in run.sampler.readings]
            detail["spread"] = {k: spread(v) for k, v in series.items()}
    finally:
        run.close()

    for name in sorted(set(units) - set(metrics)):
        run.record(f"metric {name}", "not measured")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    env_end = environment()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env_start": env_start,
              "loadavg_end": env_end["loadavg"], "failures": run.failures,
              "failed_frac": len(run.failures) / max(run.attempted, 1),
              "result": result, **detail}
    RESULTS.mkdir(exist_ok=True)
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / out_name).write_text(json.dumps(report, indent=1, default=str))

    for name, unit in units.items():
        if name in metrics:
            extra = ""
            if "spread" in detail:
                sp = detail["spread"][name]
                extra = f"  (n={sp['n']}, min {sp['min']:.4g}, max {sp['max']:.4g})"
            print(f"{name:40s} {metrics[name]:14.6g} {unit}{extra}", file=sys.stderr)
    for name in ("raw_session_s", "raw_setup_s", "reference_ms"):
        if name in detail.get("spread", {}):
            sp = detail["spread"][name]
            print(f"{name:40s} {sp['median']:14.6g}    (n={sp['n']}, min {sp['min']:.4g}, "
                  f"max {sp['max']:.4g}; not normalized)", file=sys.stderr)
    print(f"{'failed_frac':40s} {report['failed_frac']:14.6g} "
          f"({len(run.failures)}/{run.attempted})", file=sys.stderr)
    for f in run.failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"env {env_start} loadavg_end {env_end['loadavg']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
