"""Span tracer for one ``hopfcomm`` command, installed from outside the package.

The tracer wraps the public functions of each layer module of ``hopfcomm``
(and a few named hot methods), records one span per call (name, start, end,
parent) and exact call counts, and computes each layer's self time: a
span's duration minus the part its child spans cover.  Nothing in the
package is edited; the wrappers replace module and class attributes after
import, including the names other modules imported with ``from ... import``.

Hot leaves (scalar ops, sparse linear algebra, raw structure ops) are too
numerous for a span each; they are counted and timed in aggregate and show
in their parent span's child time.

A wrapper costs time of its own, partly inside the window it times and
partly outside it, where it would land in the caller's self time.  At
install the tracer times wrapped no-ops against plain ones to get that cost
per call for each kind of wrapper, and subtracts it, call by call, from the
self and inclusive times it reports.  The calibrated costs and the total
subtracted are written with the trace.  The correction is an estimate: it
assumes a wrapper costs in the program what it cost around the no-op, and
it is only as exact as the host's speed is steady.

Run one traced command, as a fresh process like the untraced CLI::

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- build group g.json -o d.json

stdout, stderr and the exit code are those of ``hopfcomm``; TRACE.json gets
the span list, per-function counts and times, per-layer self times and the
run-event log.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

LAYERS = ("exactnum", "_linalg", "_modp", "group", "chartab", "hopf",
          "commutator", "counting", "classdata", "cli")

# Methods wrapped besides the public module-level functions.  Each is
# counted and timed in aggregate, without a span of its own.  The CycNum
# constructors and twists besides the ops run the conductor search too.
HOT_METHODS = {
    "exactnum": {"CycNum": ("__add__", "__radd__", "__sub__", "__rsub__",
                            "__mul__", "__rmul__", "__truediv__",
                            "__rtruediv__", "inverse", "from_dict", "galois",
                            "conjugate", "zeta")},
    "_linalg": {"Echelon": ("insert", "reduce"),
                "Solver": ("insert", "express")},
    "hopf": {"HopfAlgebra": ("mul_raw", "comult_raw", "antipode_raw",
                             "counit_raw", "func_mul_raw", "func_antipode_raw",
                             "right_hit_raw", "left_hit_raw",
                             "func_right_hit_raw", "func_left_hit_raw",
                             "adjoint_raw")},
}

# Public module-level functions counted in aggregate, without spans.
HOT_FUNCTIONS = {
    "hopf": ("tensor_mult", "tensor_flatten", "tensor_of", "tensor_swap",
             "tensor_antipode_right", "tensor_pair_first", "tensor_pair_second",
             "mult", "comult", "antipode", "counit", "pair", "left_hit",
             "right_hit", "func_left_hit", "func_right_hit", "func_mult",
             "func_antipode_s", "adjoint"),
}

# Left unwrapped: called once per enumerated tuple, where a wrapper would
# cost more than the call.  Their time is the self time of the caller.
UNWRAPPED = {"group": ("eval_word",)}

# Whole layers whose functions all count in aggregate.
HOT_LAYERS = ("exactnum", "_linalg", "_modp")

# Individual span records kept in memory; later calls are still counted.
MAX_SPANS = 200_000

EXACT_OPS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "inverse"}

# Wrapped no-op calls per calibration sample, and samples per wrapper kind.
CALIBRATION_CALLS = 10_000
CALIBRATION_SAMPLES = 5

# Per-call wrapper cost in seconds, inside and outside the timed window.
NO_COST = {kind: (0.0, 0.0) for kind in ("span", "hot", "op", "bypass")}


class Tracer:
    def __init__(self, cost: dict = NO_COST):
        # Open frames, innermost last: [layer, child_s, wrapper_s], where
        # child_s is the corrected time of the finished child calls and
        # wrapper_s the wrapper cost inside this frame's window.  The root
        # frame collects the top-level calls.
        self.stack: list = [[None, 0.0, 0.0]]
        self.open_spans: list = []     # ids of the open spans, innermost last
        self.spans: list = []          # (id, name, parent_id, start, end, inclusive)
        self.spans_dropped = 0
        self.stats: dict = {}          # name -> [calls, inclusive_s, depth]
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.exact_ops = 0
        self.irrational_ops = 0
        self.cost = cost
        self._installed: list = []     # (owner, attr, original)
        self._t0 = time.perf_counter()

    # -- wrapping --

    def _wrap(self, fn, name: str, layer: str, span: bool, exact_op: bool):
        stack = self.stack
        open_spans = self.open_spans
        spans = self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        layer_self = self.layer_self
        clock = time.perf_counter
        base = self._t0
        tracer = self
        in_cost, out_cost = self.cost["span" if span else "op" if exact_op else "hot"]
        own_cost = in_cost + out_cost
        bypass_cost = self.cost["bypass"][1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if exact_op:
                # An op called from inside exactnum (a - b runs a + (-b))
                # is part of the outer call, not a separate op.
                if stack[-1][0] == "exactnum":
                    stack[-1][2] += bypass_cost
                    return fn(*args, **kwargs)
                tracer.exact_ops += 1
                other = args[1] if len(args) > 1 else None
                if args[0].order != 1 or getattr(other, "order", 1) != 1:
                    tracer.irrational_ops += 1
            sid = None
            if span:
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)
                else:
                    tracer.spans_dropped += 1
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            stat[0] += 1
            stat[2] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0 - in_cost - frame[2]
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += d
                layer_self[layer] += d - frame[1]
                caller = stack[-1]
                caller[1] += d
                caller[2] += frame[2] + own_cost
                if span:
                    open_spans.pop()
                    if sid is not None:
                        spans[sid] = (sid, name, parent, t0 - base, t1 - base, d)

        return traced

    def install(self) -> None:
        """Calibrate the wrapper cost, then wrap every layer's public
        functions and the named hot methods."""
        self.cost = calibrate()
        modules = {layer: importlib.import_module(f"hopfcomm.{layer}") for layer in LAYERS}
        replace: dict = {}
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__
                        or attr in UNWRAPPED.get(layer, ())):
                    continue
                hot = layer in HOT_LAYERS or attr in HOT_FUNCTIONS.get(layer, ())
                replace[value] = self._wrap(value, f"{layer}.{attr}", layer,
                                            span=not hot, exact_op=False)
            for cls_name, methods in HOT_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    original = cls.__dict__[meth]
                    static = isinstance(original, staticmethod)
                    wrapped = self._wrap(original.__func__ if static else original,
                                         f"{layer}.{cls_name}.{meth}", layer,
                                         span=False, exact_op=meth in EXACT_OPS
                                         and cls_name == "CycNum")
                    if static:
                        wrapped = staticmethod(wrapped)
                    self._installed.append((cls, meth, original))
                    setattr(cls, meth, wrapped)
        # Module globals, and module-level dicts of functions (the CLI's
        # suite table), point at the wrappers from here on.
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("hopfcomm") or mod is None:
                continue
            tables = [vars(mod)] + [v for v in vars(mod).values() if type(v) is dict]
            for table in tables:
                for key, value in list(table.items()):
                    if callable(value) and not isinstance(value, type):
                        try:
                            wrapped = replace.get(value)
                        except TypeError:  # unhashable callable
                            continue
                        if wrapped is not None:
                            self._installed.append((table, key, value))
                            table[key] = wrapped

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed.clear()

    # -- results --

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "name": s[1], "parent": s[2],
                 "start_s": round(s[3], 6), "end_s": round(s[4], 6),
                 "inclusive_s": round(s[5], 6)}
                for s in self.spans if s is not None
            ],
            "spans_dropped": self.spans_dropped,
            "functions": {name: {"calls": st[0], "inclusive_s": st[1]}
                          for name, st in sorted(self.stats.items()) if st[0]},
            "layer_self_s": dict(self.layer_self),
            "exactnum_ops": self.exact_ops,
            "exactnum_irrational_ops": self.irrational_ops,
            "wrapper_cost_ns": {kind: {"inside": 1e9 * c[0], "outside": 1e9 * c[1]}
                                for kind, c in self.cost.items()},
            "wrapper_overhead_s": self.stack[0][2],
            "traced_s": self.stack[0][1],
        }


class _Operand:
    order = 1


def _noop(*args):
    return None


def _loop_s(fn, n: int) -> float:
    """Seconds for n calls of fn, or for the bare loop if fn is None."""
    x = _Operand()
    clock = time.perf_counter
    if fn is None:
        t0 = clock()
        for _ in range(n):
            pass
        return clock() - t0
    t0 = clock()
    for _ in range(n):
        fn(x, x)
    return clock() - t0


def calibrate() -> dict:
    """Per-call cost of each kind of wrapper: (inside, outside) its window.

    A wrapped no-op is called CALIBRATION_CALLS times from inside a frame,
    and so is the plain no-op.  The wrapper's whole cost is the difference
    of the two loops.  The part inside the window is what the wrapper timed
    beyond the plain call (the plain loop less the bare loop); the rest is
    outside.  Kind "bypass" is an op called inside another op: its whole
    cost falls in the outer op's window."""
    n = CALIBRATION_CALLS
    cost = {}
    for kind in NO_COST:
        probe = Tracer()
        probe.stack.append(["exactnum" if kind == "bypass" else "cli", 0.0, 0.0])
        stat = probe.stats.setdefault("noop", [0, 0.0, 0])
        wrapped = probe._wrap(_noop, "noop", "cli", span=kind == "span",
                              exact_op=kind in ("op", "bypass"))
        _loop_s(wrapped, n // 10)  # warm up
        inside, outside = [], []
        for _ in range(CALIBRATION_SAMPLES):
            del probe.spans[:]
            stat[1] = 0.0
            bare = _loop_s(None, n)
            plain = _loop_s(_noop, n)
            traced = _loop_s(wrapped, n)
            own = 0.0 if kind == "bypass" else max(0.0, (stat[1] - plain + bare) / n)
            inside.append(own)
            outside.append(max(0.0, (traced - plain) / n - own))
        cost[kind] = (statistics.median(inside), statistics.median(outside))
    return cost


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <hopfcomm arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    from hopfcomm import cli, runlog

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
        sys.stdout.flush()
    doc = tracer.to_dict()
    doc["wall_s"] = wall
    doc["exit_code"] = code
    # build does not emit a report, so its events stay in the log.
    doc["undrained_events"] = runlog.drain()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
