"""Command-line front end.

Subcommands
-----------
chartab   exact character table of a finite group (JSON, or --markdown)
build     construct kG / k^G / D(G) and emit its JSON dump
compute   evaluate library objects on an instance (z_n, functionals, H', ...)
verify    run the identity suites and report pass / fail / evidence
oracle    brute-force word counts on a finite group, optionally compared
          against a counting functional on kG

Instances come either from a GroupSpec JSON file (``{"name": ..., "cayley":
[[...]]}`` or ``{"name": ..., "perm_generators": [[[...]]]}``) together with
a build kind, or from a dump produced by ``build``.  Dumps are re-verified on
load; a dump of kind ``group`` has its Cayley table reconstructed from the
structure constants so the group-level cross checks stay available.

All numbers are exact (rationals and cyclotomics rendered as strings or
coefficient dicts, never floats).  Reports are JSON with sorted keys, and the
run-event log (prime choices and retries of the seeded modular subroutines)
is included, so identical input and seed give byte-identical output.  Timing
is printed to stderr only, unless --timing opts it into the JSON.

Exit codes: 0 success, 1 hard check failure, 2 parse/load error,
3 verification failure or refused precondition, 4 resource cap exceeded
(enumeration, dimension, or a number beyond Python's int-to-str digit limit).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import caps, runlog
from .chartab import dixon_character_table
from .classdata import classdata_to_dict, require_classdata, theorem_suite_sec4
from .commutator import commutator_subalgebra, theorem_suite_sec2, z_n
from .counting import (
    character_coordinates,
    f_iterated,
    f_n,
    f_rob,
    oracle_crosscheck,
    root_function,
    theorem_suite_sec3,
)
from .errors import (
    ArityMismatch,
    ClosureCapExceeded,
    DigitCapExceeded,
    EnumerationCapExceeded,
    HopfcommError,
    VerificationFailed,
    WordSyntaxError,
)
from .exactnum import CycNum, _rational_str
from .group import arity, count_word, from_cayley, load_group, parse_word, word_to_str
from .hopf import (
    HElem,
    HopfAlgebra,
    _coeff_to_json,
    _combination,
    _vec_to_json,
    build_drinfeld_double,
    build_dual_group_algebra,
    build_group_algebra,
    hopf_from_dict,
    hopf_to_dict,
    irred_from_dict,
    irred_to_dict,
    require_irred,
    theorem_suite_sec1,
)

SCHEMA = "hopfcomm/1"

EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CAP = 4

_SUITES = {
    "sec1": theorem_suite_sec1,
    "sec2": theorem_suite_sec2,
    "sec3": theorem_suite_sec3,
    "sec4": theorem_suite_sec4,
}


# ---------------------------------------------------------------------------
# input loading


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_dim_cap(dim: int) -> None:
    cap = caps.dim_cap()
    if dim > cap:
        raise ClosureCapExceeded(f"algebra dimension {dim} exceeds dim cap {cap}")


def _load_group_file(path: str):
    return load_group(_read_json(path))


def _group_from_mult(H: HopfAlgebra, name: str):
    """Rebuild the Cayley table of a kind='group' dump from its structure
    constants (every product of basis vectors must be a single basis vector
    with coefficient 1); from_cayley re-checks Latin square + associativity."""
    one = CycNum.rational(1)
    table = []
    for a in range(H.dim):
        row = []
        for b in range(H.dim):
            terms = H.mult.get((a, b), ())
            if len(terms) != 1 or terms[0][1] != one:
                raise VerificationFailed(
                    "dump of kind 'group' whose product is not a permutation table")
            row.append(terms[0][0])
        table.append(row)
    return from_cayley(name, table, list(H.labels))


def _build_instance(kind: str, G, seed: int):
    dim = G.order ** 2 if kind == "double" else G.order
    _check_dim_cap(dim)
    if kind == "group":
        H, _ = build_group_algebra(G, seed)
    elif kind == "dualgroup":
        H, _ = build_dual_group_algebra(G)
    else:
        H, _ = build_drinfeld_double(G, seed)
    return H


def _load_hopf(args) -> tuple[HopfAlgebra, str]:
    """The instance named by --hopf DUMP or --group SPEC [--kind], plus a
    source tag for the report (paths stay out of it)."""
    if getattr(args, "hopf", None) is not None:
        data = _read_json(args.hopf)
        if not isinstance(data, dict):
            raise ValueError("hopf dump must be a JSON object")
        if data.get("schema") != SCHEMA:
            raise ValueError(
                f"unsupported dump schema {data.get('schema')!r}, expected {SCHEMA!r}")
        if type(data.get("dim")) is int:
            _check_dim_cap(data["dim"])
        H = hopf_from_dict(data)  # refuses a dim that is not an integer
        if H.kind == "group":
            H.group = _group_from_mult(H, str(data.get("group_name", "G")))
        if "irred" in data:
            H.irred = irred_from_dict(H, data["irred"])
        return H, "dump"
    G = _load_group_file(args.group)
    return _build_instance(args.kind, G, args.seed), f"build:{args.kind}"


def _instance_doc(H: HopfAlgebra, source: str) -> dict:
    return {
        "kind": H.kind,
        "dim": H.dim,
        "cyc_order": H.cyc_order,
        "group": H.group.name if H.group is not None else None,
        "source": source,
    }


# ---------------------------------------------------------------------------
# output


def _emit(doc: dict, args) -> None:
    doc["schema"] = SCHEMA
    doc["seed"] = getattr(args, "seed", 0)
    doc["events"] = runlog.drain()
    elapsed_ms = (time.perf_counter() - args._t0) * 1000.0
    if getattr(args, "timing", False):
        doc["timing_ms"] = round(elapsed_ms, 3)
    print(json.dumps(doc, sort_keys=True, indent=2))
    print(f"elapsed: {elapsed_ms:.1f} ms", file=sys.stderr)


def _functional_doc(H: HopfAlgebra, f) -> dict:
    coords = character_coordinates(H, f)
    return {
        "labels": list(H.labels),
        "values": [_coeff_to_json(c) for c in f.coeff_list()],
        "character_coefficients":
            None if coords is None else [_coeff_to_json(c) for c in coords],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_chartab(args) -> int:
    G = _load_group_file(args.group)
    table = dixon_character_table(G, args.seed)
    if args.markdown:
        print(table.markdown())
        return EXIT_OK
    doc = {
        "command": "chartab",
        "group": {"name": G.name, "order": G.order},
        "classes": [
            {"label": table.class_labels[k], "size": table.classes.sizes[k]}
            for k in range(len(table.class_labels))
        ],
        "degrees": list(table.degrees),
        "table": [[_coeff_to_json(v) for v in row] for row in table.values],
    }
    _emit(doc, args)
    return EXIT_OK


def cmd_build(args) -> int:
    G = _load_group_file(args.group)
    H = _build_instance(args.kind, G, args.seed)
    irred = require_irred(H, args.seed)
    doc = hopf_to_dict(H)
    doc["irred"] = irred_to_dict(irred)
    doc["group_name"] = G.name
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"built {H.kind} instance on {G.name}: dim {H.dim}, "
          f"{len(irred)} irreducibles", file=sys.stderr)
    return EXIT_OK


def cmd_compute(args) -> int:
    H, source = _load_hopf(args)
    doc = {"command": "compute", "target": args.target,
           "instance": _instance_doc(H, source)}
    code = EXIT_OK

    if args.target == "z":
        n = args.n
        direct = z_n(H, n)  # refuses n < 0
        irred = require_irred(H, args.seed)
        coeffs = [Fraction(1, d ** (n - n % 2)) for d in irred.degrees]
        from_idempotents = HElem(H, _combination(coeffs, irred.idempotents))
        agree = direct == from_idempotents
        doc["result"] = {
            "n": n,
            "e_basis_coefficients": [_rational_str(c) for c in coeffs],
            "direct_route_vector": _vec_to_json(direct.vec),
            "idempotent_route_vector": _vec_to_json(from_idempotents.vec),
            "routes_agree": agree,
        }
        if not agree:
            code = EXIT_CHECK_FAIL
    elif args.target == "frob":
        doc["result"] = _functional_doc(H, f_rob(H))
        doc["result"]["route"] = "sum (d/d_i) chi_i"
    elif args.target == "fn":
        doc["result"] = _functional_doc(H, f_n(H, args.n))
        doc["result"]["n"] = args.n
        doc["result"]["route"] = "sum (d/d_i)^(2n-1) chi_i"
    elif args.target == "root":
        doc["result"] = _functional_doc(H, root_function(H, args.m))
        doc["result"]["m"] = args.m
        doc["result"]["route"] = ("psi of the m-th Sweedler power of the "
                                  "integral, checked against indicator expansion")
    elif args.target == "iterated":
        doc["result"] = _functional_doc(H, f_iterated(H))
        doc["result"]["route"] = "three independent formulas, cross-checked"
    elif args.target == "hprime":
        sub = commutator_subalgebra(H)
        doc["result"] = {
            "dim": sub.rank,
            "basis": [_vec_to_json(v) for v in sub.basis()],
            "route": ("algebra generated by Com, cross-checked against "
                      "grouplike fixed points"),
        }
    elif args.target == "classdata":
        data = require_classdata(H, args.seed)
        doc["result"] = classdata_to_dict(data)
        doc["result"]["route"] = ("seeded modular split of R(H), re-verified "
                                  "exactly over the cyclotomics")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown compute target {args.target!r}")

    _emit(doc, args)
    return code


def cmd_verify(args) -> int:
    H, source = _load_hopf(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = {name: _SUITES[name](H, args.seed) for name in names}
    statuses = [e["status"] for entries in suites.values() for e in entries]
    doc = {
        "command": "verify",
        "instance": _instance_doc(H, source),
        "suites": suites,
        "summary": {s: statuses.count(s) for s in ("pass", "fail", "evidence")},
    }
    _emit(doc, args)
    return EXIT_CHECK_FAIL if "fail" in statuses else EXIT_OK


_AGAINST = ("frob", "f2", "fn:N", "root:M", "iterated")


def _select_functional(H: HopfAlgebra, name: str):
    if name == "frob":
        return f_rob(H)
    if name == "iterated":
        return f_iterated(H)
    if name == "f2":
        return f_n(H, 2)
    kind, _, param = name.partition(":")
    if kind in ("fn", "root") and param.lstrip("-").isdigit():
        k = int(param)
        return f_n(H, k) if kind == "fn" else root_function(H, k)
    raise ValueError(f"unknown functional {name!r}; expected one of {_AGAINST}")


def cmd_oracle(args) -> int:
    G = _load_group_file(args.group)
    w = parse_word(args.word)
    counts = count_word(G, w)
    conj = G.conjugacy_data()
    class_function = all(
        counts[x] == counts[conj.reps[k]]
        for k in range(conj.n_classes) for x in conj.elements[k])
    doc = {
        "command": "oracle",
        "group": {"name": G.name, "order": G.order},
        "word": word_to_str(w),
        "arity": arity(w),
        "tuples": G.order ** arity(w),
        "counts_by_class": [
            {"class": G.labels[conj.reps[k]], "size": conj.sizes[k],
             "count": counts[conj.reps[k]]}
            for k in range(conj.n_classes)
        ],
        "count_is_class_function": class_function,
        "against": args.against,
        "checks": [],
    }
    code = EXIT_OK if class_function else EXIT_CHECK_FAIL
    if args.against is not None:
        H, _ = build_group_algebra(G, args.seed)
        f = _select_functional(H, args.against)
        checks = oracle_crosscheck(G, w, f)
        doc["checks"] = checks
        if any(e["status"] == "fail" for e in checks):
            code = EXIT_CHECK_FAIL
    _emit(doc, args)
    return code


# ---------------------------------------------------------------------------
# parser


def _add_instance_args(sub) -> None:
    sub.add_argument("--hopf", metavar="DUMP",
                     help="JSON dump produced by 'build'")
    sub.add_argument("--group", metavar="SPEC",
                     help="GroupSpec JSON file (with --kind)")
    sub.add_argument("--kind", choices=("group", "dualgroup", "double"),
                     default="group", help="what to build from --group")


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the randomized modular subroutines")
    sub.add_argument("--timing", action="store_true",
                     help="include timing in the JSON (breaks byte-identical reruns)")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopfcomm",
        description="Exact commutator calculus on semisimple Hopf algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("chartab", help="character table of a finite group")
    c.add_argument("group", help="GroupSpec JSON file")
    c.add_argument("--markdown", action="store_true",
                   help="print a markdown table instead of JSON")
    _add_common(c)
    c.set_defaults(handler=cmd_chartab)

    b = sub.add_parser("build", help="build kG, k^G or D(G) and dump JSON")
    b.add_argument("kind", choices=("group", "dualgroup", "double"))
    b.add_argument("group", help="GroupSpec JSON file")
    b.add_argument("-o", "--output", help="write the dump here instead of stdout")
    _add_common(b)
    b.set_defaults(handler=cmd_build)

    co = sub.add_parser("compute", help="compute library objects on an instance")
    co.add_argument("target", choices=("z", "frob", "fn", "root", "iterated",
                                       "hprime", "classdata"))
    co.add_argument("--n", type=int, default=2, help="index for z / fn")
    co.add_argument("--m", type=int, default=2, help="power for root")
    _add_instance_args(co)
    _add_common(co)
    co.set_defaults(handler=cmd_compute)

    v = sub.add_parser("verify", help="run the identity suites")
    v.add_argument("--suite", choices=("sec1", "sec2", "sec3", "sec4", "all"),
                   default="all")
    _add_instance_args(v)
    _add_common(v)
    v.set_defaults(handler=cmd_verify)

    o = sub.add_parser("oracle", help="brute-force word counts on a group")
    o.add_argument("group", help="GroupSpec JSON file")
    o.add_argument("--word", required=True,
                   help="word in x1, x2, ... e.g. '[x1,x2]' or 'x1^2'")
    o.add_argument("--against", default=None,
                   help="counting functional to cross-check: "
                        "frob, f2, fn:N, root:M or iterated")
    _add_common(o)
    o.set_defaults(handler=cmd_oracle)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_PARSE
    if getattr(args, "hopf", "x") is None and getattr(args, "group", None) is None:
        print("error: need --hopf DUMP or --group SPEC", file=sys.stderr)
        return EXIT_PARSE
    runlog.drain()
    args._t0 = time.perf_counter()
    try:
        return args.handler(args)
    except (EnumerationCapExceeded, ClosureCapExceeded, DigitCapExceeded) as exc:
        return _error(EXIT_CAP, exc)
    except (WordSyntaxError, ArityMismatch) as exc:
        return _error(EXIT_PARSE, exc)
    except HopfcommError as exc:
        return _error(EXIT_VERIFY, exc)
    except (ValueError, OSError) as exc:
        return _error(EXIT_PARSE, exc)


def _error(code: int, exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
