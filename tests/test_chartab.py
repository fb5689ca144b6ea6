"""Character table tests: frozen classical tables plus exact invariants.

The S3/Q8/C2 expectations are classical results, rederivable by hand from
orthogonality; degree multisets for S4/D4/A4 are standard.  A table is
certified once, by kG's irreducible-data check (``hopf._group_irred``); the
checks it replaced are kept here as oracles.
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcomm import _linalg, runlog
from hopfcomm import chartab as chartab_mod
from hopfcomm import hopf as hopf_mod
from hopfcomm.chartab import CharacterTable, class_structure_constants, dixon_character_table
from hopfcomm.cli import main
from hopfcomm.errors import BadPrime, VerificationFailed
from hopfcomm.exactnum import cyc, zeta
from hopfcomm.group import ClassPartition, cyclic_group, from_perm_generators, load_group
from hopfcomm.hopf import build_drinfeld_double, build_group_algebra, character_table

S3_GENS = [[[1, 2]], [[1, 2, 3]]]
S4_GENS = [[[1, 2]], [[1, 2, 3, 4]]]
A4_GENS = [[[1, 2, 3]], [[1, 2], [3, 4]]]
D4_GENS = [[[1, 2, 3, 4]], [[1, 3]]]
SPECS = Path(__file__).resolve().parent / "golden" / "specs"


def quaternion_group():
    return load_group(json.loads((SPECS / "Q8.json").read_text(encoding="utf-8")))


def _a(alg, i, j, k):
    """a_ijk, read off the rows of the class algebra (0 where not stored)."""
    return dict(alg.get(i, {}).get(j, ())).get(k, 0)


def test_structure_constants_identity_class():
    G = from_perm_generators("S3", S3_GENS)
    alg = class_structure_constants(G)
    n = G.conjugacy_data().n_classes
    for j in range(n):
        for k in range(n):
            assert _a(alg, 0, j, k) == (1 if j == k else 0)


def test_structure_constants_s3_transpositions_squared():
    G = from_perm_generators("S3", S3_GENS)
    alg = class_structure_constants(G)
    # Classes ordered: identity, 3-cycles (size 2), transpositions (size 3).
    sizes = G.conjugacy_data().sizes
    assert sizes == (1, 2, 3)
    t = sizes.index(3)
    c3 = sizes.index(2)
    assert _a(alg, t, t, 0) == 3
    assert _a(alg, t, t, c3) == 3
    assert _a(alg, t, t, t) == 0


def test_structure_constants_abelian_is_kronecker():
    G = cyclic_group(6)
    alg = class_structure_constants(G)
    for i in range(6):
        for j in range(6):
            prod = G.mul(i, j)
            for k in range(6):
                assert _a(alg, i, j, k) == (1 if k == prod else 0)


def test_structure_constants_size_invariant():
    G = from_perm_generators("S4", S4_GENS)
    alg = class_structure_constants(G)
    sizes = G.conjugacy_data().sizes
    n = len(sizes)
    for i in range(n):
        for j in range(n):
            total = sum(_a(alg, i, j, k) * sizes[k] for k in range(n))
            assert total == sizes[i] * sizes[j]


def test_trivial_group_table():
    t = character_table(cyclic_group(1))
    assert t.degrees == (1,)
    assert t.values == ((cyc(1),),)


def test_c2_table_frozen():
    t = character_table(cyclic_group(2))
    assert t.degrees == (1, 1)
    assert t.values == ((cyc(1), cyc(1)), (cyc(1), cyc(-1)))


def test_s3_table_frozen():
    t = character_table(from_perm_generators("S3", S3_GENS))
    # Columns: identity, 3-cycles, transpositions.
    assert t.classes.sizes == (1, 2, 3)
    assert t.degrees == (1, 1, 2)
    assert t.values == (
        (cyc(1), cyc(1), cyc(1)),
        (cyc(1), cyc(1), cyc(-1)),
        (cyc(2), cyc(-1), cyc(0)),
    )


def test_q8_table_frozen():
    t = character_table(quaternion_group())
    assert t.degrees == (1, 1, 1, 1, 2)
    # Columns: 1, -1, {i,-i}, {j,-j}, {k,-k}.
    assert t.classes.sizes == (1, 1, 2, 2, 2)
    rows = {tuple(row) for row in t.values}
    assert rows == {
        (cyc(1), cyc(1), cyc(1), cyc(1), cyc(1)),
        (cyc(1), cyc(1), cyc(1), cyc(-1), cyc(-1)),
        (cyc(1), cyc(1), cyc(-1), cyc(1), cyc(-1)),
        (cyc(1), cyc(1), cyc(-1), cyc(-1), cyc(1)),
        (cyc(2), cyc(-2), cyc(0), cyc(0), cyc(0)),
    }


def test_c4_table_rows_are_multiplicative():
    t = character_table(cyclic_group(4))
    assert t.degrees == (1, 1, 1, 1)
    for row in t.values:
        for j in range(4):
            assert row[j] == row[1] ** j
    assert any(row[1] in (zeta(4), zeta(4, 3)) for row in t.values)


@pytest.mark.parametrize("name,gens,expected", [
    ("S4", S4_GENS, [1, 1, 2, 3, 3]),
    ("D4", D4_GENS, [1, 1, 1, 1, 2]),
    ("A4", A4_GENS, [1, 1, 1, 3]),
])
def test_degree_multisets(name, gens, expected):
    G = from_perm_generators(name, gens)
    t = character_table(G)
    assert sorted(t.degrees) == expected
    assert sum(d * d for d in t.degrees) == G.order


def test_a4_has_cube_roots_of_unity():
    t = character_table(from_perm_generators("A4", A4_GENS))
    flat = {v for row in t.values for v in row}
    assert zeta(3) in flat or zeta(3, 2) in flat


def test_table_deterministic_across_seeds():
    G = from_perm_generators("S4", S4_GENS)
    t0 = character_table(G, seed=0)
    t1 = character_table(G, seed=12345)
    assert t0.values == t1.values and t0.degrees == t1.degrees


def test_table_serialization_and_markdown(capsys):
    # The CLI's chartab JSON is the one serialization of a table.
    assert main(["chartab", str(SPECS / "S3.json"), "--seed", "0"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["degrees"] == [1, 1, 2]
    assert [c["size"] for c in d["classes"]] == [1, 2, 3]
    assert d["table"][2][1] == "-1"
    md = character_table(from_perm_generators("S3", S3_GENS)).markdown()
    assert md.startswith("|") and "chi_2" in md


def _group_idempotents(G):
    """The E_i of the kG build, as dense coefficient lists over G."""
    return [[e.vec.get(g, cyc(0)) for g in range(G.order)]
            for e in build_group_algebra(G)[1].idempotents]


def test_idempotents_trivial_group():
    (e0,) = _group_idempotents(cyclic_group(1))
    assert e0 == [cyc(1)]


def test_idempotents_c2_frozen():
    e0, e1 = _group_idempotents(cyclic_group(2))
    half = cyc("1/2")
    assert e0 == [half, half]
    assert e1 == [half, -half]


def test_idempotents_s3():
    G = from_perm_generators("S3", S3_GENS)
    t = character_table(G)
    idems = _group_idempotents(G)
    assert len(idems) == 3
    sixth = cyc("1/6")
    assert idems[0] == [sixth] * 6  # trivial idempotent = integral of kS3
    for d, e in zip(t.degrees, idems):
        assert e[G.identity] == cyc(d * d) * cyc("1/6")


def test_idempotents_q8():
    idems = _group_idempotents(quaternion_group())
    assert len(idems) == 5


# -- the idempotent certificate against the checks it replaced --


def _column_orthogonality_failure(G, algebra, values):
    """The column check of the class-algebra verifier before the idempotent
    certificate, kept as its oracle: the first (j, j2) with sum_i chi_i(g_j) chi_i(g_j2^-1) !=
    delta_{j j2} |G|/|C_j|; None when the relation holds.  At the identity
    class, j = j2 = 0, it reads sum_i d_i^2 = |G|."""
    conj = G.conjugacy_data()
    n = conj.n_classes
    for j in range(n):
        for j2 in range(n):
            acc = cyc(0)
            for i in range(n):
                acc = acc + values[i][j] * values[i][conj.inverse_class[j2]]
            if acc != cyc(Fraction(G.order, conj.sizes[j]) if j == j2 else 0):
                return j, j2
    return None


def _row_orthogonality_failure(G, algebra, values):
    """The row check that the idempotent certificate replaced, kept as its
    oracle: the first (i, i2) with sum_j |C_j| chi_i(g_j)
    chi_i2(g_j^-1) != delta_{i i2} |G|; None when the relation holds."""
    conj = G.conjugacy_data()
    n = conj.n_classes
    for i in range(n):
        for i2 in range(i, n):
            acc = cyc(0)
            for j in range(n):
                acc = acc + cyc(conj.sizes[j]) * values[i][j] * values[i2][conj.inverse_class[j]]
            if acc != cyc(G.order if i == i2 else 0):
                return i, i2
    return None


def _central_character_failure(G, algebra, degrees, values):
    """The other replaced check, kept as its oracle: the first (i, a, b) where
    the central character omega_i(C_j) = |C_j| chi_i(g_j)/d_i does not
    represent the class algebra, omega_i(C_a) omega_i(C_b) != sum_k a_abk
    omega_i(C_k); None when every row represents it."""
    conj = G.conjugacy_data()
    n = conj.n_classes
    for i in range(n):
        omega = [cyc(Fraction(conj.sizes[j], degrees[i])) * values[i][j] for j in range(n)]
        for a in range(n):
            for b in range(n):
                acc = cyc(0)
                for k in range(n):
                    acc = acc + cyc(_a(algebra, a, b, k)) * omega[k]
                if acc != omega[a] * omega[b]:
                    return i, a, b
    return None


def _old_verdict(G, algebra, degrees, values):
    """True when the verifier before the idempotent certificate refused the
    table: the count, the trivial row, the degrees and the values at the
    identity, then the row and central-character oracles."""
    n = G.conjugacy_data().n_classes
    if len(degrees) != n or any(v != cyc(1) for v in values[0]):
        return True
    if any(d <= 0 or G.order % d or values[i][0] != cyc(d) for i, d in enumerate(degrees)):
        return True
    return (_row_orthogonality_failure(G, algebra, values) is not None
            or _central_character_failure(G, algebra, degrees, values) is not None)


def _table_refused(H, degrees, values):
    """True when kG's certificate refuses the proposed rows."""
    try:
        hopf_mod._group_irred(H, degrees, values)
    except VerificationFailed:
        return True
    return False


def _mutants(G, table):
    """Single-entry mutants (v + 1, -v, zeta_e v of one value; d + 1 of one
    degree), column swaps, row copies and Galois-twisted rows."""
    degrees, rows = table.degrees, table.values
    n = len(rows)
    e = G.exponent()
    w = zeta(e)
    out = [(degrees[:i] + (d + 1,) + degrees[i + 1:], rows) for i, d in enumerate(degrees)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            for new in {v + cyc(1), -v, w * v} - {v}:
                values = [list(r) for r in rows]
                values[i][j] = new
                out.append((degrees, values))
    for j in range(n):
        for j2 in range(j + 1, n):
            values = [list(r) for r in rows]
            for r in values:
                r[j], r[j2] = r[j2], r[j]
            out.append((degrees, values))
    for i in range(n):
        for i2 in range(n):
            if i != i2:
                out.append((degrees[:i] + (degrees[i2],) + degrees[i + 1:],
                            rows[:i] + (rows[i2],) + rows[i + 1:]))
        for k in range(2, e):
            if math.gcd(k, e) == 1:
                twisted = tuple(v.galois(k) for v in rows[i])
                if twisted != rows[i]:
                    out.append((degrees, rows[:i] + (twisted,) + rows[i + 1:]))
    return out


@pytest.mark.parametrize("G", [
    from_perm_generators("S3", S3_GENS),
    quaternion_group(),
    from_perm_generators("A4", A4_GENS),
    cyclic_group(5),
], ids=["S3", "Q8", "A4", "C5"])
def test_verify_table_refuses_what_the_column_check_refuses(G):
    # On every mutant kG's certificate must agree with the old verifier (row
    # orthogonality and central characters), and refuse every table whose
    # columns fail orthogonality or whose degree squares do not sum to |G|.
    H = build_group_algebra(G)[0]
    table = character_table(G)
    algebra = class_structure_constants(G)
    assert not _table_refused(H, table.degrees, table.values)
    assert not _old_verdict(G, algebra, table.degrees, table.values)
    assert _column_orthogonality_failure(G, algebra, table.values) is None
    column_failures = refusals = 0
    for degrees, values in _mutants(G, table):
        refused = _table_refused(H, degrees, values)
        assert refused == _old_verdict(G, algebra, degrees, values)
        columns_fail = _column_orthogonality_failure(G, algebra, values) is not None
        if columns_fail or sum(d * d for d in degrees) != G.order:
            assert refused
        column_failures += columns_fail
        refusals += refused
    assert column_failures and refusals


# ---------------------------------------------------------------------------
# the prime/retry path: a proposal that fails at one prime is retried at the
# next, and each try leaves one event


def _dixon_with(monkeypatch, fake):
    """The S3 table and its event outcomes with ``_lift_table`` replaced by
    ``fake(real, call, *args)``, ``call`` counting from 0."""
    real = chartab_mod._lift_table
    calls = []

    def patched(*args):
        calls.append(args[2])
        return fake(real, len(calls) - 1, *args)

    monkeypatch.setattr(chartab_mod, "_lift_table", patched)
    runlog.drain()
    try:
        table = character_table(from_perm_generators("S3", S3_GENS))
    finally:
        events = runlog.drain()
    assert [e["prime"] for e in events] == calls
    return table, [e["outcome"] for e in events]


def _fields(table):
    """Every field of a character table and of its class partition."""
    return (tuple(getattr(table, name) for name in CharacterTable.__slots__ if name != "classes")
            + tuple(getattr(table.classes, name) for name in ClassPartition.__slots__))


def _wrong_once(real, call, G, algebra, p, rng):
    lifted = real(G, algebra, p, rng)
    if call:
        return lifted
    # the sign row in place of the degree-2 row, found by their values, since
    # a proposal's rows come in the order the split found them
    degrees, values = lifted
    two = degrees.index(2)
    sign = next(i for i, row in enumerate(values) if row[-1] == cyc(-1))
    return (degrees[:two] + (degrees[sign],) + degrees[two + 1:],
            values[:two] + (values[sign],) + values[two + 1:])


def _bad_prime_once(real, call, *args):
    if not call:
        raise BadPrime("no element of order 6")
    return real(*args)


@pytest.mark.parametrize("fake, outcomes", [
    (lambda real, call, *args: real(*args) if call else None,
     ["reconstruction_failed", "ok"]),
    (_bad_prime_once, ["BadPrime", "ok"]),
    (_wrong_once, ["reconstruction_failed", "ok"]),
], ids=["none", "bad_prime", "refused"])
def test_dixon_retries_on_the_next_prime(monkeypatch, fake, outcomes):
    expected = character_table(from_perm_generators("S3", S3_GENS))
    table, got = _dixon_with(monkeypatch, fake)
    assert got == outcomes
    assert _fields(table) == _fields(expected)


def test_dixon_names_why_every_prime_failed(monkeypatch):
    with pytest.raises(VerificationFailed) as info:
        _dixon_with(monkeypatch, lambda real, call, *args: None)
    message = str(info.value)
    assert "after 5 primes" in message and "reconstruction failed" in message
    assert not message.endswith("None")


@pytest.mark.parametrize("G", [
    from_perm_generators("S3", S3_GENS),
    from_perm_generators("A4", A4_GENS),
    cyclic_group(15),
], ids=["S3", "A4", "C15"])
def test_dixon_hands_accept_the_bare_rows(G):
    # The proposal is the pair (degrees, values) that _lift_table returns: a
    # degree and a row per irreducible, a value per class of
    # G.conjugacy_data(), and the rows of the certified table up to order.
    seen = []
    assert dixon_character_table(G, 0, lambda table: seen.append(table) or "kept") == "kept"
    ((degrees, values),) = seen
    n = G.conjugacy_data().n_classes
    assert len(degrees) == len(values) == n
    assert all(len(row) == n for row in values)
    certified = character_table(G)
    assert set(zip(degrees, values)) == set(zip(certified.degrees, certified.values))


# ---------------------------------------------------------------------------
# one certificate per table: kG's on the kG build and the chartab command,
# the D(G) certificate for the centralizer tables of a double


def _idempotent_families(monkeypatch, run):
    """The names of the idempotent families certified while ``run()`` runs,
    counted in every module of the package that binds ``_check_idempotents``."""
    calls = []
    real = _linalg._check_idempotents

    def spy(name, *args):
        calls.append(name)
        return real(name, *args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("hopfcomm.")
                and getattr(module, "_check_idempotents", None) is real):
            monkeypatch.setattr(module, "_check_idempotents", spy)
    run()
    return calls


def test_one_certificate_per_group_algebra_build(monkeypatch):
    S4 = from_perm_generators("S4", S4_GENS)
    assert _idempotent_families(monkeypatch, lambda: build_group_algebra(S4)) == ["E"]


def test_one_certificate_per_chartab_command(monkeypatch, capsys):
    def run():
        assert main(["chartab", str(SPECS / "S4.json")]) == 0
    assert _idempotent_families(monkeypatch, run) == ["E"]


def test_one_certificate_per_drinfeld_double_build(monkeypatch):
    # three centralizer tables (S3, C3, C2) and the D(S3) data: one family
    S3 = from_perm_generators("S3", S3_GENS)
    assert _idempotent_families(monkeypatch, lambda: build_drinfeld_double(S3)) == ["E"]


def test_wrong_centralizer_table_is_refused_by_the_double(monkeypatch):
    # The first centralizer table of D(S3), that of S3 itself, comes back
    # with the sign row twice.  No certificate of its own takes it (one
    # "ok" event per centralizer); the D(S3) data built from it fails.
    real = chartab_mod._lift_table
    calls = []

    def patched(*args):
        calls.append(args[0].name)
        return _wrong_once(real, len(calls) - 1, *args)

    monkeypatch.setattr(chartab_mod, "_lift_table", patched)
    runlog.drain()
    try:
        with pytest.raises(VerificationFailed, match="the E_i do not sum to 1"):
            build_drinfeld_double(from_perm_generators("S3", S3_GENS))
    finally:
        events = runlog.drain()
    assert len(calls) == 3
    assert [e["outcome"] for e in events] == ["ok"] * 3


# ---------------------------------------------------------------------------
# one order for every family of irreducibles (``hopf._sorted_irred``): the
# order of a proposal's rows does not reach the output


def _ordered_outputs(capsys, tmp_path, tag):
    """The irreducibles of kS3, kQ8 and kA4, the chartab JSON of S4 and the
    kS3 dump."""
    irreds = [build_group_algebra(G)[1] for G in (
        from_perm_generators("S3", S3_GENS), quaternion_group(),
        from_perm_generators("A4", A4_GENS))]
    fields = [(ir.degrees, [e.vec for e in ir.idempotents], [c.vec for c in ir.characters])
              for ir in irreds]
    assert main(["chartab", str(SPECS / "S4.json")]) == 0
    table = capsys.readouterr().out
    dump = tmp_path / f"ks3_{tag}.json"
    assert main(["build", "group", str(SPECS / "S3.json"), "-o", str(dump)]) == 0
    capsys.readouterr()
    return fields, table, dump.read_bytes()


def test_proposed_row_order_does_not_reach_the_output(monkeypatch, capsys, tmp_path):
    expected = _ordered_outputs(capsys, tmp_path, "as_proposed")
    real = chartab_mod._lift_table
    reversed_tables = []

    def reversed_rows(*args):
        lifted = real(*args)
        if lifted is None:
            return None
        reversed_tables.append(args[0].name)
        return tuple(part[::-1] for part in lifted)

    monkeypatch.setattr(chartab_mod, "_lift_table", reversed_rows)
    assert _ordered_outputs(capsys, tmp_path, "reversed") == expected
    assert reversed_tables == ["S3", "Q8", "A4", "S4", "S3"]
