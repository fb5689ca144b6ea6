"""Character table tests: frozen classical tables plus exact invariants.

The S3/Q8/C2 expectations are classical results, rederivable by hand from
orthogonality; degree multisets for S4/D4/A4 are standard.
"""

from fractions import Fraction

import pytest

from hopfcomm.chartab import (
    CharacterTable,
    _verify_table,
    class_structure_constants,
    dixon_character_table,
    group_central_idempotents,
)
from hopfcomm.errors import VerificationFailed
from hopfcomm.exactnum import CycNum, cyc, zeta
from hopfcomm.group import (
    cyclic_group,
    from_perm_generators,
    quaternion_group,
)

S3_GENS = [[[1, 2]], [[1, 2, 3]]]
S4_GENS = [[[1, 2]], [[1, 2, 3, 4]]]
A4_GENS = [[[1, 2, 3]], [[1, 2], [3, 4]]]
D4_GENS = [[[1, 2, 3, 4]], [[1, 3]]]


def test_structure_constants_identity_class():
    G = from_perm_generators("S3", S3_GENS)
    alg = class_structure_constants(G)
    n = alg.classes.n_classes
    for j in range(n):
        for k in range(n):
            assert alg.constants[0][j][k] == (1 if j == k else 0)


def test_structure_constants_s3_transpositions_squared():
    G = from_perm_generators("S3", S3_GENS)
    alg = class_structure_constants(G)
    # Classes ordered: identity, 3-cycles (size 2), transpositions (size 3).
    assert alg.classes.sizes == (1, 2, 3)
    t = alg.classes.sizes.index(3)
    c3 = alg.classes.sizes.index(2)
    assert alg.constants[t][t][0] == 3
    assert alg.constants[t][t][c3] == 3
    assert alg.constants[t][t][t] == 0


def test_structure_constants_abelian_is_kronecker():
    G = cyclic_group(6)
    alg = class_structure_constants(G)
    for i in range(6):
        for j in range(6):
            prod = G.mul(i, j)
            for k in range(6):
                assert alg.constants[i][j][k] == (1 if k == prod else 0)


def test_structure_constants_size_invariant():
    G = from_perm_generators("S4", S4_GENS)
    alg = class_structure_constants(G)
    sizes = alg.classes.sizes
    n = alg.classes.n_classes
    for i in range(n):
        for j in range(n):
            total = sum(alg.constants[i][j][k] * sizes[k] for k in range(n))
            assert total == sizes[i] * sizes[j]


def test_trivial_group_table():
    t = dixon_character_table(cyclic_group(1))
    assert t.degrees == (1,)
    assert t.values == ((cyc(1),),)


def test_c2_table_frozen():
    t = dixon_character_table(cyclic_group(2))
    assert t.degrees == (1, 1)
    assert t.values == ((cyc(1), cyc(1)), (cyc(1), cyc(-1)))


def test_s3_table_frozen():
    t = dixon_character_table(from_perm_generators("S3", S3_GENS))
    # Columns: identity, 3-cycles, transpositions.
    assert t.classes.sizes == (1, 2, 3)
    assert t.degrees == (1, 1, 2)
    assert t.values == (
        (cyc(1), cyc(1), cyc(1)),
        (cyc(1), cyc(1), cyc(-1)),
        (cyc(2), cyc(-1), cyc(0)),
    )


def test_q8_table_frozen():
    t = dixon_character_table(quaternion_group())
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
    t = dixon_character_table(cyclic_group(4))
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
    t = dixon_character_table(from_perm_generators(name, gens))
    assert sorted(t.degrees) == expected
    assert sum(d * d for d in t.degrees) == t.group_order


def test_a4_has_cube_roots_of_unity():
    t = dixon_character_table(from_perm_generators("A4", A4_GENS))
    flat = {v for row in t.values for v in row}
    assert zeta(3) in flat or zeta(3, 2) in flat


def test_table_deterministic_across_seeds():
    G = from_perm_generators("S4", S4_GENS)
    t0 = dixon_character_table(G, seed=0)
    t1 = dixon_character_table(G, seed=12345)
    assert t0.values == t1.values and t0.degrees == t1.degrees


def test_table_serialization_and_markdown():
    t = dixon_character_table(from_perm_generators("S3", S3_GENS))
    d = t.to_dict()
    assert d["degrees"] == [1, 1, 2]
    assert d["classes"]["sizes"] == [1, 2, 3]
    assert CycNum.from_dict(d["values"][2][1]) == cyc(-1)
    md = t.markdown()
    assert md.startswith("|") and "chi_2" in md


def test_idempotents_trivial_group():
    G = cyclic_group(1)
    t = dixon_character_table(G)
    (e0,) = group_central_idempotents(G, t)
    assert e0 == [cyc(1)]


def test_idempotents_c2_frozen():
    G = cyclic_group(2)
    t = dixon_character_table(G)
    e0, e1 = group_central_idempotents(G, t)
    half = cyc("1/2")
    assert e0 == [half, half]
    assert e1 == [half, -half]


def test_idempotents_s3():
    G = from_perm_generators("S3", S3_GENS)
    t = dixon_character_table(G)
    idems = group_central_idempotents(G, t)
    assert len(idems) == 3
    sixth = cyc("1/6")
    assert idems[0] == [sixth] * 6  # trivial idempotent = integral of kS3
    for d, e in zip(t.degrees, idems):
        assert e[G.identity] == cyc(d * d) * cyc("1/6")


def test_idempotents_q8():
    G = quaternion_group()
    t = dixon_character_table(G)
    idems = group_central_idempotents(G, t)
    assert len(idems) == 5


# -- row orthogonality implies column orthogonality --


def _column_orthogonality_failure(G, algebra, values):
    """The column check that _verify_table no longer runs, kept as its
    oracle: the first (j, j2) with sum_i chi_i(g_j) chi_i(g_j2^-1) !=
    delta_{j j2} |G|/|C_j|; None when the relation holds.  At the identity
    class, j = j2 = 0, it reads sum_i d_i^2 = |G|, the other dropped check."""
    conj = algebra.classes
    n = conj.n_classes
    for j in range(n):
        for j2 in range(n):
            acc = cyc(0)
            for i in range(n):
                acc = acc + values[i][j] * values[i][conj.inverse_class[j2]]
            if acc != cyc(Fraction(G.order, conj.sizes[j]) if j == j2 else 0):
                return j, j2
    return None


def _table_refused(G, algebra, degrees, values):
    try:
        _verify_table(G, algebra, degrees, values)
    except VerificationFailed:
        return True
    return False


@pytest.mark.parametrize("G", [
    from_perm_generators("S3", S3_GENS),
    quaternion_group(),
    from_perm_generators("A4", A4_GENS),
], ids=["S3", "Q8", "A4"])
def test_verify_table_refuses_what_the_column_check_refuses(G):
    # Every single-entry mutant (v + 1, -v, zeta_e v of one value, d + 1 of
    # one degree): the old verdict (degree squares, rows, columns, central
    # characters) is refusal by _verify_table, by the degree squares or by
    # the column oracle; it must equal the verdict of _verify_table alone.
    table = dixon_character_table(G)
    algebra = class_structure_constants(G)
    assert not _table_refused(G, algebra, table.degrees, table.values)
    assert _column_orthogonality_failure(G, algebra, table.values) is None
    w = zeta(G.exponent())
    mutants = [(table.degrees[:i] + (d + 1,) + table.degrees[i + 1:], table.values)
               for i, d in enumerate(table.degrees)]
    for i, row in enumerate(table.values):
        for j, v in enumerate(row):
            for new in {v + cyc(1), -v, w * v} - {v}:
                values = [list(r) for r in table.values]
                values[i][j] = new
                mutants.append((table.degrees, values))
    column_failures = 0
    for degrees, values in mutants:
        refused = _table_refused(G, algebra, degrees, values)
        columns_fail = _column_orthogonality_failure(G, algebra, values) is not None
        old_refused = (refused or columns_fail
                       or sum(d * d for d in degrees) != G.order)
        assert refused == old_refused
        column_failures += columns_fail
    assert column_failures
