"""The one row layout of the bilinear tables and the one loop that reads it.

Every table (the product of H and of H*, the adjoint action, the Hopf
commutator and the class algebra) is stored as rows {i: {j: terms}} and read
by ``_linalg._bilinear``.  Each read is compared with an oracle kept here:
the flat double loop over a table keyed by pairs, or the defining formula.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hopfcomm._linalg import _bilinear, vec_axpy
from hopfcomm.chartab import class_structure_constants
from hopfcomm.commutator import _commutator_table, hopf_commutator, n_commutator
from hopfcomm.exactnum import cyc, zeta
from hopfcomm.hopf import HElem, _dual, adjoint_row

ZERO = cyc(0)
ONE = cyc(1)
INSTANCES = ["kq8", "ds3", "dual_s3"]
COEFFS = [cyc(1), cyc(-1), cyc(2), cyc("1/3"), zeta(3), zeta(4) - cyc(1)]
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def _flat(table):
    """The rows {i: {j: terms}} as one dict keyed by the pairs (i, j)."""
    return {(i, j): terms for i, row in table.items() for j, terms in row.items()}


def _flat_bilinear(products, u, v):
    """sum u_i v_j t(e_i, e_j), one lookup per pair (i, j): the loop that
    read every table before the rows."""
    out = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, c in products.get((i, j), ()):
                out[k] = out.get(k, ZERO) + ci * cj * c
    return {k: c for k, c in out.items() if c}


def _vectors(data, dim):
    vec = st.dictionaries(st.integers(0, dim - 1), st.sampled_from(COEFFS), max_size=dim)
    return data.draw(vec), data.draw(vec)


def _assert_rows(table):
    """No row is empty, and every terms tuple is non-empty, without a zero."""
    for i, row in table.items():
        assert row, f"row {i} is empty"
        for j, terms in row.items():
            assert terms, f"terms ({i}, {j}) are empty"
            assert all(c for _, c in terms), f"terms ({i}, {j}) hold a zero"


@pytest.mark.parametrize("which", INSTANCES)
@SETTINGS
@given(data=st.data())
def test_products_of_h_and_its_dual_read_the_rows(which, request, data):
    H, _ = request.getfixturevalue(which)
    u, v = _vectors(data, H.dim)
    assert H.mul_raw(u, v) == _flat_bilinear(_flat(H.mult), u, v)
    assert H.func_mul_raw(u, v) == _flat_bilinear(_flat(_dual(H).mult), u, v)


def _adjoint_by_definition(H, h, a):
    """h .ad a = sum h_1 a S(h_2), from the coproduct, product and antipode."""
    out = {}
    for (i, j), c in H.comult_raw(h).items():
        vec_axpy(out, c, H.mul_raw(H.mul_raw({i: ONE}, a), H.antipode_raw({j: ONE})).items())
    return out


@pytest.mark.parametrize("which", INSTANCES)
@SETTINGS
@given(data=st.data())
def test_adjoint_action_reads_the_rows(which, request, data):
    H, _ = request.getfixturevalue(which)
    h, a = _vectors(data, H.dim)
    got = H.adjoint_raw(h, a)
    assert got == _adjoint_by_definition(H, h, a)
    rows = {i: adjoint_row(H, i) for i in h}
    assert got == _flat_bilinear(_flat(rows), h, a)


@pytest.mark.parametrize("which", INSTANCES)
@SETTINGS
@given(data=st.data())
def test_hopf_commutator_reads_the_rows(which, request, data):
    H, _ = request.getfixturevalue(which)
    a, b = (HElem(H, x) for x in _vectors(data, H.dim))
    got = hopf_commutator(a, b)
    assert got == n_commutator([a, b])
    assert got.vec == _flat_bilinear(_flat(_commutator_table(H)), a.vec, b.vec)


@pytest.mark.parametrize("group", ["s3", "q8", "a4"])
@SETTINGS
@given(data=st.data())
def test_class_algebra_product_reads_the_rows(group, request, data):
    G = request.getfixturevalue(group)
    algebra = class_structure_constants(G)
    u, v = _vectors(data, G.conjugacy_data().n_classes)
    assert _bilinear(algebra, u, v) == _flat_bilinear(_flat(algebra), u, v)


@pytest.mark.parametrize("which", INSTANCES)
def test_stored_rows_hold_only_nonzero_products(which, request):
    H, _ = request.getfixturevalue(which)
    _assert_rows(H.mult)
    _assert_rows(_dual(H).mult)
    _assert_rows(_commutator_table(H))
    # row i of the adjoint table is made on first use and is empty exactly
    # when e_i .ad - = 0; a stored j is one with e_i .ad e_j != 0
    for i in range(H.dim):
        row = adjoint_row(H, i)
        if row:
            _assert_rows({i: row})
        assert set(row) == {j for j in range(H.dim)
                            if _adjoint_by_definition(H, {i: ONE}, {j: ONE})}


@pytest.mark.parametrize("group", ["s3", "q8", "a4"])
def test_class_algebra_rows_hold_only_nonzero_constants(group, request):
    _assert_rows(class_structure_constants(request.getfixturevalue(group)))
