"""Sparse linear algebra: the accumulation kernel, the canonical echelon
form, Solver's combinations over augmented rows, and the one
square-and-multiply."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcomm._linalg import Echelon, Solver, _by_squaring, vec_axpy
from hopfcomm.exactnum import cyc, zeta


def _random_vecs(rng, n, ncols):
    return [{j: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
             for j in rng.sample(range(ncols), 3)} for _ in range(n)]


def _combine(vecs, coeffs):
    out = {}
    for t, c in coeffs.items():
        vec_axpy(out, c, vecs[t].items())
    return out


def test_vec_axpy_drops_cancelled_keys():
    out = {0: Fraction(1), 1: Fraction(2)}
    vec_axpy(out, Fraction(-1), [(0, Fraction(1)), (2, Fraction(3)), (2, Fraction(-3))])
    assert out == {1: Fraction(2)}


def test_echelon_is_canonical_for_the_span():
    vecs = _random_vecs(random.Random(3), 5, 8)
    a, b = Echelon(), Echelon()
    for v in vecs:
        a.insert(v)
    for v in reversed(vecs + [_combine(vecs, {0: Fraction(2), 3: Fraction(-1)})]):
        b.insert(v)
    assert a == b and a <= b and b <= a
    assert all(a.contains(v) for v in vecs)


def test_solver_expresses_in_the_independent_inserted_vectors():
    rng = random.Random(5)
    vecs = _random_vecs(rng, 6, 10)
    solver = Solver()
    inserted = [t for t, v in enumerate(vecs) if solver.insert(v, t)]
    assert not solver.insert(_combine(vecs, {inserted[0]: Fraction(1, 2)}), 99)
    coeffs = {t: Fraction(rng.randint(1, 5), 2) for t in inserted[:3]}
    assert solver.express(_combine(vecs, coeffs)) == coeffs
    assert solver.express({}) == {}
    units = [{j: Fraction(1)} for j in range(10)]
    combos = [solver.express(u) for u in units]
    assert None in combos
    assert all(_combine(vecs, c) == u for c, u in zip(combos, units) if c is not None)


def _reduce_over_every_pivot(ech, v):
    """Oracle: the residual of v after popping every pivot row in turn."""
    out = dict(v)
    for p, tail in ech.rows.items():
        c = out.pop(p, None)
        if c is not None:
            vec_axpy(out, -c, tail.items())
    return out


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_scalars = {"Fraction": _small,
            "CycNum": st.builds(lambda a, b: cyc(a) + b * zeta(4), _small, _small)}


@st.composite
def _vec_lists(draw):
    # Inserted vectors and probes, all over one kind of scalar.
    scalars = _scalars[draw(st.sampled_from(sorted(_scalars)))]
    vecs = st.dictionaries(st.integers(0, 7), scalars, max_size=4).map(
        lambda v: {j: x for j, x in v.items() if x})
    return draw(st.lists(vecs, max_size=7)), draw(st.lists(vecs, min_size=1, max_size=4))


@settings(max_examples=60, deadline=None)
@given(_vec_lists())
def test_reduce_visits_only_the_vectors_pivots(vec_lists):
    # Valid because insert keeps every tail zero in every pivot column.
    inserted, probes = vec_lists
    ech = Echelon()
    for v in inserted:
        ech.insert(v)
        assert not any(p in tail for tail in ech.rows.values() for p in ech.rows)
    for v in inserted + probes:
        assert ech.reduce(v) == _reduce_over_every_pivot(ech, v)


# ---------------------------------------------------------------------------
# square-and-multiply

POWERS = [0, 1, 2, 3, 2**40 + 1]


def _counted(mul):
    """``mul`` and the list of its calls."""
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return mul(x, y)

    return counting, calls


@pytest.mark.parametrize("k", POWERS)
def test_by_squaring_matches_pow_mod_p(k):
    p = 2**61 - 1
    mul, calls = _counted(lambda x, y: x * y % p)
    for x in (0, 1, 3, p - 1, 123456789):
        calls.clear()
        assert _by_squaring(x, k, mul, 1) == pow(x, k, p)
        assert len(calls) <= 2 * k.bit_length()


def _compose(a, b):
    """The permutation a after b, as tuples of images."""
    return tuple(a[i] for i in b)


@pytest.mark.parametrize("k", POWERS)
def test_by_squaring_matches_repeated_products_in_a_nonabelian_group(k):
    # S5: x = (0 1 2)(3 4) has order 6, y = (0 1 2 3 4) order 5, and they do not commute
    one = tuple(range(5))
    x, y = (1, 2, 0, 4, 3), (1, 2, 3, 4, 0)
    assert _compose(x, y) != _compose(y, x)
    for g, order in ((x, 6), (y, 5), (_compose(x, y), None)):
        if order is None:
            order, h = 1, g
            while h != one:
                h, order = _compose(h, g), order + 1
        expected = one
        for _ in range(k % order):
            expected = _compose(expected, g)
        assert _by_squaring(g, k, _compose, one) == expected


def test_by_squaring_at_zero_is_the_unit_with_no_product():
    mul, calls = _counted(lambda x, y: x * y)
    unit = object()
    assert _by_squaring(7, 0, mul, unit) is unit and calls == []
