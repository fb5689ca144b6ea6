"""Sparse linear algebra: the accumulation kernel, the canonical echelon
form, and Solver's combinations over augmented rows."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hopfcomm._linalg import Echelon, Solver, vec_axpy
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
