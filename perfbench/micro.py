"""Microbenchmarks of the two lowest layers of hopfcomm.

L0: ``CycNum`` add, mul and inverse at fixed conductors, as the median
microseconds per op over batches on seeded operands.
L1: ``_linalg.rank`` (Echelon elimination) on seeded sparse vector sets with
rational and order-12 entries, as the median milliseconds per rank.

Every timed op is also checked: a sample of results is compared against an
identity that must hold exactly.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

ADD_MUL_ORDERS = (1, 3, 4, 8, 12, 15, 21, 24)
INV_ORDERS = (3, 12, 21)
POOL = 16                 # operand pairs per order
BATCH_S = 0.01            # target length of one timed batch
MIN_BATCHES = 7
BUDGET_S = 0.15           # per metric, after the minimum batches


def random_cyc(rng: random.Random, n: int):
    """A dense element of Q(zeta_n): conductor n unless it lands in a subfield."""
    from hopfcomm.exactnum import CycNum, euler_phi
    coeffs = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
                   for _ in range(euler_phi(n)))
    return CycNum(n, coeffs)


def _median_per_op(fn, pairs) -> float:
    """Median seconds per op of ``fn`` over the pairs, timed in batches."""
    def one_pass():
        for a, b in pairs:
            fn(a, b)

    one_pass()  # fill the per-order caches before timing
    t0 = time.perf_counter()
    one_pass()
    per_pass = max(time.perf_counter() - t0, 1e-7)
    passes = max(1, round(BATCH_S / per_pass))
    samples = []
    spent = 0.0
    while len(samples) < MIN_BATCHES or spent < BUDGET_S:
        t0 = time.perf_counter()
        for _ in range(passes):
            one_pass()
        dt = time.perf_counter() - t0
        spent += dt
        samples.append(dt / (passes * len(pairs)))
    return statistics.median(samples)


def exactnum_bench(seed: int) -> tuple[dict, list[str]]:
    """Metrics ``exactnum.{add,mul,inv}_us.o<n>`` and a list of failed checks."""
    from hopfcomm.exactnum import CycNum
    rng = random.Random(f"exactnum/{seed}")
    one = CycNum.rational(1)
    metrics, failures = {}, []
    for n in ADD_MUL_ORDERS:
        pairs = [(random_cyc(rng, n), random_cyc(rng, n)) for _ in range(POOL)]
        for a, b in pairs[:2]:
            if (a + b) - b != a or a * b != b * a or (a * b) * b.inverse() != a:
                failures.append(f"exactnum identities at order {n}")
        metrics[f"exactnum.add_us.o{n}"] = 1e6 * _median_per_op(lambda a, b: a + b, pairs)
        metrics[f"exactnum.mul_us.o{n}"] = 1e6 * _median_per_op(lambda a, b: a * b, pairs)
        if n in INV_ORDERS:
            metrics[f"exactnum.inv_us.o{n}"] = 1e6 * _median_per_op(
                lambda a, b: a.inverse(), pairs)
            for a, _ in pairs[:2]:
                if a * a.inverse() != one:
                    failures.append(f"exactnum inverse at order {n}")
    return metrics, failures


RANK_VECTORS = 16
RANK_COLUMNS = 24
RANK_NONZEROS = 4
RANK_BATCHES = 7


RANK_FREE = RANK_VECTORS - RANK_VECTORS // 4


def _sparse_set(rng: random.Random, entry) -> list[dict]:
    """Seeded sparse vectors; the last quarter are sums of earlier ones, so
    they add nothing to the rank and elimination meets dependent rows."""
    free = RANK_FREE
    vecs = []
    for _ in range(free):
        cols = rng.sample(range(RANK_COLUMNS), RANK_NONZEROS)
        vecs.append({c: entry() for c in cols})
    for _ in range(RANK_VECTORS - free):
        a, b = rng.sample(vecs[:free], 2)
        s = dict(a)
        for c, x in b.items():
            s[c] = s[c] + x if c in s else x
        vecs.append({c: x for c, x in s.items() if x})
    return vecs


def reference_rank(vecs: list[dict]) -> int:
    """Rank by plain Gaussian elimination on dense rows, without _linalg."""
    from hopfcomm.exactnum import CycNum
    zero = CycNum.rational(0)
    rows = [[v.get(c, zero) for c in range(RANK_COLUMNS)] for v in vecs]
    rank = 0
    for col in range(RANK_COLUMNS):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def linalg_bench(seed: int) -> tuple[dict, list[str]]:
    """Metrics ``linalg.rank_ms.{q,cyc12}`` and a list of failed checks."""
    from hopfcomm import _linalg
    from hopfcomm.exactnum import CycNum
    rng = random.Random(f"linalg/{seed}")
    entries = {
        "q": lambda: CycNum.rational(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))),
        "cyc12": lambda: random_cyc(rng, 12),
    }
    metrics, failures = {}, []
    for name, entry in entries.items():
        vecs = _sparse_set(rng, entry)
        ranks, samples = set(), []
        _linalg.rank(vecs)
        for _ in range(RANK_BATCHES):
            t0 = time.perf_counter()
            ranks.add(_linalg.rank(vecs))
            samples.append(time.perf_counter() - t0)
        # The same rank every time, the dependent quarter adds nothing, and
        # plain elimination agrees.
        expected = reference_rank(vecs)
        if (ranks != {expected} or _linalg.rank(vecs[:RANK_FREE]) != expected
                or reference_rank(vecs[:RANK_FREE]) != expected):
            failures.append(f"linalg rank on the {name} set: {sorted(ranks)}, "
                            f"expected {expected}")
        metrics[f"linalg.rank_ms.{name}"] = 1e3 * statistics.median(samples)
    return metrics, failures
