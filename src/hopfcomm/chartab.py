"""Character tables of finite groups, proposed mod p.

A table is proposed by the Burnside-Dixon mod-p method: the class
algebra is split over F_p (p == 1 mod exponent(G), p > 2|G|) into its
primitive idempotents E_i = (d_i/|G|) sum_j chi_i(g_j^-1) C_j by Frobenius
powers of random elements (not diagonalised), degrees and character values
are read off the coordinates of the E_i mod p, and each value is lifted to
the cyclotomic field Q(zeta_exponent) by a discrete Fourier transform on the
eigenvalue multiplicities.  The class algebra and each proposal are bare
rows: the structure constants are the ``_rows`` dict of ``_linalg``, and a
lifted table is the pair (degrees, values), indexed like the classes of
``G.conjugacy_data()``.  The mod-p phase only proposes: each lifted table
goes to the caller's certificate ``accept`` (kG's is ``hopf._group_irred``),
and the primes and retries are ``_modp.first_certified``'s.
``CharacterTable`` is the certified table only, the one that
``hopf.character_table`` reads off kG's irreducibles and the CLI prints.
"""

from __future__ import annotations

import math
import random

from ._linalg import _rows
from ._modp import TRIES, element_of_order, first_certified, split_idempotents
from .exactnum import CycNum
from .group import ClassPartition, FiniteGroup, power_map


class CharacterTable:
    __slots__ = ("group_name", "classes", "class_labels", "degrees", "values")

    def __init__(self, group_name: str, classes: ClassPartition,
                 class_labels: tuple[str, ...], degrees: tuple[int, ...],
                 values: tuple[tuple[CycNum, ...], ...]):
        self.group_name = group_name
        self.classes = classes
        self.class_labels = class_labels
        self.degrees = degrees
        self.values = values

    def markdown(self) -> str:
        """A markdown table with padded columns and the group name in the
        corner."""
        head = [self.group_name] + [
            f"{lbl} ({sz})" for lbl, sz in zip(self.class_labels, self.classes.sizes)]
        rows = [head] + [[f"chi_{i}"] + [str(v) for v in row]
                         for i, row in enumerate(self.values)]
        widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
        lines = ["| " + " | ".join(s.ljust(w) for s, w in zip(r, widths)) + " |"
                 for r in rows]
        lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
        return "\n".join(lines)


def class_structure_constants(G: FiniteGroup) -> dict:
    """Exact integer tensor a_{ijk} with C_i C_j = sum_k a_{ijk} C_k, as rows
    {i: {j: ((k, a_ijk), ...)}} of the nonzero a_ijk, indexed by the classes
    of ``G.conjugacy_data()``; read at the representative z_k of C_k:
    a_{ijk} = #{x in C_i : x^-1 z_k in C_j}."""
    conj = G.conjugacy_data()
    n = conj.n_classes
    cls = conj.class_of
    counts = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k, z in enumerate(conj.reps):
        for x in G.elements():
            counts[cls[x]][cls[G.table[G.inv[x]][z]]][k] += 1
    return _rows((i, j, tuple((k, c) for k, c in enumerate(counts[i][j]) if c))
                 for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# Dixon lift


def _lift_table(G, algebra, p, rng):
    """One Dixon attempt at prime p on the class algebra rows ``algebra``;
    returns (degrees, values), one row per idempotent of the split in the
    order found, or None."""
    conj = G.conjugacy_data()
    n = conj.n_classes
    order = G.order
    e = G.exponent()
    idems = split_idempotents(algebra, [1] + [0] * (n - 1), p, rng)
    if idems is None:
        return None
    z = element_of_order(e, p, rng)
    zinv = [pow(z, -t % e, p) for t in range(e)]
    inv_e = pow(e, -1, p)
    powers = [[power_map(G, j, s) for s in range(e)] for j in range(n)]

    # E_i = (d_i/|G|) sum_j chi_i(g_j^-1) C_j: the C_0 coordinate gives
    # d_i^2 and the coordinate at the inverse class gives chi_i(g_j).
    rows = []
    for idem in idems:
        dd = order * idem[0] % p
        d = math.isqrt(dd)
        if d == 0 or d * d != dd:
            return None
        scale = order * pow(d, -1, p)
        theta = [scale * idem[conj.inverse_class[j]] % p for j in range(n)]
        values = []
        for j in range(n):
            mults = []
            for t in range(e):
                m = sum(theta[powers[j][s]] * zinv[(t * s) % e] for s in range(e))
                m = m * inv_e % p
                if m > d:
                    return None
                mults.append(m)
            if sum(mults) != d:
                return None
            values.append(CycNum(e, mults))
        rows.append((d, tuple(values)))
    return tuple(r[0] for r in rows), tuple(r[1] for r in rows)


def dixon_character_table(G: FiniteGroup, seed: int, accept):
    """``accept`` of the first lifted character table of G it takes, a pair
    (degrees, values) of bare rows: a degree and a row of values per
    irreducible, a value per class of ``G.conjugacy_data()``.  The rows come
    in the order the split found them, unsorted: the caller orders them
    (``hopf._sorted_irred``).  ``_lift_table`` proposes; a table that
    ``accept``, the caller's certificate, refuses with VerificationFailed is
    retried at the next prime."""
    algebra = class_structure_constants(G)
    rng = random.Random(seed)
    e = G.exponent()
    return first_certified(
        {"stage": "dixon", "group": G.name}, e, max(2 * G.order, e, 2), (None,),
        lambda p, _: _lift_table(G, algebra, p, rng), accept,
        lambda why: f"character table of {G.name} failed verification after "
                    f"{TRIES} primes: {why}")
