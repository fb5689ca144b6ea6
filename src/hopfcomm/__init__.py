"""Exact-arithmetic commutator calculus on semisimple Hopf algebras.

Builds concrete finite-dimensional semisimple Hopf algebras (group algebras,
their duals, Drinfeld doubles), computes the commutator machinery (Hopf
commutators, the central elements z_n, the commutator subalgebra H'),
counting functionals (f_rob, f_n, root functions, iterated-commutator
functionals), class data (R(H) idempotents, class sums, Drinfeld maps), and
verifies everything exactly — against exact word counts over the group
table wherever the algebra is a group algebra.
"""

from .exactnum import CycNum, Rational, cyc, zeta

__version__ = "0.1.0"

__all__ = [
    "CycNum",
    "Rational",
    "cyc",
    "zeta",
    "__version__",
]
