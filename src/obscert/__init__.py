"""obscert: numerical certification of observability inequalities for the
semiclassical Schrodinger equation.

Simulates the classical Hamiltonian flow and the quantum evolution of the same
data, computes every constant in the certified lower bound, and verifies the
observability inequality end to end at desk scale (dimension 1 or 2).
"""

from . import certify, classical, phasespace, potentials, quantum, scenario

__version__ = "0.1.0"

__all__ = [
    "certify",
    "classical",
    "phasespace",
    "potentials",
    "quantum",
    "scenario",
    "__version__",
]
