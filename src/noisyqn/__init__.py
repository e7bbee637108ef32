"""Noise-tolerant quasi-Newton methods (BFGS / L-BFGS families) with a
two-phase Armijo-Wolfe line search, plus test problems, a controlled noisy
oracle, and a benchmark harness.

The package exports ``__version__`` and the names in each module's
``__all__``; a module's other public names, such as ``solver.iterate``,
are imported from the module.
"""

from . import bench, linalg, linesearch, noise, problems, solver
from .bench import *
from .linalg import *
from .linesearch import *
from .noise import *
from .problems import *
from .solver import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (linalg, problems, noise, linesearch, solver, bench)
    for name in module.__all__
]
