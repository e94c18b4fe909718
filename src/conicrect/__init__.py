"""Conic rectification toolkit.

AGM-based elliptic integrals, the quadratic modulus/amplitude
transformation, hyperbolic excess in series and closed form, the
two-ellipse rectification theorem with its Fagnano arc pairs, and an
independent adaptive-quadrature oracle that cross-checks all of it.

The package exports the union of its modules' ``__all__``.  The star import
binds the function ``agm`` over the submodule of that name.
"""

from . import agm as _agm_module, conics, construction, errors, landen, quadrature
from .agm import *
from .conics import *
from .construction import *
from .errors import *
from .landen import *
from .quadrature import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (_agm_module, conics, construction, errors, landen, quadrature)
    for name in module.__all__
)
