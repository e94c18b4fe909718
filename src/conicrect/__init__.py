"""Conic rectification toolkit.

AGM-based elliptic integrals, the quadratic modulus/amplitude
transformation, hyperbolic excess in series and closed form, the
two-ellipse rectification theorem with its Fagnano arc pairs, and an
independent adaptive-quadrature oracle that cross-checks all of it.

The package exports the union of its modules' ``__all__``.  ``agm`` and
``errors`` load with the package, and the star import binds the function
``agm`` over the submodule of that name.  The other four modules are in
``sys.modules`` from the start but run only on the first read of one of
their attributes (``importlib.util.LazyLoader``), so a command compiles only
the modules it uses.  A module binds its ``__all__`` here as it runs;
``from conicrect import X`` reaches a name not yet bound through
``__getattr__`` (PEP 562), which runs X's module.
"""

import importlib.util
import sys

from . import agm as _agm_module, errors
from .agm import *
from .errors import *

__version__ = "0.1.0"

# each module that runs on first use -> its __all__, which a test holds equal
_LAZY = {
    "quadrature": ("QuadratureResult", "integrate"),
    "landen": (
        "LagrangeParams",
        "ResidualReport",
        "modulus_ascend",
        "amplitude_inverse",
        "lagrange_substitution",
        "upper_limit",
        "check_gleichung",
        "check_borwein",
        "check_agm_invariance",
    ),
    "conics": (
        "Hyperbola",
        "Ellipse",
        "LandenPair",
        "ExcessBreakdown",
        "semiaxes_to_pair",
        "hyperbola_point_from_pedal",
        "hyperbola_tangent_length",
        "hyperbola_arc",
        "ellipse_tangent_length",
        "ellipse_arc",
        "excess_finite",
        "excess_infinity_closed",
        "excess_infinity_series",
        "excess_infinity_landen",
        "landen_theorem_check",
        "fagnano_check",
        "simpson_arc",
    ),
    "construction": ("ConstructionPoints", "construction_points", "validate_points", "render_svg"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([*_agm_module.__all__, *errors.__all__, *_HOME])


class _BindOnRun:
    """Loader that runs a module with its own loader, then binds the module's
    ``__all__`` on the package, so that every name is bound from the moment
    its module has run."""

    def __init__(self, loader):
        self.loader = loader

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        # once run, the module keeps its own loader, as an eager import leaves it
        module.__spec__.loader = module.__loader__ = self.loader
        self.loader.exec_module(module)
        globals().update({name: getattr(module, name) for name in module.__all__})


def _register(name: str):
    """The submodule ``name``, in ``sys.modules`` and not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(_BindOnRun(spec.loader))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _register(name) for name in _LAZY})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
