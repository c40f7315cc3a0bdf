"""Spectral distances on fuzzy spheres in the operator (Hilbert-Schmidt) picture.

Submodules:

* halfint: exact half-integer arithmetic for spin labels
* linalg: the shared tolerances and the operator norm
* sphere: matrix coordinates, pure states, the two-mode oscillator picture
* triple: Dirac operators and the Lipschitz seminorm
* distance: closed forms, the norm pipeline, the constrained-ascent optimizer
* coherent: coherent states as SU(2) rotations of |n,n>, the infinitesimal metric
* quantum: operator-space pure/mixed/thermal distances; every quantum state is
  diagonal in |n3, l3) and held as its (2n+1) x (2n+1) weight matrix
* continuum: commutative checks (Hopf map, round metric, monopole charts)
* validate: the named-check registry behind `fuzzydist validate`
* cli: command-line front end

Every public class and function defined in a submodule other than cli is also
a package attribute: fuzzydist.<name> imports the submodules in the order above
until one defines <name>, so each name is stated once, in its module. Importing
the bare package pulls no numpy, so the CLI can translate FUZZYDIST_THREADS into
BLAS thread caps first. A name that starts with "_" is never looked up, except
__all__, which imports every submodule but cli to list their names.
"""

from importlib import import_module
from types import FunctionType

__version__ = "0.1.0"

_LIBRARY = ("halfint", "linalg", "sphere", "triple", "distance", "coherent", "quantum",
            "continuum", "validate")
_SUBMODULES = _LIBRARY + ("cli",)


def _exports():
    """(name, object) of each public class and function defined in a library submodule."""
    for sub in _LIBRARY:
        mod = import_module("." + sub, __name__)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, (type, FunctionType))
                    and obj.__module__ == mod.__name__):
                yield name, obj


def __getattr__(name):
    if name == "__all__":
        value = ["__version__", *_SUBMODULES, *(key for key, _ in _exports())]
    elif name in _SUBMODULES:
        value = import_module("." + name, __name__)
    else:
        value = None if name.startswith("_") else next(
            (obj for key, obj in _exports() if key == name), None)
        if value is None:
            raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
