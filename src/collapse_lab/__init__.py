"""collapse-lab: energy-driven wavefunction collapse on finite spectral models.

Simulation and closed-form analysis of the energy-driven collapse process
B(t): nonunitary evolution in the energy basis, exact record-trajectory
sampling, ensemble smearing statistics, the permanent-record bound, and two
worked experiments (a precessing spin and an excitation/decay chain).

Every name in a layer module's ``__all__`` is a name of the package too,
resolved on first use (PEP 562), so ``import collapse_lab`` loads no layer.
`DomainError` is defined here, so a layer that raises it need not load
`hilbert`, which re-exports it.
"""

import importlib

__version__ = "0.1.0"


class DomainError(ValueError):
    """Raised when an operation's precondition is violated."""


#: the layer modules whose public names the package re-exports, in lookup order
_LAYERS = ("hilbert", "engine", "rng", "ensemble", "records", "measurement",
           "spin", "decay")


def __getattr__(name):
    # `from collapse_lab import cli` asks here first: import it, not every layer
    if name in _LAYERS or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for layer in _LAYERS for n in __getattr__(layer).__all__] + ["__version__"]
    # a private name is never re-exported; `from . import _kernels` asks here
    # before the import system loads the submodule
    for layer in () if name.startswith("_") else map(__getattr__, _LAYERS):
        if name in layer.__all__:
            return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
