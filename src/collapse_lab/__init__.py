"""collapse-lab: energy-driven wavefunction collapse on finite spectral models.

Simulation and closed-form analysis of the energy-driven collapse process
B(t): nonunitary evolution in the energy basis, exact record-trajectory
sampling, ensemble smearing statistics, the permanent-record bound, and two
worked experiments (a precessing spin and an excitation/decay chain).

Every name in a layer module's ``__all__`` is a name of the package too,
resolved on first use (PEP 562), so ``import collapse_lab`` loads no layer.
`DomainError` and `_checked` (the parameter records' checks) are defined here,
so a layer that raises or checks need not load `hilbert`, which re-exports the first.
"""

import importlib

__version__ = "0.1.0"


class DomainError(ValueError):
    """Raised when an operation's precondition is violated."""


def _checked(cls):
    """NamedTuple `cls` with its `_check` run on every new record, `_make` and
    so `_replace` included.  `_check` raises DomainError, or returns the record
    to give in place of the one built (a sorted or coerced copy, itself built
    and checked), or None to give that one."""
    new = cls.__new__
    cls.__new__ = lambda cls, *args, **kw: (rec := new(cls, *args, **kw))._check() or rec
    cls._make = classmethod(lambda cls, it: cls(*it))
    return cls


#: the layer modules whose public names the package re-exports, in lookup order
_LAYERS = ("hilbert", "engine", "rng", "ensemble", "records", "measurement",
           "spin", "decay", "kgrid")


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
