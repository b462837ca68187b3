"""collapse-lab: energy-driven wavefunction collapse on finite spectral models.

Simulation and closed-form analysis of the energy-driven collapse process
B(t): nonunitary evolution in the energy basis, exact record-trajectory
sampling, ensemble smearing statistics, the permanent-record bound, and two
worked experiments (a precessing spin and an excitation/decay chain).

Every name in a layer module's ``__all__`` is a name of the package too,
resolved on first use (PEP 562), so ``import collapse_lab`` loads no layer.
`DomainError`, `_checked` (the parameter records' checks) and `_log_sum_exp`
(the one log-sum-exp) are defined here, so a layer that raises, checks or sums
in log space need not load `hilbert`, which re-exports the first.
"""

import importlib
import math

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


def _log_sum_exp(x) -> float:
    """log(sum(exp(x))) of an iterable of floats, in `math`, finite where the
    sum underflows to zero: the m tied maxima are taken out of the sum, and
    the rest, scaled by exp(-max) and summed exactly (`math.fsum`), enter as
    log1p(sum/m) + log(m) + max, scipy.special.logsumexp's order of
    operations.  All -inf gives -inf; a nan anywhere gives nan."""
    x = list(x)
    log_s = top = math.nan if any(map(math.isnan, x)) else max(x)
    if top > -math.inf:
        m = x.count(top)
        s = math.fsum(math.exp(v - top) for v in x if v != top) / m
        log_s = math.log1p(s) + math.log(m) + top
    return float(log_s)


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
