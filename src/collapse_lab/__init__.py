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

So are `ConfigError`, the config value parsers and `Experiment`, which the
experiment records share with `cli`: each record lives in its own layer, and
no layer imports `cli`, which sets OPENBLAS_NUM_THREADS when imported and is
`__main__` under ``python -m collapse_lab.cli``.

numpy is bound in one place, `_np`, which imports it at the first lookup of
one of its names and keeps each name it has looked up; every module that
computes with arrays binds it as `np` when loaded.  So importing the package
or a layer loads no numpy; a run loads it at its first array operation.  Only
the collapse, ensemble and k-grid runners make one: no config's `validate`
and none of the four closed-form runs, which compute in `math` and `cmath`,
loads numpy.
"""

import importlib
import math
from collections.abc import Callable
from typing import NamedTuple

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


class ConfigError(Exception):
    """Configuration file is malformed or violates an experiment schema."""


def _parser(convert, ok, must):
    """Parser of a value `convert(raw)` for which `ok` holds; the error says
    it must `must`."""
    def parse(raw: str):
        v = convert(raw)
        if not ok(v):
            raise ValueError(f"must {must}, got {raw}")
        return v

    return parse


_float = _parser(float, math.isfinite, "be finite")
_positive = _parser(float, lambda v: math.isfinite(v) and v > 0, "be positive")
_nonneg = _parser(float, lambda v: math.isfinite(v) and v >= 0, "be >= 0")
_fraction = _parser(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
_int_pos = _parser(int, lambda v: v > 0, "be a positive integer")
_n_grid = _parser(int, lambda v: v >= 2, "be at least 2: the grid spans both endpoints")
_n_traj_mc = _parser(int, lambda v: v == 0 or v >= 2, "be 0 (no Monte Carlo) or at least 2")


def _floats(raw: str) -> tuple[float, ...]:
    vals = tuple(_float(x) for x in raw.replace(",", " ").split())
    if not vals:
        raise ValueError("empty list")
    return vals


def _choice(*options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {options}, got {raw!r}")
        return raw

    return parse


def _t_cal(p) -> float:
    """T_cal: the `t_cal` key, else sqrt(lambda*t) over the span from t0 (or 0)."""
    if "t_cal" in p:
        return p["t_cal"]
    return math.sqrt(p["lambda"] * (p["t_max"] - p.get("t0", 0.0)))


class Experiment(NamedTuple):
    """One experiment of the CLI, kept by the layer its runner computes with.

    schema: key -> (parser, required, default); "seed" is always accepted.
    build: parameters -> model, the run's library objects, built nowhere
      else; raises ConfigError on cross-key checks, and may reorder values.
    array_bytes: (parameters, model) -> estimated peak array bytes of a run
      by the count key sizing them; each table value is charged as its float
      plus the runner's temporaries, in whole floats as tracemalloc sees them.
    run: config -> (column names with units, table, summary scalars), from
      `cfg.model` as built; the table is a 2-D numpy float array or, from a
      runner that uses no numpy, a list of rows of floats.
    t_cal: built parameters -> the T_cal `validate` prints, or None for a run
      that applies no collapse smearing.
    """

    schema: dict
    build: Callable
    array_bytes: Callable
    run: Callable
    t_cal: Callable = _t_cal


#: a closed-form run's table row, a tuple of Python floats, with its entries in
#: the table's and the grid's lists: at most 140 bytes under tracemalloc (127
#: for `records`' pairs, 96 for `measurement`'s triples, whose t and B are the
#: grids' floats), charged as 144; the closed forms' temporaries are freed
#: point by point
_CLOSED_ROW_BYTES = 144


class _Numpy:
    """numpy, imported on the first lookup of any of its names.  A name looked
    up is kept in the instance's `__dict__`, so later lookups of it never
    reach `__getattr__`: the Philox rounds and the Bessel recurrence look up
    numpy's names thousands of times a run."""

    def __getattr__(self, name):
        import numpy
        value = self.__dict__[name] = getattr(numpy, name)
        return value


_np = _Numpy()


def _numpy_runner(runner):
    """`runner` with numpy's overflow, invalid value and division by zero
    raised as FloatingPointError: a contract violation, not a warning."""
    def run(cfg):
        with _np.errstate(over="raise", invalid="raise", divide="raise"):
            return runner(cfg)

    return run


def _grid(a: float, b: float, n: int) -> list[float]:
    """n >= 1 points from a to b, numpy.linspace(a, b, n)'s bit for bit:
    x_i = i*step + a, step = (b - a)/(n - 1) (x_i = i/(n - 1)*(b - a) + a
    where the step underflows to 0, as numpy does), the last point b; one
    point is 0*(b - a) + a."""
    if n == 1:
        return [0.0 * (b - a) + a]
    step = (b - a) / (n - 1)
    xs = [i * step + a if step else i / (n - 1) * (b - a) + a for i in range(n)]
    xs[-1] = b
    return xs


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
