"""Closed forms for the switched spin-precession experiment.

A narrow "photon" packet of width sigma crosses a switch at s = 0 and turns
on a level splitting epsilon; the transverse spin expectation then precesses.
Under collapse that has run to smearing width T_cal, the switchover widens
from sigma to T_cal and the precession amplitude is damped by
exp(-epsilon^2*T_cal^2/2).

Evaluation is by the analytic expressions (complex-argument normal
distribution function), not by simulating the switch Hamiltonian.  The
closed forms take one float and compute in `math` and `cmath`: the module
imports no numpy, so a run of them loads none.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from . import (_CLOSED_ROW_BYTES, ConfigError, DomainError, Experiment, _checked, _float,
               _grid, _n_grid, _nonneg, _positive, _t_cal)
from ._kernels import normal_cdf

__all__ = [
    "SpinModelParams",
    "normal_cdf",
    "sigma1_standard",
    "sigma1_collapsed",
    "spin_density_matrix",
]


@_checked
class SpinModelParams(NamedTuple):
    """Spin amplitudes (a, b), splitting epsilon, packet width sigma, T_cal.

    The shortcut (b)-forms of the printed results assume sigma*epsilon << 1
    and sigma << T_cal; the exact (a)-forms hold regardless.
    """

    a: complex
    b: complex
    epsilon: float
    sigma: float
    T_cal: float = 0.0

    def _check(self):
        if not all(map(cmath.isfinite, self)):
            raise DomainError("a, b, epsilon, sigma and T_cal must be finite")
        if abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0) > 1e-12:
            raise DomainError("|a|^2 + |b|^2 must equal 1")
        if self.epsilon <= 0 or self.sigma <= 0:
            raise DomainError("epsilon and sigma must be positive")
        if self.T_cal < 0:
            raise DomainError("T_cal must be >= 0")

    @property
    def envelope(self) -> float:
        """Precession damping factor exp(-epsilon^2*T_cal^2/2)."""
        return math.exp(-0.5 * (self.epsilon * self.T_cal) ** 2)


def _sigma1(s: float, p: SpinModelParams, tcal: float) -> float:
    """<sigma_1> under collapse smearing of width tcal (exact closed form);
    tcal = 0 is ordinary Schrodinger evolution."""
    s = float(s)  # a numpy float would compute in numpy's scalar arithmetic
    a, b, eps, sig = complex(p.a), complex(p.b), p.epsilon, p.sigma
    width = math.hypot(sig, tcal)
    cross = a.conjugate() * b
    arg = (s + 1j * eps * sig * (sig + tcal)) / width
    return (
        cross.real * math.erfc(s / (width * math.sqrt(2.0)))  # 2*Re(cross)*Phi(-s/width)
        + math.exp(-0.5 * eps**2 * (sig**2 + tcal**2))
        * 2.0
        * (cross * cmath.exp(1j * eps * s) * normal_cdf(arg)).real
    )


def sigma1_standard(s: float, p: SpinModelParams) -> float:
    """<sigma_1> under ordinary Schrodinger evolution (exact closed form):
    `sigma1_collapsed` at T_cal = 0.

    For real a, b and sigma*epsilon << 1 this reduces to
    2ab*[Phi(-s/sigma) + cos(eps*s)*Phi(s/sigma)].
    """
    return _sigma1(s, p, 0.0)


def sigma1_collapsed(s: float, p: SpinModelParams) -> float:
    """<sigma_1> under collapse smearing of width T_cal (closed form).

    For real a, b, sigma*epsilon << 1, sigma << T_cal this reduces to
    2ab*[Phi(-s/T) + exp(-eps^2 T^2/2)*cos(eps*s)*Phi(s/T)].
    T_cal = 0 recovers `sigma1_standard` exactly.
    """
    return _sigma1(s, p, p.T_cal)


def spin_density_matrix(s: float, p: SpinModelParams):
    """2x2 spin density matrix in the (+, -) basis, valid after switchover.

    A mixture of spin up, spin down and a precessing pure part weighted by
    the damping envelope; trace 1 and positive semidefinite.  Raises inside
    the switchover window |s| <= 2*sqrt(sigma^2 + T_cal^2), where the
    closed form does not apply.  Returns a numpy array, and only this
    function of the module loads numpy.
    """
    import numpy as np

    width = math.hypot(p.sigma, p.T_cal)
    if s <= 2.0 * width:
        raise DomainError("density matrix form only valid for s > 2*width")
    env = p.envelope
    a, b, eps = complex(p.a), complex(p.b), p.epsilon
    v = np.array([a * cmath.exp(-0.5j * eps * s), b * cmath.exp(0.5j * eps * s)])
    precessing = np.outer(v, v.conj())
    mixed = np.diag([abs(a) ** 2, abs(b) ** 2]).astype(complex)
    return (1.0 - env) * mixed + env * precessing


# --- the CLI's spin experiment ----------------------------------------------


def _build_spin(p):
    try:
        sp = SpinModelParams(p["a"], p["b"], p["epsilon"], p["sigma"], p["t_cal"])
    except DomainError as exc:
        raise ConfigError(f"keys 'a' and 'b': {exc}") from exc
    if p["s_min"] is None:
        if p["s_max"] <= 0:
            raise ConfigError("key 's_max' must be positive when 's_min' is not given")
        p["s_min"] = -p["s_max"]
    if p["s_min"] >= p["s_max"]:
        raise ConfigError("key 's_min' must be below 's_max'")
    return sp


def _run_spin(cfg):
    p, sp = cfg.parameters, cfg.model
    cols = ["t (time)", "sigma1_standard (dimensionless)",
            "sigma1_collapsed (dimensionless)"]
    table = [(s, sigma1_standard(s, sp), sigma1_collapsed(s, sp))
             for s in _grid(p["s_min"], p["s_max"], p["n_s"])]
    summary = {"envelope": sp.envelope, "epsilon_T_cal": p["epsilon"] * _t_cal(p)}
    return cols, table, summary


EXPERIMENTS = {"spin": Experiment(
    {"a": (_float, True, None),
     "b": (_float, True, None),
     "epsilon": (_positive, True, None),
     "sigma": (_positive, True, None),
     "t_cal": (_nonneg, False, 0.0),
     "s_min": (_float, False, None),
     "s_max": (_float, True, None),
     "n_s": (_n_grid, False, 200)},
    build=_build_spin, run=_run_spin,
    array_bytes=lambda p, model: {"'n_s'": _CLOSED_ROW_BYTES * p["n_s"]})}
