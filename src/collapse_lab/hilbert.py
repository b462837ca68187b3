"""Spectral data model: states over labeled energy levels and the
numerically safe norm / expectation primitives shared by every other module.

Amplitudes are stored as (log-magnitude, phase) pairs.  The collapse
Gaussian suppresses off-resonant levels by factors like exp(-lambda*t*dE^2),
which underflows double precision long before the physics gets boring, so
all norms go through log-sum-exp, the package's one, in `math`
(`collapse_lab._log_sum_exp`), and ratios are formed after subtracting a
common log offset.

The module imports no numpy when loaded.  The records' checks and
`squared_norm` are plain Python, all but `ObservableMatrix`'s check, whose
entries are a numpy array; the functions that compute with arrays import
numpy when called.  So building and normalizing a state loads none: no
config's `validate` loads numpy, and only the collapse, ensemble and k-grid
runners do.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from . import DomainError, _checked, _log_sum_exp

__all__ = [
    "DomainError",
    "EnergyLevel",
    "SpectralState",
    "ObservableMatrix",
    "DiscreteSpectrum",
    "squared_norm",
    "expectation",
    "energy_distribution",
]

NEG_INF = float("-inf")


@_checked
class EnergyLevel(NamedTuple):
    """One energy eigenvalue together with its degeneracy label."""

    energy: float
    degeneracy_index: int = 0

    def _check(self):
        if not math.isfinite(self.energy):
            raise DomainError(f"energy must be finite, got {self.energy}")
        if self.degeneracy_index < 0:
            raise DomainError("degeneracy_index must be >= 0")


@_checked
class SpectralState(NamedTuple):
    """Complex amplitudes over energy levels, in log-magnitude/phase form.

    Components are kept in canonical order (energy, then degeneracy index)
    so that equality and golden-file comparisons are deterministic.
    """

    levels: tuple[EnergyLevel, ...]
    log_magnitudes: tuple[float, ...]
    phases: tuple[float, ...]
    normalized_flag: bool = False

    def _check(self):
        n = len(self.levels)
        if n == 0:
            raise DomainError("state must have at least one component")
        if len(self.log_magnitudes) != n or len(self.phases) != n:
            raise DomainError("levels, log_magnitudes, phases must have equal length")
        if len(set(self.levels)) != n:
            raise DomainError("(energy, degeneracy_index) pairs must be unique")
        order = sorted(range(n), key=lambda i: self.levels[i])
        if order != list(range(n)):
            # the record of the fields in that order, itself checked
            return self._make([*(tuple(f[i] for i in order) for f in self[:3]),
                               self.normalized_flag])
        if all(lm == NEG_INF for lm in self.log_magnitudes):
            raise DomainError("state must have at least one nonzero amplitude")
        if self.normalized_flag:
            log_n2, _ = squared_norm(self)
            if abs(log_n2) > 1e-12 * max(1.0, abs(log_n2)) and abs(log_n2) > 1e-12:
                raise DomainError(
                    f"normalized_flag set but squared norm is exp({log_n2})"
                )

    @classmethod
    def from_amplitudes(cls, levels, amplitudes, normalized_flag=False):
        """Build from ordinary complex amplitudes (convenience path)."""
        import numpy as np
        amplitudes = np.asarray(amplitudes, dtype=complex)
        log_mags = np.full(amplitudes.shape, NEG_INF)
        nonzero = amplitudes != 0
        log_mags[nonzero] = np.log(np.abs(amplitudes[nonzero]))
        phases = np.angle(amplitudes)
        return cls(tuple(levels), tuple(log_mags.tolist()), tuple(phases.tolist()),
                   normalized_flag)

    def energies(self):
        """The level energies, a numpy float array."""
        import numpy as np
        return np.array([lv.energy for lv in self.levels])

    def amplitudes(self, log_shift: float = 0.0):
        """Complex amplitudes scaled by exp(-log_shift), a numpy array.

        Pass the log norm (or the max log magnitude) as ``log_shift`` when
        the raw amplitudes would underflow.
        """
        import numpy as np
        lm = np.asarray(self.log_magnitudes) - log_shift
        return np.exp(lm) * np.exp(1j * np.asarray(self.phases))

    def normalized(self) -> "SpectralState":
        log_n2, _ = squared_norm(self)
        lm = tuple(x - 0.5 * log_n2 for x in self.log_magnitudes)
        return SpectralState(self.levels, lm, self.phases, normalized_flag=True)


@_checked
class ObservableMatrix(NamedTuple):
    """Hermitian matrix over a list of energy levels; `entries` is made a
    complex numpy array on construction."""

    basis: tuple[EnergyLevel, ...]
    entries: Any

    def _check(self):
        import numpy as np
        basis, entries = tuple(self.basis), np.asarray(self.entries, dtype=complex)
        if basis is not self.basis or entries is not self.entries:
            return self._replace(basis=basis, entries=entries)
        n = len(basis)
        if entries.shape != (n, n):
            raise DomainError(f"entries must be {n}x{n}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise DomainError("entries must be finite")
        scale = max(1.0, float(np.abs(entries).max()))
        if np.abs(entries - entries.conj().T).max() > 1e-12 * scale:
            raise DomainError("entries must be Hermitian to 1e-12")

    @classmethod
    def identity(cls, basis):
        import numpy as np
        return cls(tuple(basis), np.eye(len(tuple(basis))))

    @classmethod
    def hamiltonian(cls, basis):
        import numpy as np
        basis = tuple(basis)
        return cls(basis, np.diag([lv.energy for lv in basis]).astype(complex))

    @classmethod
    def energy_projector(cls, basis, energy):
        import numpy as np
        basis = tuple(basis)
        diag = [1.0 if lv.energy == energy else 0.0 for lv in basis]
        return cls(basis, np.diag(diag).astype(complex))


@_checked
class DiscreteSpectrum(NamedTuple):
    """Unity-normalized probability weights over strictly increasing energies."""

    energies: tuple[float, ...]
    weights: tuple[float, ...]

    def _check(self):
        try:  # the values as numpy.asarray(x, float) reads them
            e, w = (tuple(map(float, x)) for x in (self.energies, self.weights))
        except TypeError:  # not a sequence of numbers
            e = w = ()
        if len(e) != len(w) or not e:
            raise DomainError("energies and weights must be equal-length 1-d")
        if not all(map(math.isfinite, e + w)):
            raise DomainError("energies and weights must be finite")
        if any(hi <= lo for lo, hi in zip(e, e[1:])):
            raise DomainError("energies must be strictly increasing")
        if any(x < 0 for x in w):
            raise DomainError("weights must be nonnegative")
        total = math.fsum(w)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"weights must sum to 1, got {total!r}")

    def as_arrays(self):
        import numpy as np
        return np.asarray(self.energies, float), np.asarray(self.weights, float)


def squared_norm(state: SpectralState) -> tuple[float, float]:
    """Squared norm of a state, returned as (log value, linear value).

    The log value is the log-sum-exp (`collapse_lab._log_sum_exp`) of twice
    the component log magnitudes and stays finite when the linear value
    underflows to zero.
    """
    log_n2 = _log_sum_exp(2.0 * lm for lm in state.log_magnitudes)
    linear = math.exp(log_n2) if log_n2 < 709.0 else math.inf
    return log_n2, linear


def expectation(state: SpectralState, obs: ObservableMatrix) -> float:
    """Normalized expectation value <psi|A|psi>/<psi|psi>.

    The imaginary part must vanish (A is Hermitian); it is asserted below
    1e-10 relative and dropped.
    """
    import numpy as np
    if obs.basis != state.levels:
        raise DomainError("observable basis does not match state levels")
    log_n2, _ = squared_norm(state)
    if log_n2 == NEG_INF:
        raise DomainError("zero-norm state")
    # Shift by half the log norm: amplitudes of the normalized state.
    amps = state.amplitudes(log_shift=0.5 * log_n2)
    # einsum, not BLAS: a first BLAS call faults in OpenBLAS code pages
    val = complex(np.einsum("i,i->", amps.conj(), np.einsum("ij,j->i", obs.entries, amps)))
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-10 * scale:
        raise AssertionError(f"Hermitian expectation has imaginary part {val.imag}")
    return val.real


def energy_distribution(state: SpectralState) -> DiscreteSpectrum:
    """Degeneracy-summed, unity-normalized energy spectrum of a state."""
    import numpy as np
    log_n2, _ = squared_norm(state)
    if log_n2 == NEG_INF:
        raise DomainError("zero-norm state")
    weights: dict[float, float] = {}
    for lv, lm in zip(state.levels, state.log_magnitudes):
        w = math.exp(2.0 * lm - log_n2)
        weights[lv.energy] = weights.get(lv.energy, 0.0) + w
    energies = sorted(weights)
    w = np.array([weights[e] for e in energies])
    w = w / w.sum()  # renormalize away rounding from the per-level exps
    return DiscreteSpectrum(tuple(energies), tuple(float(x) for x in w))
