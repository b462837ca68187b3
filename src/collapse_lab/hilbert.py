"""Spectral data model: states over energy levels and the numerically safe
norm / expectation primitives shared by every other module.

A level is its energy, a float; a degenerate level is a repeated energy,
told apart by its position, in the order it was given.

Amplitudes are stored as (log-magnitude, phase) pairs.  The collapse
Gaussian suppresses off-resonant levels by factors like exp(-lambda*t*dE^2),
which underflows double precision long before the physics gets boring, so
all norms go through log-sum-exp, the package's one, in `math`
(`collapse_lab._log_sum_exp`), and ratios are formed after subtracting a
common log offset.

The records' checks and `squared_norm` are plain Python, all but
`ObservableMatrix`'s check, whose entries are a numpy array, so building and
normalizing a state computes with no array.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

from . import DomainError, _checked, _log_sum_exp
from . import _np as np

__all__ = [
    "DomainError",
    "SpectralState",
    "ObservableMatrix",
    "DiscreteSpectrum",
    "squared_norm",
    "expectation",
    "energy_distribution",
]

NEG_INF = float("-inf")


@_checked
class SpectralState(NamedTuple):
    """Complex amplitudes over energy levels, in log-magnitude/phase form.

    Components are kept as tuples sorted by energy, degenerate ones in the
    order given (a stable sort), so that equality and golden-file comparisons
    are deterministic.
    """

    levels: tuple[float, ...]
    log_magnitudes: tuple[float, ...]
    phases: tuple[float, ...]
    normalized_flag: bool = False

    def _check(self):
        n = len(self.levels)
        if n == 0:
            raise DomainError("state must have at least one component")
        if len(self.log_magnitudes) != n or len(self.phases) != n:
            raise DomainError("levels, log_magnitudes, phases must have equal length")
        if not all(map(math.isfinite, self.levels)):
            raise DomainError("levels must be finite")
        order = sorted(range(n), key=lambda i: self.levels[i])
        if order != list(range(n)) or not all(isinstance(f, tuple) for f in self[:3]):
            # the record of the fields as tuples in that order, itself checked
            return self._make([*(tuple(f[i] for i in order) for f in self[:3]),
                               self.normalized_flag])
        if all(lm == NEG_INF for lm in self.log_magnitudes):
            raise DomainError("state must have at least one nonzero amplitude")
        if self.normalized_flag:
            log_n2 = squared_norm(self)
            if abs(log_n2) > 1e-12 * max(1.0, abs(log_n2)) and abs(log_n2) > 1e-12:
                raise DomainError(
                    f"normalized_flag set but squared norm is exp({log_n2})"
                )

    @classmethod
    def from_amplitudes(cls, levels, amplitudes, normalized_flag=False):
        """Build from ordinary complex amplitudes (convenience path)."""
        amplitudes = np.asarray(amplitudes, dtype=complex)
        log_mags = np.full(amplitudes.shape, NEG_INF)
        nonzero = amplitudes != 0
        log_mags[nonzero] = np.log(np.abs(amplitudes[nonzero]))
        phases = np.angle(amplitudes)
        return cls(tuple(levels), tuple(log_mags.tolist()), tuple(phases.tolist()),
                   normalized_flag)

    def energies(self):
        """The level energies, a numpy float array."""
        return np.array(self.levels, float)

    def amplitudes(self, log_shift: float = 0.0):
        """Complex amplitudes scaled by exp(-log_shift), a numpy array.

        Pass the log norm (or the max log magnitude) as ``log_shift`` when
        the raw amplitudes would underflow.
        """
        lm = np.asarray(self.log_magnitudes) - log_shift
        return np.exp(lm) * np.exp(1j * np.asarray(self.phases))

    def normalized(self) -> "SpectralState":
        log_n2 = squared_norm(self)
        lm = tuple(x - 0.5 * log_n2 for x in self.log_magnitudes)
        return SpectralState(self.levels, lm, self.phases, normalized_flag=True)


@_checked
class ObservableMatrix(NamedTuple):
    """Hermitian matrix over a list of energy levels; `entries` is made a
    complex numpy array on construction."""

    basis: tuple[float, ...]
    entries: Any

    def _check(self):
        basis, entries = tuple(self.basis), np.asarray(self.entries, dtype=complex)
        if basis is not self.basis or entries is not self.entries:
            return self._replace(basis=basis, entries=entries)
        n = len(basis)
        if not all(map(math.isfinite, basis)):
            raise DomainError("basis must be finite")
        if entries.shape != (n, n):
            raise DomainError(f"entries must be {n}x{n}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise DomainError("entries must be finite")
        scale = max(1.0, float(np.abs(entries).max()))
        if np.abs(entries - entries.conj().T).max() > 1e-12 * scale:
            raise DomainError("entries must be Hermitian to 1e-12")

    @classmethod
    def identity(cls, basis):
        return cls(tuple(basis), np.eye(len(tuple(basis))))

    @classmethod
    def hamiltonian(cls, basis):
        basis = tuple(basis)
        return cls(basis, np.diag(basis).astype(complex))

    @classmethod
    def energy_projector(cls, basis, energy):
        basis = tuple(basis)
        diag = [1.0 if e == energy else 0.0 for e in basis]
        return cls(basis, np.diag(diag).astype(complex))


@_checked
class DiscreteSpectrum(NamedTuple):
    """Unity-normalized probability weights over strictly increasing energies,
    both kept as tuples of floats."""

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
        if not all(type(x) is tuple and all(type(v) is float for v in x) for x in self):
            return self._make((e, w))  # the values read, itself checked

    def as_arrays(self):
        return np.asarray(self.energies, float), np.asarray(self.weights, float)


def squared_norm(state: SpectralState) -> float:
    """Log of the squared norm of a state: the log-sum-exp
    (`collapse_lab._log_sum_exp`) of twice the component log magnitudes,
    finite where the squared norm itself underflows to zero."""
    return _log_sum_exp(2.0 * lm for lm in state.log_magnitudes)


def expectation(state: SpectralState, obs: ObservableMatrix) -> float:
    """Normalized expectation value <psi|A|psi>/<psi|psi>.

    The imaginary part must vanish (A is Hermitian); it is asserted below
    1e-10 relative and dropped.
    """
    if obs.basis != state.levels:
        raise DomainError("observable basis does not match state levels")
    log_n2 = squared_norm(state)
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
    log_n2 = squared_norm(state)
    if log_n2 == NEG_INF:
        raise DomainError("zero-norm state")
    weights: dict[float, float] = {}
    for e, lm in zip(state.levels, state.log_magnitudes):
        w = math.exp(2.0 * lm - log_n2)
        weights[e] = weights.get(e, 0.0) + w
    energies = sorted(weights)
    w = np.array([weights[e] for e in energies])
    w = w / w.sum()  # renormalize away rounding from the per-level exps
    return DiscreteSpectrum(tuple(energies), tuple(float(x) for x in w))
