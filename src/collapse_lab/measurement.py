"""Two-branch superpositions with identical energy spectra.

A position-type measurement leaves the macroscopic branches with exactly the
same energy spectrum (only the phases differ), so the collapse dynamics,
which weights amplitudes by a phase-blind Gaussian in energy, can never
change the branch weight ratio.  The fixture files encode the shared
magnitudes and the per-branch phases; a control fixture with unequal
magnitudes shows what collapse sensitivity would look like.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _checked
from .engine import CollapseParams, collapse_exponent
from .hilbert import DomainError, EnergyLevel, SpectralState

__all__ = [
    "BranchSpec",
    "build_branches",
    "branch_weight_ratio",
    "load_branch_fixture",
    "fixture_path",
]

#: cap on the (point, level) temporaries of a `branch_weight_ratio` block (64 MiB)
_BLOCK_BYTES = 2**26


@_checked
class BranchSpec(NamedTuple):
    """Levels and per-branch phases of a two-branch superposition.

    ``magnitudes`` is shared by both branches (the no-collapse hypothesis);
    a control spec may supply ``magnitudes_2`` to break it deliberately.
    """

    energies: tuple[float, ...]
    magnitudes: tuple[float, ...]
    phases_1: tuple[float, ...]
    phases_2: tuple[float, ...]
    beta_1: complex
    beta_2: complex
    magnitudes_2: tuple[float, ...] | None = None

    def _check(self):
        n = len(self.energies)
        if not (len(self.magnitudes) == len(self.phases_1) == len(self.phases_2) == n):
            raise DomainError("energies, magnitudes and phase lists must align")
        if self.magnitudes_2 is not None and len(self.magnitudes_2) != n:
            raise DomainError("magnitudes_2 length mismatch")
        if any(m < 0 for m in self.magnitudes):
            raise DomainError("magnitudes must be nonnegative")
        if abs(abs(self.beta_1) ** 2 + abs(self.beta_2) ** 2 - 1.0) > 1e-12:
            raise DomainError("|beta_1|^2 + |beta_2|^2 must equal 1")

    @property
    def shared_spectrum(self) -> bool:
        return self.magnitudes_2 is None

    @property
    def branch_2_magnitudes(self) -> tuple[float, ...]:
        return self.magnitudes if self.magnitudes_2 is None else self.magnitudes_2


def _levels(energies):
    # repeated energies get consecutive degeneracy labels
    counts: dict[float, int] = {}
    levels = []
    for e in energies:
        j = counts.get(e, 0)
        counts[e] = j + 1
        levels.append(EnergyLevel(float(e), j))
    return tuple(levels)


def build_branches(spec: BranchSpec) -> tuple[SpectralState, SpectralState]:
    """States of the two branches (unnormalized, amplitudes m*exp(i*theta))."""
    levels = _levels(spec.energies)
    mags_2 = spec.branch_2_magnitudes
    amps_1 = np.asarray(spec.magnitudes) * np.exp(1j * np.asarray(spec.phases_1))
    amps_2 = np.asarray(mags_2) * np.exp(1j * np.asarray(spec.phases_2))
    return (
        SpectralState.from_amplitudes(levels, amps_1),
        SpectralState.from_amplitudes(levels, amps_2),
    )


def branch_weight_ratio(spec: BranchSpec, params: CollapseParams, t, B):
    """|beta_2|^2 ||Psi2_B||^2 / (|beta_1|^2 ||Psi1_B||^2) after collapse.

    For shared-spectrum branches this equals |beta_2|^2/|beta_1|^2 for every
    (t, B): there is no collapse between the branches.  Broadcasts over t
    and B, in blocks of (t, B) points whose temporaries, 32 bytes a point and
    level, fit _BLOCK_BYTES.  Each log norm is a log-sum-exp over levels of
    2*(log m + dlog), dlog being `engine.collapse_exponent`.
    """
    if spec.beta_1 == 0:
        raise DomainError("beta_1 = 0: ratio undefined")
    t, B = np.broadcast_arrays(np.asarray(t, float), np.asarray(B, float))
    if not (np.isfinite(t).all() and np.isfinite(B).all() and (t >= 0).all()):
        raise DomainError("t and B must be finite and t >= 0")
    n = max(1, _BLOCK_BYTES // (32 * len(spec.energies)))
    if t.size > n:  # the ratios of blocks of n points, in C order
        return np.concatenate([branch_weight_ratio(spec, params, t.flat[i:i + n],
                                                   B.flat[i:i + n])
                               for i in range(0, t.size, n)]).reshape(t.shape)
    dlog2 = 2.0 * collapse_exponent(params, t[..., None], B[..., None], spec.energies)

    def log_norm2(mags):
        m = np.abs(np.asarray(mags, float))
        if not m.any():
            raise DomainError("each branch needs a nonzero magnitude")
        # a zero magnitude is log m = -inf, taken without evaluating log(0)
        x = dlog2 + 2.0 * np.log(m, where=m > 0, out=np.full_like(m, -np.inf))
        x_max = x.max(axis=-1)
        return x_max + np.log(np.exp(x - x_max[..., None]).sum(axis=-1))

    w = abs(spec.beta_2) ** 2 / abs(spec.beta_1) ** 2
    return w * np.exp(log_norm2(spec.branch_2_magnitudes) - log_norm2(spec.magnitudes))


# --- fixture files ---------------------------------------------------------
#
# Text format, one line per level, whitespace separated:
#     energy  magnitude  theta_1  theta_2  [magnitude_2]
# Header lines starting with '#' may carry beta weights as
#     # beta2_1 <float>   /  # beta2_2 <float>
# (squared moduli; phases of beta are irrelevant to every ratio).


def load_branch_fixture(path) -> BranchSpec:
    """Parse a fixture file.  Raises DomainError (ValueError for a non-number)
    for a non-finite value, beta2_1 <= 0 or beta2_2 < 0, and a branch whose
    magnitudes are all zero, so the ratio is defined for every spec it returns."""
    energies, mags, th1, th2, mags2 = [], [], [], [], []
    beta2_1 = beta2_2 = 0.5
    has_m2 = False
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "beta2_1":
                beta2_1 = float(parts[1])
            elif len(parts) == 2 and parts[0] == "beta2_2":
                beta2_2 = float(parts[1])
            continue
        cols = [float(x) for x in line.split()]
        if len(cols) not in (4, 5):
            raise DomainError(f"fixture line needs 4 or 5 columns: {raw!r}")
        energies.append(cols[0])
        mags.append(cols[1])
        th1.append(cols[2])
        th2.append(cols[3])
        if len(cols) == 5:
            has_m2 = True
            mags2.append(cols[4])
    if has_m2 and len(mags2) != len(mags):
        raise DomainError("magnitude_2 column must be present on every line")
    if not all(map(math.isfinite, [*energies, *mags, *th1, *th2, *mags2,
                                   beta2_1, beta2_2])):
        raise DomainError("fixture values must be finite")
    if not (beta2_1 > 0 and beta2_2 >= 0):
        raise DomainError(f"need beta2_1 > 0 and beta2_2 >= 0, got {beta2_1}, {beta2_2}")
    if not any(mags) or (has_m2 and not any(mags2)):
        raise DomainError("each branch needs a nonzero magnitude")
    total = beta2_1 + beta2_2
    return BranchSpec(
        tuple(energies),
        tuple(mags),
        tuple(th1),
        tuple(th2),
        complex(math.sqrt(beta2_1 / total)),
        complex(math.sqrt(beta2_2 / total)),
        tuple(mags2) if has_m2 else None,
    )


def fixture_path(name: str) -> Path:
    """Path of a packaged fixture, e.g. 'branch_shared.txt'."""
    return Path(resources.files("collapse_lab").joinpath("fixtures", name))
