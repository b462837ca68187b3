"""Two-branch superpositions with identical energy spectra.

A position-type measurement leaves the macroscopic branches with exactly the
same energy spectrum (only the phases differ), so the collapse dynamics,
which weights amplitudes by a phase-blind Gaussian in energy, can never
change the branch weight ratio.  The fixture files encode the shared
magnitudes and the per-branch phases; a control fixture with unequal
magnitudes shows what collapse sensitivity would look like.

The ratio is computed in `math`, one (t, B) point a call: the module imports
`hilbert` only in `build_branches`, which makes the branch states.
"""

from __future__ import annotations

import cmath
import functools
import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from . import (_CLOSED_ROW_BYTES, ConfigError, DomainError, Experiment, _checked, _grid,
               _int_pos, _log_sum_exp, _n_grid, _positive)
from . import _np as np
from .engine import CollapseParams, collapse_exponent

__all__ = [
    "BranchSpec",
    "build_branches",
    "branch_weight_ratio",
    "load_branch_fixture",
    "fixture_path",
]

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
        if not all(map(cmath.isfinite, (*self.energies, *self.magnitudes, *self.phases_1,
                                        *self.phases_2, self.beta_1, self.beta_2,
                                        *(self.magnitudes_2 or ())))):
            raise DomainError("energies, magnitudes, phases and betas must be finite")
        for mags in self.magnitudes, self.branch_2_magnitudes:
            if any(m < 0 for m in mags):
                raise DomainError("magnitudes must be nonnegative")
            if not any(mags):
                raise DomainError("each branch needs a nonzero magnitude")
        if abs(abs(self.beta_1) ** 2 + abs(self.beta_2) ** 2 - 1.0) > 1e-12:
            raise DomainError("|beta_1|^2 + |beta_2|^2 must equal 1")

    @property
    def shared_spectrum(self) -> bool:
        return self.magnitudes_2 is None

    @property
    def branch_2_magnitudes(self) -> tuple[float, ...]:
        return self.magnitudes if self.magnitudes_2 is None else self.magnitudes_2


def build_branches(spec: BranchSpec):
    """The two branches' `hilbert.SpectralState`s (unnormalized, amplitudes
    m*exp(i*theta))."""
    from .hilbert import SpectralState
    mags_2 = spec.branch_2_magnitudes
    amps_1 = np.asarray(spec.magnitudes) * np.exp(1j * np.asarray(spec.phases_1))
    amps_2 = np.asarray(mags_2) * np.exp(1j * np.asarray(spec.phases_2))
    return (
        SpectralState.from_amplitudes(spec.energies, amps_1),
        SpectralState.from_amplitudes(spec.energies, amps_2),
    )


@functools.lru_cache(maxsize=8)
def _twice_log_magnitudes(mags: tuple[float, ...]) -> tuple[float, ...]:
    """2*log m of each magnitude, a zero one -inf without evaluating log(0);
    computed once per branch of a spec, not once per (t, B) point."""
    return tuple(2.0 * math.log(m) if m else -math.inf for m in mags)


def branch_weight_ratio(spec: BranchSpec, params: CollapseParams, t: float,
                        B: float) -> float:
    """|beta_2|^2 ||Psi2_B||^2 / (|beta_1|^2 ||Psi1_B||^2) after collapse.

    For shared-spectrum branches this equals |beta_2|^2/|beta_1|^2 for every
    (t, B): there is no collapse between the branches.  One point a call;
    each log norm is the package's log-sum-exp (`collapse_lab._log_sum_exp`)
    over levels of 2*(log m + dlog), dlog being `engine.collapse_exponent`.
    """
    if spec.beta_1 == 0:
        raise DomainError("beta_1 = 0: ratio undefined")
    t, B = float(t), float(B)
    if not (math.isfinite(t) and math.isfinite(B) and t >= 0):
        raise DomainError("t and B must be finite and t >= 0")
    dlog2 = [2.0 * collapse_exponent(params, t, B, e) for e in spec.energies]
    log_n1, log_n2 = (
        _log_sum_exp(d + lm for d, lm in zip(dlog2, _twice_log_magnitudes(tuple(mags))))
        for mags in (spec.magnitudes, spec.branch_2_magnitudes))
    w = abs(spec.beta_2) ** 2 / abs(spec.beta_1) ** 2
    return w * math.exp(log_n2 - log_n1)


# --- fixture files ---------------------------------------------------------
#
# Text format, one line per level, whitespace separated:
#     energy  magnitude  theta_1  theta_2  [magnitude_2]
# Header lines starting with '#' may carry beta weights as
#     # beta2_1 <float>   /  # beta2_2 <float>
# (squared moduli; phases of beta are irrelevant to every ratio).


def load_branch_fixture(path) -> BranchSpec:
    """Parse a fixture file.  Raises DomainError (ValueError for a non-number)
    for beta2_1 <= 0 or beta2_2 < 0, and for every spec `BranchSpec` refuses
    (a non-finite value, a negative magnitude, a branch whose magnitudes are
    all zero), so the ratio is defined for every spec it returns."""
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
    if not (beta2_1 > 0 and beta2_2 >= 0):
        raise DomainError(f"need beta2_1 > 0 and beta2_2 >= 0, got {beta2_1}, {beta2_2}")
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


# --- the CLI's measurement experiment ---------------------------------------


def _build_measurement(p):
    """The branch fixture at path `fixture`, else the packaged one of that
    name, and the collapse parameters."""
    name = p["fixture"]
    path = Path(name)
    if not path.is_file():
        path = fixture_path(name)
    try:
        spec = load_branch_fixture(path)
    except OSError as exc:
        raise ConfigError(f"key 'fixture': no file or packaged fixture {name!r}") from exc
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"invalid value for key 'fixture': {exc}") from exc
    return spec, CollapseParams(p["lambda"])


def _measurement_bytes(p, model):
    # the table, then one point's ratio temporaries and the two branches'
    # cached 2*log m: four floats a level with their list or tuple entries,
    # 129 bytes under tracemalloc at 2e4 levels, charged as 136
    points = p["n_t"] * p["n_b"]
    return {"'n_t' x 'n_b'": _CLOSED_ROW_BYTES * points + 136 * len(model[0].energies)}


def _run_measurement(cfg):
    p, (spec, params) = cfg.parameters, cfg.model
    cols = ["t (time)", "B (record)", "weight_ratio (dimensionless)"]
    bs = _grid(-p["b_max"], p["b_max"], p["n_b"])
    table = [(t, b, branch_weight_ratio(spec, params, t, b))
             for t in _grid(p["t_max"] / p["n_t"], p["t_max"], p["n_t"]) for b in bs]
    lo, hi = min(row[2] for row in table), max(row[2] for row in table)
    summary = {"shared_spectrum": spec.shared_spectrum, "ratio_min": lo, "ratio_max": hi,
               "ratio_spread_rel": hi / lo - 1.0}
    return cols, table, summary


EXPERIMENTS = {"measurement": Experiment(
    {"fixture": (str, True, None),
     "lambda": (_positive, True, None),
     "t_max": (_positive, True, None),
     "n_t": (_int_pos, False, 20),
     "b_max": (_positive, True, None),
     "n_b": (_n_grid, False, 20)},
    build=_build_measurement, array_bytes=_measurement_bytes, run=_run_measurement)}
