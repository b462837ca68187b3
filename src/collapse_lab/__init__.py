"""collapse-lab: energy-driven wavefunction collapse on finite spectral models.

Simulation and closed-form analysis of the energy-driven collapse process
B(t): nonunitary evolution in the energy basis, exact record-trajectory
sampling, ensemble smearing statistics, the permanent-record bound, and two
worked experiments (a precessing spin and an excitation/decay chain).

Every name in a layer module's ``__all__`` is re-exported here.
"""

from . import decay, engine, ensemble, hilbert, measurement, records, rng, spin
from .hilbert import *  # noqa: F401,F403
from .engine import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .ensemble import *  # noqa: F401,F403
from .records import *  # noqa: F401,F403
from .measurement import *  # noqa: F401,F403
from .spin import *  # noqa: F401,F403
from .decay import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (hilbert, engine, rng, ensemble, records, measurement, spin, decay)
    for name in module.__all__
] + ["__version__"]
