"""twistkit: nonparaxial Bessel-mode electromagnetic fields and
atom-photon transition matrix elements with full angular-momentum
bookkeeping.

Modules
-------
specfun
    Bessel J of every integer order, Laguerre, Gegenbauer and
    hypergeometric evaluations with convergence tracking.
fields
    TE/TM/L/R Bessel modes: vector potential, electric and magnetic
    fields, circular-basis decompositions.
expansion
    The addition-theorem expansion of a vortex profile about a displaced
    center, and its first-order two-displacement bracket.
matrix_elements
    Center-of-mass and internal matrix elements (free recoil integrals
    by Graf's closed form where the orders allow, else body plus tail),
    selection-rule channel tables, spin couplings, and
    candidate-closed-form comparisons.
quadrature
    Adaptive Gauss-Kronrod panels, semi-infinite oscillatory
    integration (body plus closed-form tail), finite-difference vector
    operators.
cli
    The ``twistkit`` command-line interface.
"""

from .errors import (
    ConvergenceError,
    InvalidArgumentError,
    SingularConfigurationError,
    SingularNormalizationError,
    TwistkitError,
)
from .fields import CylPoint, FieldSample, ModeKind, ModeSpec
from .matrix_elements import (
    CenterOfMassState,
    Channel,
    ChannelAmplitude,
    DipoleCouplings,
    InternalState,
    SpinParticle,
    TermOrder,
)

__version__ = "1.0.0"

__all__ = [
    "CenterOfMassState",
    "Channel",
    "ChannelAmplitude",
    "ConvergenceError",
    "CylPoint",
    "DipoleCouplings",
    "FieldSample",
    "InternalState",
    "InvalidArgumentError",
    "ModeKind",
    "ModeSpec",
    "SingularConfigurationError",
    "SingularNormalizationError",
    "SpinParticle",
    "TermOrder",
    "TwistkitError",
    "__version__",
]
