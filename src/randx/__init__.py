"""randx: a numerical laboratory for spot-checking randomness expansion.

Models untrusted quantum devices and the games used to certify them,
computes Schatten-bracket scores and randomness measures, rate curves and
min-entropy bounds, simulates the spot-checking generation protocol, and
verifies the underlying norm inequalities by direct computation.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    catalog,
    classicaloracle,
    convexity,
    devicemodel,
    gamedefs,
    matcore,
    protocol,
    scoring,
)
from .convexity import (  # noqa: F401
    check_binary_disturbance,
    check_chain_disturbance,
    check_uniform_convexity,
)
from .devicemodel import Device, validate_device  # noqa: F401
from .gamedefs import Game  # noqa: F401
from .protocol import (  # noqa: F401
    ProtocolParams,
    entropy_lower_bound,
    enumerate_success_state,
    extractable_bits,
    hmin_classical_adversary,
    simulate,
)
from .scoring import (  # noqa: F401
    eps_randomness,
    eps_score,
    quadratic_rate_curve,
    weighted_randomness,
)
