"""Multi-user computation offloading games for edge clouds.

A simulation library for the decision problem faced by mobile users sharing
a few uplink channels to an edge cloud: compute a task on the device, or
offload it and live with whatever rate the co-channel crowd leaves you.
The package provides the closed-form cost model, the underlying potential
game, a slotted distributed best-response algorithm with full traces,
exhaustive and cross-entropy baselines, and worst-case efficiency metrics.
"""

from ._version import __version__
from .model import *
from .game import *
from .dco import *
from .baselines import *
from .metrics import *
from .scenario import *
from .errors import *

# each public name is declared once, in its module's __all__
__all__ = ["__version__"] + (
    model.__all__
    + game.__all__
    + dco.__all__
    + baselines.__all__
    + metrics.__all__
    + scenario.__all__
    + errors.__all__
)
