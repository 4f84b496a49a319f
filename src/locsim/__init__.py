"""locsim: locally simultaneous inference.

Selective confidence intervals that pay a simultaneous correction only over
the targets that could plausibly have been selected given the observed
data, with an error budget split between screening and inference.

The package exports every name in its modules' ``__all__`` lists.
"""

from . import erm, experiments, lasso, lp, sphere, stats_core, theory_core, winner
from .stats_core import *
from .theory_core import *
from .winner import *
from .lp import *
from .lasso import *
from .erm import *
from .sphere import *
from .experiments import *

__all__ = [name for module in (stats_core, theory_core, winner, lp, lasso, erm,
                               sphere, experiments)
           for name in module.__all__]

__version__ = "0.1.0"
