"""Coefficient-bound toolkit for two families of bi-univalent functions.

Provides truncated series as coefficient arrays with reversion, a
positive-real-part atom sampler with prefix admissibility tests, the class
operator and its coefficient-equating systems, closed-form |a2| and |a3|
bounds with branch bookkeeping, corollary-reduction identity checks, and a
randomized falsification harness with a CLI.

It exports each layer module's ``__all__``, the one list of its public names.
"""

from . import bounds, caratheodory, harness, operators, series
from .series import *
from .caratheodory import *
from .operators import *
from .bounds import *
from .harness import *

__version__ = "0.1.0"

__all__ = (series.__all__ + caratheodory.__all__ + operators.__all__
           + bounds.__all__ + harness.__all__)
