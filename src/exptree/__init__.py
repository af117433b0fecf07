"""Combinatorial Hubbard trees for post-singularly finite exponential maps.

Given the external address of a dynamic ray landing at the singular
value, this package computes the induced kneading sequence, runs the
triod algorithm on itineraries and external addresses, enumerates the
addresses realizing an itinerary, constructs the abstract exponential
Hubbard tree with its sector labels and cyclic orders, and derives
invariants such as core entropy and the same-map equivalence.

The package republishes exactly the names in the ``__all__`` of the
library modules imported below; each module's ``__all__`` is the one
list of its public names.
"""

from . import analysis, errors, partition, realization, sequences, treebuild, triods
from .analysis import *  # noqa: F403
from .errors import *  # noqa: F403
from .partition import *  # noqa: F403
from .realization import *  # noqa: F403
from .sequences import *  # noqa: F403
from .treebuild import *  # noqa: F403
from .triods import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analysis, errors, partition, realization, sequences, treebuild, triods)
    for name in module.__all__
]
