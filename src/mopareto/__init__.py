"""mopareto: exact computation, verification, and minimization of partially
exact approximation sets for explicitly given multiobjective instances.

All arithmetic is exact rational arithmetic; every construction is paired
with an independent verifier that re-checks coverage from the definitions.

The package exports exactly the names in its modules' `__all__` lists.
"""

from .constructors import *
from .dominance import *
from .domsets import *
from .generators import *
from .grid import *
from .model import *
from .numerics import *
from .oracles import *

__version__ = "0.1.0"
