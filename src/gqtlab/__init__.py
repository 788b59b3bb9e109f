"""Classical laboratory for generalized eigenvalue and singular-value
transformations of block-encoded matrices.

Everything is explicit dense linear algebra: encodings are matrices,
circuits are matrix products, and every construction is checked against an
independent eigendecomposition or SVD oracle.  The package re-exports the
``__all__`` of each library module; that list is the public surface.
"""

from . import bounds, encodings, phases, polynomials, serialization, transforms
from .bounds import *
from .encodings import *
from .phases import *
from .polynomials import *
from .serialization import *
from .transforms import *

__all__ = [name for mod in (polynomials, phases, serialization, encodings,
                            transforms, bounds)
           for name in mod.__all__]

__version__ = "0.1.0"
