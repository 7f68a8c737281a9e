"""omegalab: a desk-scale laboratory for the arithmetic of omega(n) = the
number of distinct prime factors, organised around certified enclosures of
the series sum omega(n)/t^n and the sieve identities that control it.

Everything computable is computed two ways or bounded with an explicit
certificate: exact rational partial sums with proven tail majorants,
truncated Euler products with tail bounds, searches that return
re-checkable witnesses, and quadratures cross-checked against an
independent integrator.
"""

from . import brun, errors, linforms, params, series, sieve, tuples, window
from .brun import *
from .errors import *
from .linforms import *
from .params import *
from .series import *
from .sieve import *
from .tuples import *
from .window import *

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of its own module
__all__ = sorted(
    name for mod in (brun, errors, linforms, params, series, sieve, tuples, window) for name in mod.__all__
)
