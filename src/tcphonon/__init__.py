"""tcphonon: phonon phenomenology of a time-crystal effective field theory.

Two-branch dispersion and canonical Fock amplitudes of the coupled
phase/radial fluctuations, the cubic interaction vertex, and tree-level decay
rates of both quasiparticle branches, with independent brute-force oracles
for quantization (symplectic eigen-decomposition) and phase space
(Monte-Carlo integration).  The public names are each module's __all__.
"""

__version__ = "0.1.0"

from . import eftlimit, model, rates, spectrum, vertex
from .eftlimit import *
from .model import *
from .rates import *
from .spectrum import *
from .vertex import *

__all__ = ["__version__"]
__all__ += eftlimit.__all__
__all__ += model.__all__
__all__ += rates.__all__
__all__ += spectrum.__all__
__all__ += vertex.__all__
