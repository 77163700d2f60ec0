"""Rough-set rule induction over discretized gas data, with equal frequency
binning or an ant-colony search for the cut points."""

from . import aco, data, discretize, metrics, roughset, synth
from .aco import *
from .data import *
from .discretize import *
from .metrics import *
from .roughset import *
from .synth import *

# each public name is declared once, in the __all__ of the module that defines it
__all__ = sorted(name for module in (aco, data, discretize, metrics, roughset, synth) for name in module.__all__)

__version__ = "0.1.0"
