"""Adaptive wavelet density estimation for weakly dependent time series."""

from .wavelet_basis import *
from .estimator import *
from .cross_validation import *
from .processes import *
from .baseline_kernel import *
from .risk_metrics import *

__version__ = "0.1.0"
