"""Exact and Monte Carlo Hilbert-Schmidt volumes of mixing channels built
from mutually unbiased bases, together with the channel-class predicates
(positivity, complete positivity, generator reachability, entanglement
breaking) they measure.

The package root exports the names the README's library example and the
benchmark harness import; every other name is imported from its submodule.
"""

from .channel import ChannelSpec, is_cp
from .volume import check_conjectures, class_volume, mc_volume, supported_n_values

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "check_conjectures",
    "class_volume",
    "is_cp",
    "mc_volume",
    "supported_n_values",
    "__version__",
]
