"""Exact and Monte Carlo Hilbert-Schmidt volumes of mixing channels built
from mutually unbiased bases, together with the channel-class predicates
(positivity, complete positivity, generator reachability, entanglement
breaking) they measure.

The package root exports what the README's library section uses; every
other name is imported from its submodule."""

from .channel import ChannelSpec, is_cp
from .geometry import SurdValue
from .mub import apply, build_weyl_mubs, choi_state, unitaries_from_bases
from .regions import ChamberSet, chambers, p_box
from .volume import check_conjectures, class_volume, mc_volume, region_for, supported_n_values

__version__ = "0.1.0"

__all__ = [
    "ChamberSet",
    "ChannelSpec",
    "SurdValue",
    "apply",
    "build_weyl_mubs",
    "chambers",
    "check_conjectures",
    "choi_state",
    "class_volume",
    "is_cp",
    "mc_volume",
    "p_box",
    "region_for",
    "supported_n_values",
    "unitaries_from_bases",
    "__version__",
]
