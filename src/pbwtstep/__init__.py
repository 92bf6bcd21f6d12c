"""Run-length compressed multi-allelic PBWT with constant-time stepping.

Builds per-column sub-run partitions whose forward/backward images obey a
three-overlap constraint, yielding O(total runs)-word tables that step a
(row, sub-run) pair between adjacent columns in O(1) and can be chained.
On top of that: prefix search (longest shared prefix, count, witness,
sorted-interval and enumeration variants, arbitrary-length rows via a
terminator) and whole-haplotype retrieval without the panel.
"""

from .bounds import BoundsReport, adjacent_distinct_pairs, canonical_intervals, check_bounds
from .io import IndexFile, IndexFormatError, build_index, load_index, load_panel, save_index
from .panel import Panel, PanelError, validate_panel
from .pbwt import PbwtColumns, build_pbwt, extract_runs
from .prefixsearch import PrefixSearchIndex
from .retrieval import RetrievalIndex
from .stepindex import StepIndex, build_step_index
from .subruns import build_back_subruns, build_fore_subruns, fore_image, normalize

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "adjacent_distinct_pairs", "canonical_intervals", "check_bounds",
    "IndexFile", "IndexFormatError", "build_index", "load_index", "load_panel",
    "save_index", "Panel", "PanelError", "validate_panel", "PbwtColumns",
    "build_pbwt", "extract_runs", "PrefixSearchIndex", "RetrievalIndex",
    "StepIndex", "build_step_index", "build_back_subruns", "build_fore_subruns", "fore_image",
    "normalize", "__version__",
]
