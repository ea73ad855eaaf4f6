"""technet: autocatalytic structure detection in temporal technology networks.

The pipeline turns (family, year, region, code) event data into, per year
pair: an occurrence matrix, its RCA presence matrix, the lagged assist
network, null-model link p-values, the FDR-filtered directed network, its
autocatalytic core/periphery decomposition, and fitness/variety/mixing
statistics.
"""

__version__ = "0.1.0"

from .acs import AcsDecomposition, decompose
from .assist import AssistMatrix, HitList, assist_matrix
from .dynamics import estimate_growth_rate, simulate_linear
from .fdr import TechnologyNetwork, build_adjacency
from .hierarchy import CodeHierarchy
from .ingest import (
    OccurrenceMatrix,
    ParseResult,
    build_occurrence_matrix,
    parse_events,
)
from .nullmodel import (
    BicmParameters,
    PvalueMatrix,
    exceedance_counts,
    fit_bicm,
    pvalues_from_counts,
    sample_null_matrix,
)
from .pipeline import RunConfig, run_pipeline
from .rca import PresenceMatrix, binarize_rca
from .stats import (
    fit_noncentral_weights,
    section_mixing,
    section_occupancy,
    subset_fitness,
    variety_llr,
)
from .synth import SynthConfig, generate_events

__all__ = [
    "AcsDecomposition",
    "AssistMatrix",
    "BicmParameters",
    "CodeHierarchy",
    "HitList",
    "OccurrenceMatrix",
    "ParseResult",
    "PresenceMatrix",
    "PvalueMatrix",
    "RunConfig",
    "SynthConfig",
    "TechnologyNetwork",
    "assist_matrix",
    "binarize_rca",
    "build_adjacency",
    "build_occurrence_matrix",
    "decompose",
    "estimate_growth_rate",
    "exceedance_counts",
    "fit_bicm",
    "fit_noncentral_weights",
    "generate_events",
    "parse_events",
    "pvalues_from_counts",
    "run_pipeline",
    "sample_null_matrix",
    "section_mixing",
    "section_occupancy",
    "simulate_linear",
    "subset_fitness",
    "variety_llr",
]
