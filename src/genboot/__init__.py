"""Bootstrap-based generalization estimation for discovered process models.

The package measures how well a discovered model generalizes beyond the
log it was discovered from: replicate logs are resampled from the observed
log (optionally enriched by crossover breeding of traces), and the model
is scored against each replicate with entropy-based precision and recall.
"""

from .automata import (
    Dfa,
    Dfg,
    accepts,
    dfg_to_dfa,
    intersect,
    is_stable,
    log_to_dfa,
    minimize,
    prefix_tree_acceptor,
    trim,
)
from .bootstrap import (
    EstimatorSpec,
    GeneralizationEstimate,
    aggregate,
    bootstrap_generalization,
)
from .core import (
    EventLog,
    Trace,
    prefix,
    subtrace,
    suffix,
)
from .discovery_sim import DiscoveryConfig, WalkConfig, discover_dfg, simulate_log
from .entropy import (
    EntropyValue,
    growth_oracle,
    log_entropy,
    log_measures,
    model_system_measures,
    topological_entropy,
)
from .errors import (
    AllFiltered,
    EmptyData,
    EmptyLanguage,
    EmptyLog,
    GenbootError,
    InvalidSite,
    NoConvergence,
    OutOfBounds,
    ParseError,
    RetryExhausted,
    Unreachable,
    WorkerDied,
    ZeroDenominator,
)
from .formats import bundled_path, read_dfg, read_log
from .sampling import (
    BreedingSite,
    SamplerConfig,
    breeding_sites,
    crossover,
    log_breeding,
    sample_with_breeding,
    sample_with_replacement,
)

__version__ = "0.1.0"

__all__ = [
    "AllFiltered",
    "BreedingSite",
    "Dfa",
    "Dfg",
    "DiscoveryConfig",
    "EmptyData",
    "EmptyLanguage",
    "EmptyLog",
    "EntropyValue",
    "EstimatorSpec",
    "EventLog",
    "GeneralizationEstimate",
    "GenbootError",
    "InvalidSite",
    "NoConvergence",
    "OutOfBounds",
    "ParseError",
    "RetryExhausted",
    "SamplerConfig",
    "Trace",
    "Unreachable",
    "WalkConfig",
    "WorkerDied",
    "ZeroDenominator",
    "accepts",
    "aggregate",
    "bootstrap_generalization",
    "breeding_sites",
    "bundled_path",
    "crossover",
    "dfg_to_dfa",
    "discover_dfg",
    "growth_oracle",
    "intersect",
    "is_stable",
    "log_breeding",
    "log_entropy",
    "log_measures",
    "log_to_dfa",
    "minimize",
    "model_system_measures",
    "prefix",
    "prefix_tree_acceptor",
    "read_dfg",
    "read_log",
    "sample_with_breeding",
    "sample_with_replacement",
    "simulate_log",
    "subtrace",
    "suffix",
    "topological_entropy",
    "trim",
]
