"""dictboost: plug a cheap learned model in front of any sorted-set dictionary.

The library splits a sorted u64 key set into intervals (equal-width bins
or epsilon-bounded linear segments) and routes each rank query to its
interval in O(1) or O(log segments).  Both models are one
``IntervalModel``: an interval is a window of the sorted keys, and one
instance of any of the seven dictionary kinds, built over all the windows
of the key set's ``view`` (a read-only ``memoryview`` of its u64 buffer),
answers on it.  A plain build is the same kind over the single window of
that view.  The in-place kinds (``bbs``, ``bfs``, ``is``) hold just the
view; the array layouts (``bfe``, ``bft``) one flat layout and rank list,
``css`` separator levels per window longer than its fanout, and ``splay``
one tree per window.  A dynamic variant keeps the
scheme valid under inserts and deletes with an amortized rebuild policy,
and a per-bin optimal-BST forest gives entropy-bounded expected search
cost for known access distributions.  The ``dictboost`` CLI benchmarks all
of it.
"""

from .binning import BinnedDictionary, bin_index, bin_occupancy, bin_starts, build_binning, pct_to_k
from .core import (
    AccessDistribution,
    DictboostError,
    DistributionError,
    GapStats,
    InvalidKeySetError,
    SearchOutcome,
    SortedKeySet,
    SortedSetDictionary,
    entropy,
    gap_stats,
)
from .dictionaries import (
    BlockTreeSearch,
    BranchyBinarySearch,
    CssTreeSearch,
    EytzingerSearch,
    InterpolationSearch,
    SplayTreeDictionary,
    UniformBinarySearch,
    make_builder,
    parse_dict_specs,
)
from .dynamic import (
    AmortizedReport,
    DynamicBinDict,
    RankOutOfRangeError,
    RebuildLedger,
    RebuildTrigger,
    build_dynamic,
)
from .forest import (
    BstPlan,
    ForestPlan,
    ForestSweep,
    approx_bst,
    bin_weights,
    build_forest,
    optimal_bst,
    optimize_over_k,
)
from .segments import Segment, SegmentedDictionary, build_segments
from .workloads import (
    QueryWorkload,
    gen_clustered,
    gen_queries,
    gen_uniform,
    kl_divergence,
    ks_statistic,
    load_keys,
    save_keys,
    subsample_matching_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "AccessDistribution",
    "AmortizedReport",
    "BinnedDictionary",
    "BlockTreeSearch",
    "BranchyBinarySearch",
    "BstPlan",
    "CssTreeSearch",
    "DictboostError",
    "DistributionError",
    "DynamicBinDict",
    "EytzingerSearch",
    "ForestPlan",
    "ForestSweep",
    "GapStats",
    "InterpolationSearch",
    "InvalidKeySetError",
    "QueryWorkload",
    "RankOutOfRangeError",
    "RebuildLedger",
    "RebuildTrigger",
    "SearchOutcome",
    "Segment",
    "SegmentedDictionary",
    "SortedKeySet",
    "SortedSetDictionary",
    "SplayTreeDictionary",
    "UniformBinarySearch",
    "approx_bst",
    "bin_index",
    "bin_occupancy",
    "bin_starts",
    "bin_weights",
    "build_binning",
    "build_dynamic",
    "build_forest",
    "build_segments",
    "entropy",
    "gap_stats",
    "gen_clustered",
    "gen_queries",
    "gen_uniform",
    "kl_divergence",
    "ks_statistic",
    "load_keys",
    "make_builder",
    "optimal_bst",
    "optimize_over_k",
    "parse_dict_specs",
    "pct_to_k",
    "save_keys",
    "subsample_matching_cdf",
]
