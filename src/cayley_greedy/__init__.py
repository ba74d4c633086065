"""Greedy independent sets on uniform random labeled trees.

Peeling explorations of rooted trees, the status Markov chain of the greedy
construction, its exact outcome law, the deterministic fluid limit, and
seeded Monte Carlo verification of the limit statements.
"""

from .fluid import (
    clt_constants,
    covariance_matrix,
    discrete_step_covariance,
    t_star,
)
from .greedy import (
    GreedyLaw,
    GreedyOutcome,
    VertexStatus,
    enumeration_law,
    exact_chain_law,
    greedy_matching,
    greedy_peeling,
    max_independent_set,
    simulate_status_chain_many,
    verify_symmetry_exact,
)
from .peeling import (
    ForestState,
    PeelStep,
    SmallestLabelRule,
    UniformRule,
    count_containing_trees,
    first_branch_law,
    first_branch_length,
    peel_fixed_tree,
    peel_markov,
)
from .stats import (
    DEFAULT_SEED,
    EmpiricalDistribution,
    ExperimentReport,
    chi_square_uniform,
    clt_experiment,
    ks_gaussian,
    symmetry_experiment_mc,
    total_variation,
    tree_sweep_experiment,
)
from .trees import (
    CayleyTree,
    RandomSource,
    aldous_broder_sample,
    enumerate_all,
    pitman_sample,
    pitman_sample_rooted,
    prufer_decode,
    sample_uniform,
    tree_count,
)

__version__ = "0.1.0"
