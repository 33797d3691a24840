"""Adversarial combinatorial bandits with general non-linear reward links:
hard-instance synthesis, subset-arm and tensorized learners, and a seeded
experiment harness."""

from .analysis import (
    bernoulli_kl,
    categorical_kl,
    regret_of_run,
    slope_estimate,
    tv_distance,
)
from .core import (
    CapExceededError,
    LinkDomainError,
    LinkFunction,
    LinkRangeError,
    MnlLink,
    PolynomialLink,
    ProblemDims,
    SubsetAction,
    TabulatedLink,
    best_subset,
    expected_reward,
    lift_reward_vector,
    n_subsets,
    rank_subset,
    tensor_features,
    unrank_subset,
)
from .environments import (
    Adversary,
    HardMixtureAdversary,
    MnlChoiceLaw,
    ObliviousAdversary,
    StochasticAdversary,
    bernoulli_feedback,
    delta_schedule,
    kl_coefficient,
    load_utility_schedule,
    mixture_mean_reward,
    mnl_mixture_choice_law,
    mnl_revenue,
    mnl_sample_choice,
)
from .hardinstances import (
    HardInstance,
    HardInstanceReport,
    LpProblem,
    SimplexError,
    comb_identity_residual,
    find_hard_instance,
    identity_battery,
    solve_lp,
    symmetrized_link,
    verify_hard_instance,
)
from .harness import (
    ExperimentConfig,
    RunResult,
    reference_replication,
    run_experiment,
    run_replication,
    run_sweep,
    simulate,
    write_run_csv,
    write_sweep_csv,
)
from .learners import (
    ConstantPolicy,
    DesignWeights,
    Exp2,
    SubsetMab,
    kw_optimal_design,
    tsallis_distribution,
    tsallis_rows,
)

__version__ = "0.1.0"
