"""Continuous-time Bayesian networks for cascading event systems.

Model interacting on/off processes with conditional intensity matrices,
simulate whole ensembles of them by the direct method, rank candidate sentry states
via expected discounted transition counts, answer conditional-independence
queries from the dependence graph, and score the naive cascade-counting
baseline against the discounted ranking.
"""

from .model import (
    Cim,
    CtbnModel,
    DEFAULT_STATE_CAP,
    DENSE_BYTES_CAP,
    InvalidModelError,
    ProcessSpec,
    StateSpaceCapError,
    StateSpaceGraph,
    Violation,
    active_alarm_count,
    amalgamate,
    ancestral_subprocess,
    build_replicator_ctbn,
    build_state_space_graph,
    ctbn_graph,
    enumerate_states,
    intensity_matrix,
    load_model,
    local_rate,
    low_activity_states,
    model_from_json_dict,
    model_to_dot,
    model_to_json_dict,
    require_valid,
    save_model,
    state_from_index,
    state_index,
    state_space_to_dot,
    transient_distribution,
    validate_model,
)
from .graphs import (
    DiGraph,
    GraphPartition,
    PartitionSeparationCertificate,
    SccIndependenceCertificate,
    SeparationCertificate,
    UGraph,
    ancestors,
    closure,
    condensation,
    ctbn_independent,
    descendants,
    digraph_to_dot,
    graph_partition,
    induced_subgraph,
    is_ancestral,
    moralize,
    nonadjacent_scc_independence,
    parents,
    partition_independent,
    partition_to_dot,
    separated,
    strongly_connected_components,
    ugraph_to_dot,
)
from .simulate import (
    Ensemble,
    SimulationConfig,
    Trajectory,
    derive_seed,
    read_ensemble_csv,
    read_trajectory_csv,
    sample_ensemble,
    sample_trajectory,
    state_at,
    write_ensemble_csv,
    write_trajectory_csv,
)
from .sentry import (
    EdntTable,
    RedntRanking,
    RewardSpec,
    StoppingResult,
    discounted_reward_mc,
    ednt_exact,
    ednt_mc,
    rank_sentry_states,
    rednt,
    stopping_rule_ednt,
    write_sentry_report,
)
from .cascade import (
    CascadeWindow,
    ComparisonResult,
    NaiveParams,
    NaiveScores,
    compare_rednt_vs_naive,
    default_fast_threshold,
    identify_cascades,
    jaccard_at_k,
    naive_scores,
    write_cascade_report,
    write_comparison_report,
    write_naive_scores_report,
)
from .experiments import EXPERIMENTS, ExperimentSpec, experiment_spec, run_experiment

__version__ = "0.1.0"
