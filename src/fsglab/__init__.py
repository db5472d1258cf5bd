"""Friends-and-strangers graph laboratory: state spaces over label
arrangements, orientation-class predictors for their components, and the
verification harnesses that keep the two in agreement."""

__version__ = "0.1.0"

from .graphs import (
    CliquePartition,
    MultiplicityGraph,
    SimpleGraph,
    articulation_analysis,
    bipartition,
    complement,
    complete_bipartite_graph,
    complete_graph,
    contingency_count,
    cycle_graph,
    cyclic_order_count,
    edgeless_graph,
    find_k_bridges,
    graph_from_json_dict,
    graph_to_json_dict,
    is_theta0,
    is_wilsonian,
    lift,
    path_graph,
    star_graph,
    theta0,
    wilson_star_components,
)
from .statespace import (
    BudgetExceededError,
    ComponentsReport,
    build_components,
    is_exchangeable,
    kbridge_component_invariant,
    parity_audit,
    quotient_audit,
    space_for,
)
from .orientations import (
    ClassPartition,
    Orientation,
    PeriodProfile,
    coprime_forest_connected,
    enumerate_acyc,
    flip,
    induced_orientation,
    linear_extensions,
    partition_by,
    period_of_arrangement,
    period_of_orientation,
    period_profile,
    permutation_class_count,
    predict_cycle_components,
    predict_path_components,
)
from .predictors import (
    Verdict,
    double_multiplicity_bridge_probe,
    predict_multgraph_vs_star,
    predict_star_vs_multgraph,
    small_support_connectivity,
    verify_family,
)
from .randomlab import (
    ExperimentConfig,
    balance_arrangement,
    find_packing,
    run_sweep,
    sample_bipartite,
    sample_gnp,
)
