"""Exact solver and verifier for Pareto efficient, envy-free lotteries."""

from .errors import (
    EngineInvariantError,
    EnumerationLimitError,
    FairmixError,
    MalformedInstanceError,
    PreconditionError,
)
from .model import (
    AllocationSet,
    Instance,
    MixedAllocation,
    PureAllocation,
    UtilityProfile,
    WeightVector,
    all_partitions_allocation_set,
    expected_utility,
    is_swappable,
    normalize_utilities,
    swap_closure,
)
from .lp import project_onto_truncated_simplex
from .envy import (
    Certificate,
    EfCheck,
    EnvyGraph,
    PeCheck,
    build_envy_graph,
    certify,
    check_envy_free,
    check_pareto_efficient,
    is_acyclic,
)
from .engine import (
    FixedPointState,
    argmax_allocations,
    choose_epsilon,
    compute_rho,
    find_fixed_point,
    select_p_in_P,
    varpi,
)
from .hard import (
    CertifiedOutcome,
    DichotomyReport,
    DisjointnessInput,
    build_hard_instance,
    check_submodular,
    enumerate_splits,
    hard_utility_tables,
    split_count,
    verify_welfare_dichotomy,
)
from .serialize import (
    dump_certificate,
    dump_dichotomy_report,
    dump_instance,
    dump_mixed_allocation,
    dump_solve_result,
    dump_trace_record,
    envy_graph_to_dot,
    format_rational,
    load_instance,
    load_mixed_allocation,
)

__version__ = "0.1.0"
