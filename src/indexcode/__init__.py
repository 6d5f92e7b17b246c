"""Finite-field laboratory for error-correcting index codes.

A sender holds a block x of n symbols over GF(q) and broadcasts N coded
symbols to m receivers.  Receiver i already knows the symbols listed in
its side-information set X_i and wants the single symbol f(i).  The
broadcast may be corrupted in up to delta coordinates.  This package
builds, verifies, bounds, searches for, and decodes the linear encoding
matrices L that make every receiver succeed despite the corruption.
"""

from .errors import (
    BudgetExceeded,
    InvalidInstance,
    NotAnIndexCode,
    SpanCapExceeded,
    TooManyErrors,
)
from .fields import (
    Field,
    kernel_basis,
    load_matrix,
    make_field,
    matrix_from_text,
    matrix_to_text,
    rank,
    rref,
    save_matrix,
    solve_affine,
    solve_one,
    span_matrix,
    weight,
)
from .instances import (
    Graph,
    Instance,
    chromatic_number,
    complement,
    generalized_independence_number,
    graph_alpha,
    in_J,
    instance_from_json,
    instance_hash,
    instance_to_json,
    is_symmetric,
    iter_I,
    iter_J,
    load_instance,
    make_instance,
    odd_cycle_complement_instance,
    odd_cycle_instance,
    save_instance,
    side_info_graph,
    validate,
    y_set,
)
from .codes import (
    MinRankWitness,
    RandomConstructionReport,
    SearchReport,
    VerificationReport,
    check_certificate,
    construct_concat,
    construct_lift,
    construct_random,
    max_delta,
    min_rank,
    random_existence_condition,
    search_certificate,
    search_min_length,
    verify,
)
from .bounds import (
    BoundReport,
    CodeTableEntry,
    OddCycleComparison,
    bound_report,
    gv_upper,
    nq_kd,
    odd_cycle_comparison,
    rs_generator,
    singleton_lower,
    sphere_volume,
)
from .decoding import (
    DecodeResult,
    Decoder,
    ReceiverView,
    decode,
    find_combiner,
    load_received,
    make_view,
    min_weight_coset_solution,
    received_from_text,
    received_to_text,
    recover,
    recover_by_elimination,
    relevant_error_set,
    save_received,
    syndrome,
    transmit,
)
from .static_codes import (
    GreedyReport,
    ResilienceWitness,
    StaticFamily,
    StaticReport,
    canonical_instance,
    find_parity_check,
    gv_greedy,
    gv_inequality,
    max_resiliency,
    rho_star,
    static_bounds,
    verify_rho_delta,
    weak_resilience_check,
)
from .sim import CampaignStats, SimulationRun, simulate_once, trial_campaign

__version__ = "0.1.0"
