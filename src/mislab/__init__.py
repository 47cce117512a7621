"""Simulation lab for randomized self-stabilizing maximal-independent-set
algorithms: a state-model engine with pluggable daemons and Byzantine
strategies, correctness predicates, move-attribution instrumentation, and a
trial/sweep experiment harness."""

from .algorithms import AnonymousMIS, ByzantineMIS, candidacy_probability, get_algorithm
from .analysis import (
    ColorLedger,
    SafeAloneTracker,
    all_maximal_independent_sets,
    is_candidate_set,
    is_independent,
    is_legitimate,
    locally_alone_set,
)
from .byzantine import DEFAULT_X_CAP, STRATEGY_KINDS, make_strategy
from .daemons import DAEMON_KINDS, make_daemon
from .engine import (
    Activity,
    Configuration,
    FairnessAges,
    FixedDraws,
    RngStream,
    RoundTracker,
    Rule,
    TraceWriter,
    activable_map,
    derive_seed,
    initial_configuration,
    is_stable,
)
from .errors import ConfigError, EngineError, InvariantViolation, ScriptError
from .graphs import (
    GRAPH_KINDS,
    UNREACHABLE,
    Graph,
    distances_from,
    generate_graph,
    make_graph,
    read_graph,
    safe_zone,
    write_graph,
)
from .harness import (
    Plan,
    RunSpec,
    TrialRecord,
    parse_run_spec,
    prepare,
    reference_replay,
    run_sweep,
    run_trial,
    run_trials,
    spec_hash,
)

__version__ = "0.1.0"
