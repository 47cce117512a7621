import io
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mislab.algorithms import get_algorithm
from mislab.byzantine import make_strategy
from mislab.engine import (
    Activity,
    Configuration,
    RngStream,
    RoundTracker,
    Rule,
    TraceWriter,
    activable_map,
    derive_seed,
    initial_configuration,
    is_stable,
    validate_move_set,
)
from mislab.errors import ConfigError, EngineError, ScriptError
from mislab.graphs import erdos_renyi, make_graph, path, ring, write_graph
from mislab.harness import RunSpec, run_trial
from reference import (
    Move,
    apply_transition,
    enabled,
    forced_draws,
    ordered_move_set_error,
    paper_rules,
    traced_trial,
)

ANON = get_algorithm("anonymous")
BYZ = get_algorithm("byzantine")

# the four-node worked example: a-b, a-c, b-c, c-d as 0..3
EXAMPLE = make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def all_bot(n):
    return Configuration((False,) * n)


def test_candidacy_enabled_everywhere_when_all_down():
    cfg = all_bot(4)
    for u in range(4):
        assert enabled(ANON, EXAMPLE, cfg, u) == (Rule.CANDIDACY,)


def test_final_example_config_has_no_enabled_rules():
    cfg = Configuration((False, True, False, True))
    for u in range(4):
        assert enabled(ANON, EXAMPLE, cfg, u) == ()


def test_refresh_enabled_on_wrong_degree():
    g = path(3)
    cfg = Configuration((False,) * 3, (0, 5, 1))
    assert Rule.REFRESH in enabled(BYZ, g, cfg, 1)
    assert enabled(BYZ, g, cfg, 2) == (Rule.TRY_CANDIDACY,)


def test_all_candidacy_transition_reaches_all_top():
    cfg = all_bot(4)
    moves = [Move(u, Rule.CANDIDACY) for u in range(4)]
    after, draws = apply_transition(ANON, EXAMPLE, cfg, moves, RngStream(1))
    assert after.s == (True, True, True, True)
    assert draws == (None, None, None, None)


def test_refresh_changes_only_its_node():
    g = path(3)
    cfg = Configuration((True, False, True), (9, 9, 9))
    after, _ = apply_transition(BYZ, g, cfg, [Move(1, Rule.REFRESH)], RngStream(1))
    assert after.x == (9, 2, 9)
    assert after.s == cfg.s


def test_failed_withdrawal_coin_keeps_state():
    cfg = Configuration((True, True, True, True))
    after, draws = apply_transition(
        ANON, EXAMPLE, cfg, [Move(0, Rule.TRY_WITHDRAW)], forced_draws([0]))
    assert after == cfg
    assert draws == (0,)


def test_is_stable_on_example_configs():
    assert is_stable(ANON, EXAMPLE, Configuration((False, True, False, True)))
    assert not is_stable(ANON, EXAMPLE, all_bot(4))
    single = make_graph(1, [])
    assert is_stable(ANON, single, Configuration((True,)))


def test_move_set_validation():
    cfg = all_bot(4)
    rng = RngStream(0)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg, [], rng)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg,
                         [Move(0, Rule.CANDIDACY), Move(0, Rule.TRY_WITHDRAW)], rng)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg, [Move(0, Rule.TRY_WITHDRAW)], rng)
    with pytest.raises(EngineError):
        apply_transition(ANON, EXAMPLE, cfg, [Move(0, Rule.BYZ)], rng)


def test_unsorted_move_set_is_rejected():
    # the stepper takes a daemon's node-ascending list as it is
    activity = Activity(ANON, EXAMPLE, all_bot(4))
    with pytest.raises(EngineError, match="^move set is not sorted by node$"):
        activity.transition([1, 0], RngStream(0))
    assert activity.snapshot() == all_bot(4)
    assert activity.transitions == 0


@pytest.mark.parametrize("nodes, message", [
    ([], "move set must be nonempty"),
    ([3, 3], "move set targets node 3 twice"),
    ([0], "move on node 0, which is not activable"),
    ([3, 4], "move on node 4 outside graph of size 4"),
])
def test_stepper_takes_only_activable_nodes_once(nodes, message):
    # only node 3, down with no up neighbor, is activable
    cfg = Configuration((False, True, False, False))
    activity = Activity(ANON, EXAMPLE, cfg)
    assert activity.activable == {3: Rule.CANDIDACY}
    with pytest.raises(EngineError, match=f"^{message}$"):
        activity.transition(nodes, RngStream(0))
    assert activity.snapshot() == cfg


@pytest.mark.parametrize("nodes, message", [
    ([], "move set must be nonempty"),
    ([3], None),
    # order is checked before membership, whatever the nodes
    ([1, 0], "move set is not sorted by node"),
    ([3, 0], "move set is not sorted by node"),
    ([0, 3, 2], "move set is not sorted by node"),
    ([5, 3], "move set is not sorted by node"),
    ([3, 3], "move set targets node 3 twice"),
    ([0, 0], "move set targets node 0 twice"),
    ([0, 1, 1], "move set targets node 1 twice"),
    ([0, 3], "move on node 0, which is not activable"),
    # the first node that is not activable is named, not a later one
    ([0, 3, 4], "move on node 0, which is not activable"),
    ([-1, 0, 3], "move on node -1 outside graph of size 4"),
    ([3, 4], "move on node 4 outside graph of size 4"),
    ([-1, 3], "move on node -1 outside graph of size 4"),
    ([-1], "move on node -1 outside graph of size 4"),
])
def test_move_check_messages_keep_their_precedence(nodes, message):
    """The check names the first violation in precedence order, order before
    membership: an unsorted list holding a non-activable node is "not
    sorted"."""
    activable = {3: Rule.CANDIDACY}
    assert ordered_move_set_error(EXAMPLE, nodes, activable) == message
    if message is None:
        validate_move_set(EXAMPLE, nodes, activable)
    else:
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            validate_move_set(EXAMPLE, nodes, activable)


@settings(max_examples=200, deadline=None)
@given(activable=st.sets(st.integers(0, 5)),
       nodes=st.lists(st.integers(-2, 8), max_size=6))
def test_one_pass_move_check_names_the_first_ordered_violation(activable, nodes):
    g = make_graph(6, [])
    activable = dict.fromkeys(activable, Rule.CANDIDACY)
    message = ordered_move_set_error(g, nodes, activable)
    try:
        validate_move_set(g, nodes, activable)
    except EngineError as exc:
        assert str(exc) == message
    else:
        assert message is None


@pytest.mark.parametrize("algo", [ANON, BYZ], ids=["anonymous", "byzantine"])
@settings(max_examples=300, deadline=None)
@given(faulty=st.integers(0, 5), s=st.lists(st.booleans(), min_size=6, max_size=6),
       x=st.lists(st.integers(0, 7), min_size=6, max_size=6),
       nodes=st.lists(st.integers(-2, 8), min_size=1, max_size=7))
@example(faulty=0, s=[False] * 6, x=[0] * 6, nodes=[])
def test_stepper_refuses_exactly_the_lists_the_ordered_checks_refuse(
        algo, faulty, s, x, nodes):
    """The stepper's in-loop checks and the ordered checks are two
    statements of one rule: a transition succeeds iff the ordered checks
    find no violation, and otherwise raises their message and leaves the
    state, the activable map and the transition count as they were."""
    g = path(6)
    cfg = Configuration(tuple(s), tuple(x) if algo.uses_x else None)
    activity = Activity(algo, g, cfg, {faulty: make_strategy("oscillate")})
    before = (activity.snapshot(), dict(activity.activable), activity.transitions)
    message = ordered_move_set_error(g, nodes, activity.activable)
    if message is None:
        activity.transition(nodes, RngStream(0))
        assert activity.transitions == 1
    else:
        with pytest.raises(EngineError, match=f"^{re.escape(message)}$"):
            activity.transition(nodes, RngStream(0))
        assert (activity.snapshot(), activity.activable,
                activity.transitions) == before


def test_byz_move_requires_strategy_binding():
    g = path(2)
    cfg = Configuration((False, False), (1, 1))
    strategies = {1: make_strategy("always_top")}
    after, _ = apply_transition(
        BYZ, g, cfg, [Move(1, Rule.BYZ)], RngStream(3), strategies)
    assert after.s == (False, True)
    with pytest.raises(EngineError):
        apply_transition(BYZ, g, cfg, [Move(1, Rule.TRY_CANDIDACY)],
                         RngStream(3), strategies)


def test_chosen_nodes_run_their_own_rule_whatever_the_choice():
    """Every nonempty choice of activable nodes, where node 0 can withdraw,
    node 1 must refresh, node 2 is faulty and node 3 can try candidacy: a
    faulty node runs its strategy, an honest node the one rule the paper's
    guards enable on it, and the state and draws are the paper-form
    stepper's."""
    cfg = Configuration((True, True, False, False), (2, 5, 3, 1))
    strategies = {2: make_strategy("uniform_random")}
    activable = {0: Rule.WITHDRAW, 1: Rule.REFRESH, 2: Rule.BYZ,
                 3: Rule.TRY_CANDIDACY}
    for u in (0, 1, 3):
        assert paper_rules(BYZ, EXAMPLE, cfg, u) == (activable[u],)
    for k in range(1, 5):
        for nodes in itertools.combinations(range(4), k):
            activity = Activity(BYZ, EXAMPLE, cfg, strategies)
            assert activity.activable == activable
            rules, draws, _ = activity.transition(list(nodes), RngStream(k))
            assert rules == [activable[u] for u in nodes]
            after, expected_draws = apply_transition(
                BYZ, EXAMPLE, cfg, list(map(Move, nodes, rules)), RngStream(k),
                strategies)
            assert activity.snapshot() == after
            assert tuple(draws) == expected_draws


def test_synchronous_rounds_are_single_transitions():
    # under activate-everything scheduling each transition closes a round
    spec = RunSpec(algorithm="anonymous", graph="ring", n=8, init="random",
                   daemon="synchronous", master_seed=5)
    outcome, trace = traced_trial(spec, 0)
    assert outcome.record.converged
    assert trace.round_ends == list(range(1, len(trace.steps) + 1))


def test_round_tracker_disabling_action_counts():
    # nodes 0 and 1 activable when the round opens
    tracker = RoundTracker({0, 1})
    # node 1 activable before, unmoved, disabled after: round ends
    assert tracker.advance(moved={0}, left={0, 1}, activable_after=set())
    assert tracker.rounds_completed == 1


def test_round_waits_for_byzantine_activation():
    # hand-traced: an edge 0-1 with node 1 Byzantine; activating node 0 alone
    # cannot close the round because node 1 stays activable and unactivated
    # (a faulty node never leaves the activable set)
    tracker = RoundTracker({0, 1})
    assert not tracker.advance(moved={0}, left={0}, activable_after={1})
    assert tracker.rounds_elapsed == 1  # partial round in progress
    assert tracker.advance(moved={1}, left=set(), activable_after={1})
    assert tracker.rounds_completed == 1


def test_round_tracker_never_activable_node_is_satisfied():
    # node 1 is not activable in any configuration of the round
    tracker = RoundTracker({0})
    assert tracker.advance(moved={0}, left=set(), activable_after={0})


def test_round_boundaries_decompose_the_trace():
    spec = RunSpec(algorithm="byzantine", graph="grid", rows=3, cols=3,
                   init="random", daemon="aged_fair", fairness=4,
                   master_seed=21, byzantine=(4,),
                   strategies=((4, "uniform_random", None),))
    _, trace = traced_trial(spec, 1)
    ends = trace.round_ends
    # nonempty contiguous segments covering a prefix of the transitions
    assert ends == sorted(set(ends))
    assert all(e >= 1 for e in ends)
    if ends:
        assert ends[-1] <= len(trace.steps)


def test_replay_determinism():
    spec = RunSpec(algorithm="byzantine", graph="erdos_renyi", n=10, p=0.35,
                   graph_seed=2, init="random", daemon="aged_fair",
                   master_seed=77, byzantine=(0,),
                   strategies=((0, "uniform_random", None),))
    _, a = traced_trial(spec, 4)
    _, b = traced_trial(spec, 4)
    assert a.initial == b.initial
    assert [s.config for s in a.steps] == [s.config for s in b.steps]
    assert [s.moves for s in a.steps] == [s.moves for s in b.steps]
    assert [s.draws for s in a.steps] == [s.draws for s in b.steps]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), data=st.data())
def test_transition_locality(seed, data):
    g = erdos_renyi(8, 0.4, seed=seed)
    s = tuple(data.draw(st.booleans()) for _ in range(8))
    x = tuple(data.draw(st.integers(min_value=0, max_value=9)) for _ in range(8))
    cfg = Configuration(s, x)
    act = activable_map(BYZ, g, cfg)
    if not act:
        return
    nodes = data.draw(st.sets(st.sampled_from(sorted(act)), min_size=1))
    moves = [Move(u, act[u]) for u in nodes]
    after, _ = apply_transition(BYZ, g, cfg, moves, RngStream(seed))
    for u in range(8):
        if u not in nodes:
            assert after.s[u] == cfg.s[u]
            assert after.x[u] == cfg.x[u]


def test_candidacy_draws_match_their_probability():
    # probability 1/4 from the advertised degrees; empirical frequency over
    # 2000 seeded single-move transitions must sit within 4 sigma
    g = path(3)
    cfg = Configuration((False,) * 3, (3, 2, 3))
    hits = 0
    for seed in range(2000):
        after, _ = apply_transition(
            BYZ, g, cfg, [Move(1, Rule.TRY_CANDIDACY)], RngStream(seed))
        hits += after.s[1]
    p = 0.25
    sigma = (2000 * p * (1 - p)) ** 0.5
    assert abs(hits - 2000 * p) < 4 * sigma


def test_withdrawal_coin_is_fair():
    g = path(2)
    cfg = Configuration((True, True))
    hits = 0
    for seed in range(2000):
        after, _ = apply_transition(
            ANON, g, cfg, [Move(0, Rule.TRY_WITHDRAW)], RngStream(seed))
        hits += not after.s[0]
    sigma = (2000 * 0.25) ** 0.5
    assert abs(hits - 1000) < 4 * sigma


def test_rng_stream_reproducible():
    a = RngStream(123)
    b = RngStream(123)
    assert [a.bernoulli(0.5) for _ in range(32)] == \
        [b.bernoulli(0.5) for _ in range(32)]
    assert a.getstate() == b.getstate()


#: each draw as the stream's former wrapper computed it on a plain
#: `random.Random`: (name, arguments drawn by hypothesis, formula)
_FORMER_DRAWS = {
    "random": (st.tuples(), lambda r: r.random()),
    "randint": (st.integers(-10**6, 10**6).flatmap(
                    lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 2**70))),
                lambda r, lo, hi: r.randint(lo, hi)),
    "choice": (st.tuples(st.lists(st.integers(), min_size=1, max_size=300)),
               lambda r, seq: seq[r.randrange(len(seq))]),
    "bernoulli": (st.tuples(st.floats(0.0, 1.0)),
                  lambda r, p: 1 if r.random() < p else 0),
}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64), data=st.data())
def test_rng_stream_draws_what_the_former_wrapper_drew(seed, data):
    """Any interleaving of the four draws returns on an `RngStream` what the
    wrapper it replaced returned; a subclass that defined `random` would
    switch `randint` and `choice` to another `_randbelow` and fail here."""
    stream, plain = RngStream(seed), random.Random(seed)
    for name in data.draw(st.lists(st.sampled_from(sorted(_FORMER_DRAWS)),
                                   max_size=40)):
        args_strategy, former = _FORMER_DRAWS[name]
        args = data.draw(args_strategy)
        assert getattr(stream, name)(*args) == former(plain, *args), name
    assert stream.getstate() == plain.getstate()


def test_bernoulli_extremes():
    rng = RngStream(5)
    assert all(rng.bernoulli(1.0) == 1 for _ in range(16))
    assert all(rng.bernoulli(0.0) == 0 for _ in range(16))


def test_derive_seed_spreads_trials():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


def test_initial_presets():
    g = ring(4)
    rng = RngStream(1)
    bot = initial_configuration(g, True, "all_bot", rng)
    assert bot.s == (False,) * 4
    assert bot.x == (2, 2, 2, 2)
    top = initial_configuration(g, False, "all_top", rng)
    assert top.s == (True,) * 4 and top.x is None
    adv = initial_configuration(g, True, "adversarial_x", rng)
    assert adv.x == (4, 4, 4, 4)
    with pytest.raises(ConfigError):
        initial_configuration(g, True, "mystery", rng)


def test_initial_random_is_seed_deterministic():
    g = ring(6)
    a = initial_configuration(g, True, "random", RngStream(9))
    b = initial_configuration(g, True, "random", RngStream(9))
    assert a == b


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8, 1023, 1024, 2000])
def test_initial_random_x_is_what_randint_draws(n):
    """The random preset draws x without `randint`, yet gets its values and
    leaves the stream where `randint` leaves it."""
    g = make_graph(n, [])
    for seed in (0, 9, 2**40 + 3):
        rng, expected = RngStream(seed), RngStream(seed)
        cfg = initial_configuration(g, True, "random", rng)
        assert cfg.s == tuple(expected.random() < 0.5 for _ in range(n))
        assert cfg.x == tuple(expected.randint(0, n) for _ in range(n))
        assert rng.random() == expected.random()


def _scripted_example(tmp_path, script, **params):
    """A scripted anonymous spec on the four-node example, read from files."""
    graph = tmp_path / "example.graph"
    with open(graph, "w", encoding="utf-8") as fh:
        write_graph(EXAMPLE, fh)
    steps = tmp_path / "steps.txt"
    steps.write_text(script, encoding="utf-8")
    return RunSpec(algorithm="anonymous", graph="file", graph_file=str(graph),
                   daemon="scripted", script_file=str(steps), **params)


def test_scripted_trial_rejects_disabled_moves(tmp_path):
    spec = _scripted_example(tmp_path, "0:withdrawal?:1\n", init="all_bot")
    with pytest.raises(ScriptError, match="not enabled at transition 1"):
        run_trial(spec, 0)


def test_scripted_move_without_draw_draws_from_the_stream(tmp_path):
    # all_top draws nothing, so node 0's coin is the stream's first draw
    spec = _scripted_example(tmp_path, "0:withdrawal?\n", init="all_top",
                             master_seed=3, move_ceiling=1)
    _, trace = traced_trial(spec, 0)
    assert trace.steps[0].draws == (
        RngStream(derive_seed(3, 0)).bernoulli(0.5),)


def test_trace_format(tmp_path):
    spec = _scripted_example(
        tmp_path, "0:candidacy,1:candidacy,2:candidacy,3:candidacy\n"
                  "0:withdrawal?:1\n", init="all_bot", move_ceiling=5)
    buf = io.StringIO()
    run_trial(spec, 0, trace_to=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "0 - 0000"
    assert lines[1] == "1 0:candidacy:-,1:candidacy:-,2:candidacy:-,3:candidacy:- 1111"
    assert lines[2] == "2 0:withdrawal?:1 0111"


def test_trace_includes_x_vector():
    g = path(2)
    cfg = Configuration((False, False), (5, 1))
    activity = Activity(BYZ, g, cfg)
    buf = io.StringIO()
    writer = TraceWriter(buf, cfg)
    rules, draws, _ = activity.transition([0], RngStream(0))
    assert rules == [Rule.REFRESH]
    writer.record([0], rules, draws, activity)
    assert buf.getvalue().splitlines() == ["0 - 00 5,1", "1 0:refresh:- 00 1,1"]
