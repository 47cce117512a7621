"""Simulation lab for randomized self-stabilizing maximal-independent-set
algorithms: a state-model engine with pluggable daemons and Byzantine
strategies, correctness predicates, move-attribution instrumentation, and a
trial/sweep experiment harness."""

__version__ = "0.1.0"
