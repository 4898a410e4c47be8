"""The matrix's shortcuts against the work they skip.

``run_matrix`` checks each run only for the goals no earlier run of its
cell group has violated, and the capability audit replays a trace only up
to its last adversary send.  Here every run of the plain, R10-ds and R10-ac
matrices is built again by hand, checked for all fifteen goals and audited
over the whole trace, and the cells and audits that eager work gives must
be the ones the matrix reports.
"""

import pytest

from rsplab.attacks import audit_trace, honest_script
from rsplab.events import LearnOp, MessageOp
from rsplab.fixture import GOALS, scenario_rows
from rsplab.goals import check_all
from rsplab.harness import run_matrix, world_runs
from rsplab.network import CH_LPA_SERVER
from rsplab.scenarios import SERVER1, ScenarioConfig, build_world, expand_recs
from rsplab.terms import Knowledge

THREE_MATRICES = {"plain": (("ds", "ac"), frozenset()),
                  "r10-ds": (("ds",), frozenset({"R10"})),
                  "r10-ac": (("ac",), frozenset({"R10"}))}


def runs_of(cfg) -> list:
    """(script id, world) for every run of `cfg`'s cell group, in the
    harness's order: honest, the applicable attacks, the controls."""
    runs = []
    for name, script in world_runs(cfg):
        world = build_world(cfg)
        try:
            script(world)
        except Exception:  # a crash is the harness's to report
            pass
        runs.append((name, world))
    return runs


@pytest.fixture(scope="module", params=THREE_MATRICES)
def matrix_runs(request):
    """The matrix's report and, per cell group, its runs built by hand."""
    approaches, recs = THREE_MATRICES[request.param]
    groups = {}
    for approach in approaches:
        for scenario in scenario_rows(approach):
            for tls in (True, False):
                cfg = ScenarioConfig(approach, scenario, tls,
                                     recs=expand_recs(recs, approach))
                groups[(approach, scenario, tls)] = runs_of(cfg)
    return run_matrix(approaches=approaches, recs=recs), groups


def full_replay_audit(trace) -> list:
    """The capability audit over every entry of the trace."""
    failures = []
    k = Knowledge()
    for i, entry in enumerate(trace.entries):
        if isinstance(entry, LearnOp):
            k.learn(entry.term)
        elif (isinstance(entry, MessageOp) and entry.by_adversary
              and not k.deduce(entry.term)):
            failures.append(f"entry {i}: sent term not derivable at send time")
    return failures


def test_cells_equal_the_first_violating_run_of_eager_checks(matrix_runs):
    report, groups = matrix_runs
    expected = {}
    for (approach, scenario, tls), runs in groups.items():
        verdicts = [(name, check_all(w.trace, w.adversary.knowledge))
                    for name, w in runs]
        for goal in GOALS:
            hit = next(((name, v[goal].witness) for name, v in verdicts
                        if not v[goal].ok), None)
            expected[(approach, scenario, tls, goal)] = \
                ("pass", None, None) if hit is None else ("violated", *hit)
    actual = {key: (c.actual, c.via, c.witness)
              for key, c in report.cell_map().items()}
    assert actual == expected
    assert any(v[0] == "violated" for v in actual.values())


def test_the_audit_equals_a_full_replay(matrix_runs):
    _, groups = matrix_runs
    traces = [w.trace for runs in groups.values() for _, w in runs]
    assert any(any(isinstance(e, MessageOp) and e.by_adversary
                   for e in t.entries) for t in traces)
    for trace in traces:
        assert audit_trace(trace) == full_replay_audit(trace)


def smuggled_traces() -> list:
    """The two traces of ``test_network``'s audit tests: an honest run and
    then a send of a profile the adversary never saw, and the same with
    the profile learned between two such sends."""
    traces = []
    for learned in (False, True):
        w = build_world(ScenarioConfig("ds", 1, True))
        honest_script(w)
        secret = w.servers[SERVER1].orders[0].profile
        w.trace.message(CH_LPA_SERVER, "adv->server", secret, by_adversary=True)
        if learned:
            w.trace.learn(secret)
            w.trace.message(CH_LPA_SERVER, "adv->server", secret,
                            by_adversary=True)
        traces.append(w.trace)
    return traces


def test_the_audit_of_a_smuggled_send_equals_a_full_replay():
    for trace in smuggled_traces():
        failures = audit_trace(trace)
        assert failures and failures == full_replay_audit(trace)
