"""Each attack script must demonstrate its claimed violations on a world it
applies to, must never disturb a cell the fixture expects to hold, and every
negative control must leave a clean trace."""

import pytest

import goal_oracle
from rsplab.attacks import (ATTACKS_BY_ID, attack_registry, audit_trace,
                            honest_script, negative_controls)
from rsplab.fixture import GOALS, expected_matrix, scenario_rows
from rsplab.goals import check_all
from rsplab.network import GateViolation
from rsplab.scenarios import ScenarioConfig, build_world

# one representative world per script (approach, scenario, tls)
SAMPLE_WORLDS = {
    "1": ("ac", 1, False),
    "2": ("ds", 2, True),
    "3": ("ds", 5, False),
    "4": ("ds", 3, True),
    "5": ("ac", 6, False),
    "6": ("ac", 3, True),
    "7": ("ds", 8, True),
    "8": ("ac", 10, True),
    "9": ("ac", 4, True),
    "a": ("ds", 9, True),
    "b": ("ac", 11, True),
    "c": ("ds", 5, False),
    "d": ("ac", 6, False),
    "e": ("ac", 3, False),
    "f": ("ac", 2, True),
}


def run_script(script_id, approach, scenario, tls, recs=frozenset()):
    cfg = ScenarioConfig(approach, scenario, tls, recs=recs)
    script = ATTACKS_BY_ID[script_id]
    assert script.applicable(cfg)
    world = build_world(cfg)
    script.run(world)
    return world, check_all(world.trace, world.adversary.knowledge)


class TestScriptClaims:
    @pytest.mark.parametrize("script_id", sorted(SAMPLE_WORLDS))
    def test_script_violates_what_it_claims(self, script_id):
        approach, scenario, tls = SAMPLE_WORLDS[script_id]
        world, verdicts = run_script(script_id, approach, scenario, tls)
        script = ATTACKS_BY_ID[script_id]
        violated = {g for g in GOALS if not verdicts[g].ok}
        missing = script.claims - violated
        assert not missing, f"script {script_id} failed to violate {missing}"

    @pytest.mark.parametrize("script_id", sorted(SAMPLE_WORLDS))
    def test_script_stays_inside_the_expected_fail_cells(self, script_id):
        approach, scenario, tls = SAMPLE_WORLDS[script_id]
        world, verdicts = run_script(script_id, approach, scenario, tls)
        expected = expected_matrix()[(approach, scenario)]
        for g in GOALS:
            if not verdicts[g].ok:
                assert expected[g].resolved(tls) == "violated", \
                    f"script {script_id} broke pass-cell {g}"

    @pytest.mark.parametrize("script_id", sorted(SAMPLE_WORLDS))
    def test_script_traces_pass_the_capability_audit(self, script_id):
        approach, scenario, tls = SAMPLE_WORLDS[script_id]
        world, _ = run_script(script_id, approach, scenario, tls)
        assert audit_trace(world.trace) == []

    def test_every_fail_cell_is_demonstrated_by_some_script(self):
        registry = attack_registry()
        matrix = expected_matrix()
        for approach in ("ds", "ac"):
            for scenario in scenario_rows(approach):
                for tls in (True, False):
                    cfg = ScenarioConfig(approach, scenario, tls)
                    wanted = {g for g, exp in matrix[(approach, scenario)].items()
                              if exp.resolved(tls) == "violated"}
                    if not wanted:
                        continue
                    got = set()
                    for script in registry:
                        if not script.applicable(cfg):
                            continue
                        world = build_world(cfg)
                        script.run(world)
                        verdicts = check_all(world.trace,
                                             world.adversary.knowledge)
                        got |= {g for g in GOALS if not verdicts[g].ok}
                    assert wanted <= got, \
                        (approach, scenario, tls, wanted - got)

    def test_every_credit_but_three_is_demonstrated_by_its_script(self):
        # a fixture ref credits a script with a cell: some world where the
        # script applies and the cell is violated must show the violation.
        # Three credits are not borne out (ds/2 gives B to c in its own
        # comment); they stay in the product until its pins next move, and
        # this list may only shrink.
        matrix = expected_matrix()
        shown, credited = set(), set()
        for (approach, scenario), row in matrix.items():
            for goal, expected in row.items():
                for script_id in expected.attack_refs:
                    credited.add((approach, scenario, goal, script_id))
                    script = ATTACKS_BY_ID[script_id]
                    for tls in (True, False):
                        cfg = ScenarioConfig(approach, scenario, tls)
                        if (expected.resolved(tls) != "violated"
                                or not script.applicable(cfg)):
                            continue
                        world = build_world(cfg)
                        script.run(world)
                        verdicts = check_all(world.trace,
                                             world.adversary.knowledge)
                        if not verdicts[goal].ok:
                            shown.add((approach, scenario, goal, script_id))
        assert credited - shown == {("ds", 2, "B", "2"), ("ac", 2, "B", "2"),
                                    ("ac", 6, "G", "5")}


class TestNamedReproductions:
    def test_redirect_yields_a_fake_profile(self):
        world, verdicts = run_script("3", "ds", 5, False)
        assert not verdicts["Z"].ok
        assert "adversary derives" in verdicts["Z"].witness

    def test_signature_swap_leaks_the_victims_profile(self):
        world, verdicts = run_script("5", "ac", 6, False)
        profile = world.servers["smdp1.example"].orders[0].profile
        assert world.adversary.knows(profile)
        assert not verdicts["Y"].ok

    def test_double_order_installs_the_wrong_profile(self):
        world, verdicts = run_script("a", "ds", 9, True)
        entries = world.trace.entries
        (u3,), (order,) = ([entries[i] for i in world.trace.events_tagged(tag)]
                           for tag in ("U3", "ORDER"))
        assert u3.P == order.P  # the fraud-ordered profile
        for g in ("Bp", "G", "J", "K"):
            assert not verdicts[g].ok

    def test_misbinding_splits_the_two_beliefs(self):
        world, verdicts = run_script("c", "ds", 5, False)
        entries = world.trace.entries
        (u1,), (s1,) = ([entries[i] for i in world.trace.events_tagged(tag)]
                        for tag in ("U1", "S1"))
        assert u1.Sa != s1.Sa  # different server identities
        assert not verdicts["B"].ok


class TestHardeningBlocksAttacks:
    @pytest.mark.parametrize("script_id,world,recs", [
        ("c", ("ds", 5, False), {"R2", "R7", "R9"}),
        ("d", ("ac", 6, False), {"R1", "R3", "R7", "R9"}),
        ("1", ("ac", 1, False), {"R1", "R3", "R7", "R9"}),
        ("5", ("ac", 6, False), {"R1", "R3", "R7", "R9"}),
        ("b", ("ac", 11, True), {"R1", "R3", "R7", "R9"}),
    ])
    def test_recommended_checks_stop_the_script(self, script_id, world, recs):
        approach, scenario, tls = world
        try:
            _, verdicts = run_script(script_id, approach, scenario, tls,
                                     recs=frozenset(recs))
        except Exception:
            return  # the gate refused outright: also a successful defense
        assert all(verdicts[g].ok for g in GOALS)


class TestControls:
    def test_controls_leave_every_goal_intact_on_pass_rows(self):
        ran = 0
        for approach in ("ds", "ac"):
            for scenario in scenario_rows(approach):
                for tls in (True, False):
                    cfg = ScenarioConfig(approach, scenario, tls)
                    for control in negative_controls(cfg):
                        world = build_world(cfg)
                        control.run(world)
                        verdicts = check_all(world.trace,
                                             world.adversary.knowledge)
                        expected = expected_matrix()[(approach, scenario)]
                        for g in GOALS:
                            if expected[g].resolved(tls) == "pass":
                                assert verdicts[g].ok, (control.id, g)
                        ran += 1
        assert ran >= 10

    @pytest.mark.parametrize("control_id, script_id, world, recs, note", [
        ("ctl-code-hidden", "1", ("ac", 1, True), (),
         "note info control: code underivable through the tunnel"),
        ("ctl-oid-pinning", "c", ("ds", 5, False), ("R2",), None),
        ("ctl-oid-pinning", "c", ("ac", 5, False), ("R1",), None),
        ("ctl-named-binding", "d", ("ds", 6, False), ("R9",), None),
        ("ctl-registered-eid", "8", ("ac", 10, True), ("R3",), None),
    ])
    def test_a_guarding_control_is_its_attacks_run(self, control_id,
                                                   script_id, world, recs,
                                                   note):
        cfg = ScenarioConfig(*world, recs=frozenset(recs))
        control = {c.id: c for c in negative_controls(cfg)}[control_id]
        attack = ATTACKS_BY_ID[script_id]
        guarded, attacked = build_world(cfg), build_world(cfg)
        control.run(guarded)
        lines = guarded.trace.render().splitlines()
        if note:  # the gate refuses the attack, and the control notes it
            with pytest.raises(GateViolation):
                attack.run(attacked)
            assert lines.pop().endswith(note)
        else:  # the attack's download is blocked
            assert attack.applicable(cfg)
            assert not attack.run(attacked).completed
        assert lines == attacked.trace.render().splitlines()

    def test_injective_notification_variant_holds_on_honest_runs(self):
        world = build_world(ScenarioConfig("ac", 1, False))
        honest_script(world)
        catalog = goal_oracle.INJECTIVE_NOTIFICATION
        verdicts = check_all(world.trace, world.adversary.knowledge, catalog)
        assert verdicts["G"].ok
