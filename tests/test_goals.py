"""Checker soundness on hand-built micro-traces: the goal engine must flag
exactly the broken correspondences, honor injectivity, honor the optional
and wildcard slots, and apply the exclusion rules from trace markers."""

import pytest

import goal_oracle
from goal_oracle import event_of
from rsplab import goals
from rsplab.attacks import ATTACKS_BY_ID, honest_script
from rsplab.events import Trace
from rsplab.goals import (check_correspondence, check_secrecy, goal_catalog,
                          check_all, check_forward_secrecy)
from rsplab.scenarios import ScenarioConfig, build_world
from rsplab.terms import Atom, Knowledge, NULL, Nonce

U1A, SA, SP, S, MNO = (Atom("eid-1"), Atom("srv-a"), Atom("srv-a"),
                       Atom("dl.example"), Atom("mno1"))
USER = Atom("user1")
ADV = Atom("user-adv")
ADV_EID = Atom("eid-adv")


def goal(name):
    return next(g for g in goal_catalog() if g.name == name)


def make_trace(*events):
    t = Trace()
    for e in events:
        t.append(e)
    return t


def it(n):
    return Nonce(n, "i-t")


class TestCorrespondence:
    def test_s1_without_u1_violates_client_auth(self):
        t = make_trace(
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)))
        assert not check_correspondence(t, goal("B")).ok

    def test_prepending_the_missing_step_repairs_it(self):
        t = make_trace(
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("U1", (U1A, SA, it(1), S)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)))
        assert check_correspondence(t, goal("B")).ok

    def test_witness_must_be_strictly_earlier(self):
        t = make_trace(
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)),
            event_of("U1", (U1A, SA, it(1), S)))
        assert not check_correspondence(t, goal("B")).ok

    def test_shared_variable_across_requirements(self):
        # U1 names a different server name than S0: no consistent S exists
        t = make_trace(
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("U1", (U1A, SA, it(1), Atom("evil.example"))),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)))
        v = check_correspondence(t, goal("B"))
        assert not v.ok
        assert "U1" in v.witness

    def test_mismatched_identity_binding_violates(self):
        t = make_trace(
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("U1", (U1A, Atom("srv-b"), it(1), S)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)))
        assert not check_correspondence(t, goal("B")).ok

    def test_verdicts_are_deterministic(self):
        t = make_trace(
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)))
        first = check_correspondence(t, goal("B"))
        second = check_correspondence(t, goal("B"))
        assert (first.ok, first.witness) == (second.ok, second.witness)


class TestInjectivity:
    def _bp_events(self, n_triggers, n_orders):
        p = Atom("profile-x")
        events = [event_of("OWNER", (USER, U1A)),
                  event_of("INTENT", (USER, MNO, U1A, NULL))]
        for i in range(n_orders):
            events.append(event_of("ORDER", (USER, MNO, S, U1A, p, NULL)))
        for i in range(n_triggers):
            events.append(event_of("S1", (U1A, SA, SP, it(10 + i), MNO, NULL)))
        return make_trace(*events)

    def test_one_order_covers_one_acceptance(self):
        assert check_correspondence(self._bp_events(1, 1), goal("Bp")).ok

    def test_two_acceptances_need_two_orders(self):
        v = check_correspondence(self._bp_events(2, 1), goal("Bp"))
        assert not v.ok
        assert "injective" in v.witness

    def test_two_orders_cover_two_acceptances(self):
        assert check_correspondence(self._bp_events(2, 2), goal("Bp")).ok


class TestOptionalSlot:
    def test_null_order_eid_matches_any_bound_euicc(self):
        # activation-code style order: the eUICC slot is null
        iac = Nonce(7, "iac")
        p = Atom("profile-x")
        t = make_trace(
            event_of("OWNER", (USER, U1A)),
            event_of("INTENT", (USER, MNO, U1A, iac)),
            event_of("ORDER", (USER, MNO, S, NULL, p, iac)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, iac)))
        assert check_correspondence(t, goal("Bp")).ok

    def test_bound_order_eid_must_match(self):
        p = Atom("profile-x")
        t = make_trace(
            event_of("OWNER", (USER, U1A)),
            event_of("INTENT", (USER, MNO, U1A, NULL)),
            event_of("ORDER", (USER, MNO, S, Atom("eid-other"), p, NULL)),
            event_of("S1", (U1A, SA, SP, it(1), MNO, NULL)))
        assert not check_correspondence(t, goal("Bp")).ok


class TestExclusions:
    def test_adversary_device_client_goals_do_not_fire(self):
        t = make_trace(
            event_of("OWNER", (ADV, ADV_EID)),
            event_of("U1", (ADV_EID, SA, it(1), S)))
        assert check_correspondence(t, goal("A")).ok

    def test_honest_device_client_goals_do_fire(self):
        t = make_trace(
            event_of("OWNER", (USER, U1A)),
            event_of("U0", (U1A, NULL)),
            event_of("U1", (U1A, SA, it(1), S)))
        assert not check_correspondence(t, goal("A")).ok

    def test_compromised_cert_alone_does_not_exclude_the_victim(self):
        # key compromise of an honest user's device is not device ownership
        t = make_trace(
            event_of("OWNER", (USER, U1A)),
            event_of("CompromiseCert", (U1A,)),
            event_of("U0", (U1A, NULL)),
            event_of("U1", (U1A, SA, it(1), S)))
        assert not check_correspondence(t, goal("A")).ok

    def test_rogue_operator_binding_is_excluded(self):
        t = make_trace(
            event_of("CompromiseMno", (Atom("mno2"),)),
            event_of("S1", (U1A, SA, SP, it(1), Atom("mno2"), NULL)))
        assert check_correspondence(t, goal("Bp")).ok

    def test_adversary_self_order_on_own_device_is_excluded(self):
        p = Atom("profile-adv")
        t = make_trace(
            event_of("OWNER", (ADV, ADV_EID)),
            event_of("ORDER", (ADV, MNO, S, ADV_EID, p, NULL)),
            event_of("S3", (ADV_EID, SA, SP, it(1), p, S, MNO)))
        assert check_correspondence(t, goal("G")).ok

    def test_victim_order_on_adversary_device_is_not_excluded(self):
        p = Atom("profile-victim")
        t = make_trace(
            event_of("OWNER", (ADV, ADV_EID)),
            event_of("ORDER", (USER, MNO, S, NULL, p, Nonce(7, "iac"))),
            event_of("S3", (ADV_EID, SA, SP, it(1), p, S, MNO)))
        assert not check_correspondence(t, goal("G")).ok


class TestSecrecy:
    def test_derivable_target_violates(self):
        k = Nonce(3, "k")
        p = Atom("profile-x")
        t = make_trace(event_of("S2", (U1A, SA, SP, it(1), k, p, MNO, NULL)))
        assert not check_secrecy(t, Knowledge([k]), goal("W")).ok

    def test_underivable_target_passes(self):
        k = Nonce(3, "k")
        p = Atom("profile-x")
        t = make_trace(event_of("S2", (U1A, SA, SP, it(1), k, p, MNO, NULL)))
        assert check_secrecy(t, Knowledge([Atom("noise")]), goal("W")).ok

    def test_adversary_device_targets_are_excluded(self):
        k = Nonce(3, "k")
        p = Atom("profile-x")
        t = make_trace(
            event_of("OWNER", (ADV, ADV_EID)),
            event_of("U3", (ADV_EID, SA, SP, it(1), k, p, MNO, NULL)))
        assert check_secrecy(t, Knowledge([k]), goal("X")).ok


class TestCheckAll:
    def test_exclusions_are_asked_once_per_trigger_event(self, monkeypatch):
        # some triggers of this attack are excluded; every goal that shares
        # a trigger tag reuses one answer per event
        w = build_world(ScenarioConfig("ac", 2, False))
        ATTACKS_BY_ID["1"].run(w)
        asked = []
        excluded = goals._excluded

        def counted(trace, event, *facts):
            answer = excluded(trace, event, *facts)
            asked.append((event, answer))
            return answer

        monkeypatch.setattr(goals, "_excluded", counted)
        verdicts = check_all(w.trace, w.adversary.knowledge)
        triggers = sum(len(w.trace.events_tagged(tag))
                       for tag in ("U1", "U2", "U3", "S1", "S2", "S3"))
        assert any(answer for _, answer in asked)
        assert 0 < len(asked) <= triggers
        assert len({id(event) for event, _ in asked}) == len(asked)
        assert verdicts == {g.name: goals.check_goal(w.trace, w.adversary.knowledge, g)
                            for g in goals.CATALOG}

    def test_an_empty_catalog_checks_no_goal(self):
        w = build_world(ScenarioConfig("ds", 1, True))
        honest_script(w)
        assert check_all(w.trace, w.adversary.knowledge, []) == {}
        assert len(check_all(w.trace, w.adversary.knowledge)) == len(goals.CATALOG)


class TestForwardSecrecy:
    @pytest.mark.parametrize("tls", [True, False])
    def test_the_leak_leaves_the_adversary_knowledge_untouched(self, tls):
        world = build_world(ScenarioConfig("ds", 1, tls))
        honest_script(world)
        knowledge = world.adversary.knowledge

        def secrecy():
            verdicts = check_all(world.trace, knowledge)
            return {name: (v.status, v.witness) for name, v in verdicts.items()
                    if goal(name).kind == "secrecy"}

        base, closure, before = set(knowledge.base), set(knowledge.closure()), secrecy()
        assert len(before) == 4
        assert check_forward_secrecy(world).ok
        assert world.adversary.knowledge is knowledge
        assert knowledge.base == base and knowledge.closure() == closure
        assert secrecy() == before


class TestStrictIdentityVariant:
    def test_unverifiable_without_preestablished_identities(self):
        # informational variant, not one of the fifteen: demanding that the
        # client knew the server name at session start holds only where that
        # name is pre-provisioned (default-server), and fails even on honest
        # activation-code runs
        from rsplab.attacks import honest_script
        from rsplab.scenarios import ScenarioConfig, build_world
        strict = goal_oracle.STRICT_IDENTITY
        results = {}
        for approach in ("ds", "ac"):
            w = build_world(ScenarioConfig(approach, 1, True))
            honest_script(w)
            results[approach] = check_all(w.trace, w.adversary.knowledge,
                                          strict)["A"].ok
        assert results == {"ds": True, "ac": False}


class TestTransitivity:
    def test_whole_handshake_goal_follows_from_stepwise_ones(self):
        # every world trace where F, D and B hold must satisfy I as well
        from rsplab.attacks import attack_registry, honest_script
        from rsplab.fixture import scenario_rows
        from rsplab.scenarios import ScenarioConfig, build_world
        checked = 0
        for approach in ("ds", "ac"):
            for scenario in scenario_rows(approach):
                for tls in (True, False):
                    cfg = ScenarioConfig(approach, scenario, tls)
                    runs = [honest_script] + [
                        s.run for s in attack_registry() if s.applicable(cfg)]
                    for fn in runs:
                        w = build_world(cfg)
                        try:
                            fn(w)
                        except Exception:
                            continue
                        v = check_all(w.trace, w.adversary.knowledge)
                        if v["F"].ok and v["D"].ok and v["B"].ok:
                            assert v["I"].ok
                            checked += 1
        assert checked > 30


def test_goal_kernels_do_not_grow_with_checks():
    # kernels are compiled once per goal; repeated checks, the diagnosis of
    # a missing witness included, leave no store in the checker larger
    # than the catalog
    w = build_world(ScenarioConfig("ac", 2, False))
    ATTACKS_BY_ID["2"].run(w)

    def stores():
        return {name: len(value) for name, value in vars(goals).items()
                if isinstance(value, (dict, list, set))
                and not name.startswith("__")}

    kernels = [g.kernel for g in goals.CATALOG]
    before = stores()
    for _ in range(100):
        verdicts = check_all(w.trace, w.adversary.knowledge)
    assert any("no earlier" in (v.witness or "") for v in verdicts.values())
    assert all(g.kernel is kernel for g, kernel in zip(goals.CATALOG, kernels))
    for name, size in stores().items():
        assert size <= max(before.get(name, 0), len(goals.CATALOG)), name
