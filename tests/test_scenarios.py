import gc
import weakref

import pytest

from rsplab.fixture import GOALS, expected_matrix, scenario_rows
from rsplab.scenarios import (AC_SCENARIOS, DS_SCENARIOS, VICTIM, VICTIM_EID,
                              ConfigError, ScenarioConfig, build_world,
                              expand_recs, parse_config)
from rsplab.terms import Atom


class TestConfig:
    def test_scenario_approach_compatibility(self):
        ScenarioConfig("ds", 9, True)
        ScenarioConfig("ac", 10, True)
        with pytest.raises(ConfigError):
            ScenarioConfig("ac", 9, True)
        with pytest.raises(ConfigError):
            ScenarioConfig("ds", 10, True)

    def test_rec_approach_compatibility(self):
        with pytest.raises(ConfigError):
            ScenarioConfig("ds", 1, True, recs=frozenset({"R1"}))
        with pytest.raises(ConfigError):
            ScenarioConfig("ac", 1, True, recs=frozenset({"R2"}))
        ScenarioConfig("ds", 1, True, recs=frozenset({"R2", "R7", "R9"}))

    def test_r10_expands_per_approach(self):
        assert expand_recs(["R10"], "ds") == frozenset({"R2", "R7", "R9"})
        assert expand_recs(["R10"], "ac") == frozenset({"R1", "R3", "R7", "R9"})

    def test_unknown_rec_rejected(self):
        with pytest.raises(ConfigError):
            expand_recs(["R42"], "ds")

    def test_parse_config_round_trip(self):
        text = """
        # download lab scenario
        approach = activation_code
        scenario = 6
        tls = off
        recs = R1, R3
        lpa_strict = no
        """
        cfg = parse_config(text)
        assert cfg == ScenarioConfig("ac", 6, False,
                                     recs=frozenset({"R1", "R3"}),
                                     lpa_strict=False)

    def test_parse_config_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config("approach ds")
        with pytest.raises(ConfigError):
            parse_config("tls = sometimes")
        with pytest.raises(ConfigError, match="got 'six'"):
            parse_config("scenario = six")


class TestWorldBuilding:
    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_every_fixture_row_is_buildable(self, approach):
        for scenario in scenario_rows(approach):
            for tls in (True, False):
                w = build_world(ScenarioConfig(approach, scenario, tls))
                assert len(w.servers) == 2
                assert len(w.euiccs) == 3
                assert len(w.trace.events_tagged("OWNER")) == 3

    def test_fixture_covers_exactly_the_scenario_rows(self):
        matrix = expected_matrix()
        assert {k for k in matrix if k[0] == "ds"} == {("ds", s) for s in DS_SCENARIOS}
        assert {k for k in matrix if k[0] == "ac"} == {("ac", s) for s in AC_SCENARIOS}
        for rows in matrix.values():
            assert set(rows) == set(GOALS)

    def test_expected_matrix_is_read_only(self):
        matrix = expected_matrix()
        with pytest.raises(TypeError):
            matrix[("ds", 1)] = {}
        with pytest.raises(TypeError):
            matrix[("ds", 1)]["A"] = None
        assert expected_matrix() is matrix

    def test_fixture_totals_570_resolved_cells(self):
        total = sum(len(rows) for rows in expected_matrix().values()) * 2
        assert total == 570

    def test_scenario_one_has_no_markers(self):
        w = build_world(ScenarioConfig("ds", 1, True))
        for tag in ("CompromiseServer", "CompromiseCert", "CompromiseMno",
                    "ChannelFraud"):
            assert not w.trace.events_tagged(tag)

    def test_each_compromise_is_exactly_one_marker(self):
        for approach, scenario, tag, count in [
                ("ds", 2, "CompromiseServer", 2),
                ("ds", 3, "CompromiseCert", 1),
                ("ds", 5, "CompromiseServer", 1),
                ("ac", 6, "CompromiseCert", 1),
                ("ds", 7, "CompromiseMno", 1),
                ("ac", 10, "ChannelFraud", 1)]:
            w = build_world(ScenarioConfig(approach, scenario, True))
            assert len(w.trace.events_tagged(tag)) == count, (approach, scenario)

    def test_worlds_with_same_config_are_identical(self):
        from rsplab.attacks import honest_script
        traces = []
        for _ in range(2):
            w = build_world(ScenarioConfig("ac", 1, False))
            honest_script(w)
            traces.append(w.trace.render())
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_dropped_world_is_freed_by_reference_counting(self, approach):
        # no reference cycle keeps a finished world alive until the cycle
        # collector runs, index the goal checker left on the trace included
        from rsplab.attacks import honest_script
        from rsplab.goals import check_all
        gc.disable()
        try:
            w = build_world(ScenarioConfig(approach, 4, False))
            honest_script(w)
            check_all(w.trace, w.adversary.knowledge)
            trace = weakref.ref(w.trace)
            del w
            assert trace() is None
        finally:
            gc.enable()


class TestSharedPki:
    def test_worlds_share_one_issued_pki(self):
        worlds = [build_world(ScenarioConfig(*args)) for args in (
            ("ds", 1, True), ("ds", 2, False, frozenset({"R2", "R7"})),
            ("ac", 3, True, frozenset({"R1", "R3"})))]
        # the identities are frozen, so sharing them shares their keys and
        # certificates too
        first = worlds[0]
        for w in worlds[1:]:
            assert w.ci is first.ci
            for label, srv in w.servers.items():
                assert srv.identity is first.servers[label].identity
            for eid, dev in w.euiccs.items():
                assert dev.identity is first.euiccs[eid].identity

    def test_fresh_ids_continue_after_the_pki_keys(self):
        # every world draws the same ids it drew when it issued the PKI itself
        w = build_world(ScenarioConfig("ds", 1, True))
        assert w.fresh.nonce().id == len(w.long_term_private_keys())

    def test_r2_world_leaves_no_expected_oid_behind(self):
        expected = []
        for recs in ({"R2"}, set()):
            w = build_world(ScenarioConfig("ds", 1, True, frozenset(recs)))
            w.request_profile(VICTIM)
            assert w.start_download(VICTIM).completed
            expected.append(w.euiccs[VICTIM_EID].session.expected_oid)
        assert expected == [Atom("oid-1"), None]
