"""Channel semantics: the deduction gate, tunnel opacity and pinning,
private-channel isolation, and the post-hoc capability audit."""

import pytest

from dy_oracle import subterms
from rsplab.attacks import (audit_trace, fake_client_download, honest_script,
                            resign)
from rsplab.events import MessageOp, Note
from rsplab.fixture import GOALS
from rsplab.goals import check_all
from rsplab.network import (CH_LPA_SERVER, GateViolation, adversary_request,
                            relay, server_reply, tls_connect)
from rsplab.roles import M3, M11, M15, MSG_ERROR, SIG11, SIG15, ProtocolAbort
from rsplab.scenarios import (AC_SCENARIOS, ADV_EID, BYSTANDER, COMPROMISES,
                              DS_SCENARIOS, MNO1, MNO2, SERVER1, VICTIM,
                              VICTIM_EID, ScenarioConfig, build_world)
from rsplab.terms import NULL, Atom, Knowledge, Pair, seal
from rsplab.world import ADVERSARY_USER, Code


def run_world(approach="ac", scenario=1, tls=True):
    w = build_world(ScenarioConfig(approach, scenario, tls))
    code = w.request_profile(VICTIM)
    w.start_download(VICTIM, code=code)
    return w


def abort_notes(w):
    return [e.render() for e in w.trace.entries if isinstance(e, Note)]


class TestGate:
    def test_observed_terms_are_replayable(self):
        w = run_world(tls=False)
        msgs = [e.term for e in w.trace.entries
                if isinstance(e, MessageOp) and e.channel == CH_LPA_SERVER]
        assert msgs
        reply = adversary_request(w, Atom(SERVER1), msgs[0])
        assert reply is not None

    def test_unknown_secrets_are_not_sendable(self):
        w = run_world(tls=True)
        secret = w.servers[SERVER1].orders[0].iac
        with pytest.raises(GateViolation):
            w.adversary.gate_send(CH_LPA_SERVER, "adv->server", secret)

    def test_gate_failures_do_not_reach_the_trace(self):
        w = run_world(tls=True)
        before = len(w.trace.entries)
        secret = w.servers[SERVER1].orders[0].iac
        with pytest.raises(GateViolation):
            w.adversary.gate_send(CH_LPA_SERVER, "adv->server", secret)
        sent = [e for e in w.trace.entries[before:]
                if isinstance(e, MessageOp) and e.by_adversary]
        assert not sent


class TestTunnel:
    def test_tunnel_hides_application_traffic(self):
        w = run_world(tls=True)
        code_nonce = w.servers[SERVER1].orders[0].iac
        assert not w.adversary.knows(code_nonce)

    def test_open_channel_exposes_application_traffic(self):
        w = run_world(tls=False)
        code_nonce = w.servers[SERVER1].orders[0].iac
        assert w.adversary.knows(code_nonce)

    def test_disabling_the_tunnel_only_adds_knowledge(self):
        w_on = run_world(tls=True)
        w_off = run_world(tls=False)
        assert w_on.adversary.knowledge.base <= w_off.adversary.knowledge.base

    def test_dialed_name_pins_the_endpoint(self):
        # scenario 5: the adversary holds the second server's keys only
        w = build_world(ScenarioConfig("ds", 5, True))
        with pytest.raises(GateViolation):
            tls_connect(w, Atom(SERVER1), intercepted=True)

    def test_leaked_transport_key_lifts_the_pin(self):
        w = build_world(ScenarioConfig("ds", 2, True))
        tun = tls_connect(w, Atom(SERVER1), intercepted=True)
        assert tun.visible and tun.server is w.servers[SERVER1]

    @pytest.mark.parametrize("request_term", [
        Atom("fuzz-noise"), Pair(Atom("no-such-request"), Atom("x"))],
        ids=["atom", "unknown-tag"])
    def test_server_aborts_an_unknown_request(self, request_term):
        w = build_world(ScenarioConfig("ds", 1, False))
        assert adversary_request(w, Atom(SERVER1), request_term) == MSG_ERROR
        notes = [e for e in w.trace.entries if isinstance(e, Note)]
        assert notes[-1].render() == "note abort server: unknown request"

    @pytest.mark.parametrize("msg, body, reason", [
        (M11, SIG11, "malformed key exchange body: expected 3-tuple, ran out at 1"),
        (M15, SIG15, "malformed notification body: expected 4-tuple, ran out at 1"),
    ], ids=["m11", "m15"])
    def test_server_aborts_a_signed_body_that_is_too_short(self, msg, body, reason):
        w = build_world(ScenarioConfig("ds", 1, False))
        sk = w.adversary.fresh.privkey("adv-sk")
        w.adversary.learn(sk)
        request = msg.build(sig=seal("sign", sk, Pair(body.tag, Atom("x"))))
        # twice: the second send must not find the first one's decode cached
        for _ in range(2):
            assert adversary_request(w, Atom(SERVER1), request) == MSG_ERROR
            notes = [e for e in w.trace.entries if isinstance(e, Note)]
            assert notes[-1].render() == f"note abort server: {reason}"
        assert len(notes) == 2

    @pytest.mark.parametrize("msg, what", [(M11, "key exchange"),
                                           (M15, "notification")],
                             ids=["m11", "m15"])
    def test_server_aborts_a_request_that_is_not_signed(self, msg, what):
        w = build_world(ScenarioConfig("ds", 1, False))
        request = msg.build(sig=Atom("unsigned"))
        assert adversary_request(w, Atom(SERVER1), request) == MSG_ERROR
        assert abort_notes(w) == [
            f"note abort server: malformed {what} body: not a signature"]

    def test_server_aborts_a_foreign_root_key_identifier(self):
        w = build_world(ScenarioConfig("ds", 1, False))
        n = w.adversary.fresh_nonce("probe")
        request = M3.build(n_u=n, ski=Atom("foreign-ski"))
        assert adversary_request(w, Atom(SERVER1), request) == MSG_ERROR
        assert abort_notes(w) == ["note abort server: unsupported root key identifier"]

    def test_ds_server_aborts_a_download_nobody_ordered(self):
        w = build_world(ScenarioConfig("ds", 1, False))
        result = w.start_download(ADVERSARY_USER)
        assert (result.completed, result.stage) == (False, "m7")
        assert abort_notes(w) == ["note abort server: no profile for this eUICC"]

    def test_ac_server_aborts_a_download_without_a_code(self):
        w = build_world(ScenarioConfig("ac", 6, False))
        own = w.euiccs[ADV_EID].identity
        assert fake_client_download(w, SERVER1, own.cert_u, own.sk_u, iac=NULL) is None
        assert abort_notes(w) == ["note abort server: missing activation code"]

    def test_anonymous_clients_always_connect(self):
        w = build_world(ScenarioConfig("ds", 1, True))
        n = w.adversary.fresh_nonce("probe")
        reply = adversary_request(w, Atom(SERVER1), M3.build(n_u=n, ski=w.ci.ski))
        assert reply != MSG_ERROR


@pytest.mark.parametrize("approach", [
    "ds",
    pytest.param("ac", marks=pytest.mark.xfail(strict=True, reason=(
        "the server's S0 at m3 names the first order not yet served, which is "
        "the victim's while the victim's session waits; the bystander's S1 "
        "names its own code, so goal B finds no S0 to match: an artifact of "
        "the checker's view of orders, not an attack"))),
])
def test_interleaved_honest_downloads(approach):
    # the victim's session waits after its m3 is answered while the
    # bystander's whole download runs; then the victim's resumes
    for tls in (True, False):
        w = build_world(ScenarioConfig(approach, 1, tls))
        victim_code = w.request_profile(VICTIM)
        bystander_code = w.request_profile(BYSTANDER)
        victim = w.download(VICTIM, victim_code)
        tun, stage, request = next(victim)
        assert stage == "m3"
        pending = victim.send(server_reply(w, tun, stage, request))
        assert w.start_download(BYSTANDER, bystander_code).completed
        try:
            while True:
                tun, stage, request = pending
                pending = victim.send(server_reply(w, tun, stage, request))
        except StopIteration as done:
            assert done.value.completed
        verdicts = check_all(w.trace, w.adversary.knowledge)
        assert [g for g in GOALS if not verdicts[g].ok] == [], tls
        assert audit_trace(w.trace) == []


class TestSession:
    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_relay_that_rewrites_nothing_is_the_honest_download(self, approach):
        # without the tunnel the adversary reads an honest download anyway,
        # so relaying it unchanged, or through a re-sign that names no
        # stage, must leave the very same trace
        traces = []
        for rewrite in (None, lambda world, stage, term: term, resign()):
            w = build_world(ScenarioConfig(approach, 1, False))
            code = w.request_profile(VICTIM)
            if rewrite:
                lpa = w.download(VICTIM, code, intercepted=True)
                result = relay(w, lpa, rewrite)
            else:
                result = w.start_download(VICTIM, code)
            assert result.completed
            traces.append(w.trace.render())
        assert traces[0] == traces[1] == traces[2]

    def test_abort_thrown_into_a_session_ends_it(self):
        w = build_world(ScenarioConfig("ac", 1, False))
        lpa = w.download(VICTIM, w.request_profile(VICTIM))
        tun, stage, request = next(lpa)
        tun, stage, request = lpa.send(server_reply(w, tun, stage, request))
        assert stage == "m7"
        with pytest.raises(StopIteration) as done:
            lpa.throw(ProtocolAbort("lpa", "no response to m7"))
        result = done.value.value
        assert not result.completed
        assert (result.stage, result.reason) == ("lpa", "no response to m7")
        assert w.trace.render().endswith("note abort lpa: no response to m7")


class TestPrivateChannels:
    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_honest_world_keeps_private_channels_opaque(self, approach):
        w = run_world(approach, 1, tls=True)
        private = [e.term for e in w.trace.entries
                   if isinstance(e, MessageOp)
                   and e.channel in ("mno_server_private", "lpa_euicc_internal")]
        assert private
        for term in private:
            for sub in subterms(term):
                assert sub not in w.adversary.knowledge.base

    def test_order_channel_proxy_reads_codes(self):
        w = build_world(ScenarioConfig("ac", 2, True))
        code = w.request_profile(VICTIM)
        assert w.adversary.knows(code.iac)


def _own_code(w):
    own = w.request_profile(ADVERSARY_USER)
    return Code(own.iac, own.s, own.oid)


def _steal_victims_code(w):
    code = w.request_profile(VICTIM)
    w.start_download(ADVERSARY_USER, Code(code.iac, code.s, code.oid))


def _proxy_order(w):
    code = w.proxy_order(MNO2, Atom(ADVERSARY_USER),
                         ADV_EID if w.cfg.approach == "ds" else None)
    assert code is None or w.adversary.knows(code.iac)


# each gated action, and the scenario whose row of COMPROMISES grants it
GATED = [
    ("impersonate-user", ("channel", "impersonate-user"), 8, ("ds", "ac"),
     lambda w: w.fraud_order("impersonate-user", VICTIM, MNO1, ADV_EID)),
    ("order-for-euicc", ("channel", "order-for-euicc"), 9, ("ds",),
     lambda w: w.fraud_order("order-for-euicc", ADVERSARY_USER, MNO1, VICTIM_EID)),
    ("spoof-code", ("channel", "spoof-code"), 11, ("ac",),
     lambda w: w.spoof_code_delivery(VICTIM, _own_code(w))),
    ("lpa-spoofs-code", ("lpa", VICTIM), 4, ("ac",),
     lambda w: w.spoof_code_delivery(VICTIM, _own_code(w))),
    ("lpa-injects-code", ("lpa", VICTIM), 4, ("ac",),
     lambda w: w.start_download(VICTIM, w.request_profile(VICTIM),
                                inject_code=_own_code(w))),
    ("proxy-order", ("mno", MNO2), 7, ("ds", "ac"), _proxy_order),
    ("intercept", ("server", SERVER1), 2, ("ds", "ac"),
     lambda w: tls_connect(w, Atom(SERVER1), intercepted=True)),
    ("read-code", ("channel", "read-code"), 10, ("ac",), _steal_victims_code),
    ("lpa-leaks-code", ("lpa", VICTIM), 4, ("ac",), _steal_victims_code),
]


class TestCapabilityGates:
    @pytest.mark.parametrize("grant, scenario, approaches, act",
                             [case[1:] for case in GATED],
                             ids=[case[0] for case in GATED])
    def test_action_needs_its_grant(self, grant, scenario, approaches, act):
        assert grant in COMPROMISES[scenario]
        for approach in approaches:
            w = build_world(ScenarioConfig(approach, 1, True))
            with pytest.raises(GateViolation):
                act(w)
            w = build_world(ScenarioConfig(approach, scenario, True))
            assert grant in w.grants
            act(w)
            assert audit_trace(w.trace) == []

    def test_one_row_per_scenario(self):
        assert sorted(COMPROMISES) == sorted(set(DS_SCENARIOS) | set(AC_SCENARIOS))


class TestAudit:
    def test_honest_and_attack_traces_audit_clean(self):
        from rsplab.attacks import attack_registry
        cfg = ScenarioConfig("ac", 6, False)
        w = build_world(cfg)
        honest_script(w)
        assert audit_trace(w.trace) == []
        for script in attack_registry():
            if not script.applicable(cfg):
                continue
            w = build_world(cfg)
            script.run(w)
            assert audit_trace(w.trace) == [], script.id

    def test_audit_flags_a_smuggled_term(self):
        w = build_world(ScenarioConfig("ds", 1, True))
        honest_script(w)
        secret = w.servers[SERVER1].orders[0].profile
        w.trace.message(CH_LPA_SERVER, "adv->server", secret, by_adversary=True)
        failures = audit_trace(w.trace)
        assert failures and "not derivable" in failures[0]

    def test_audit_flags_a_send_that_precedes_its_learn(self):
        # the audit reads one growing knowledge: a learn later in the trace
        # must not count for a send before it, only for sends after it
        w = build_world(ScenarioConfig("ds", 1, True))
        honest_script(w)
        secret = w.servers[SERVER1].orders[0].profile
        early = len(w.trace.entries)
        w.trace.message(CH_LPA_SERVER, "adv->server", secret, by_adversary=True)
        w.trace.learn(secret)
        w.trace.message(CH_LPA_SERVER, "adv->server", secret, by_adversary=True)
        assert audit_trace(w.trace) == [
            f"entry {early}: sent term not derivable at send time"]

    def test_replays_and_their_audit_never_drain_the_closure(self, monkeypatch):
        # a replayed request is in the base as sent, so neither the gate nor
        # the audit saturates for it; the first read that misses drains once
        w = build_world(ScenarioConfig("ds", 1, False))
        assert w.start_download(VICTIM, code=w.request_profile(VICTIM)).completed
        observed = {e.direction: e.term for e in w.trace.entries
                    if isinstance(e, MessageOp)
                    and e.direction.startswith("lpa->server:")}
        calls, drains = [], []
        closure = Knowledge.closure

        def counting(k):
            calls.append(k)
            if k._todo:
                drains.append(k)
            return closure(k)

        monkeypatch.setattr(Knowledge, "closure", counting)
        for stage in ("m3", "m7") * 25:
            adversary_request(w, Atom(SERVER1), observed[f"lpa->server:{stage}"])
        assert audit_trace(w.trace) == []
        assert calls == []
        verdicts = check_all(w.trace, w.adversary.knowledge)
        assert drains == [w.adversary.knowledge]
        assert [g for g in GOALS if not verdicts[g].ok] == []

    def test_audit_replays_learning_in_order(self):
        w = build_world(ScenarioConfig("ac", 3, False))
        victim = w.euiccs[VICTIM_EID].identity
        w.request_profile(VICTIM)
        if w.cfg.approach == "ds":
            fake_client_download(w, SERVER1, victim.cert_u, victim.sk_u)
        assert audit_trace(w.trace) == []
