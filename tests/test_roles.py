"""Role state machines: honest ordering of progress events, key agreement
symmetry, and the fault-injection sweep proving every checked field of
every signed message has a live abort site."""

import ast
from pathlib import Path

import pytest

from rsplab import roles
from rsplab.attacks import honest_script
from rsplab.events import Note
from rsplab.network import relay
from rsplab.roles import (M4, M7, M8, M11, M12, M15, SIG4, SIG8, Message,
                          ProtocolAbort)
from rsplab.scenarios import (SERVER1, VICTIM, VICTIM_EID, ScenarioConfig,
                              build_world)
from rsplab.terms import Atom, FreshSource, Sign, pairs


def run_honest(approach, tls=True, recs=frozenset()):
    w = build_world(ScenarioConfig(approach, 1, tls, recs=recs))
    honest_script(w)
    return w


def tags(world):
    return [e.tag for _, e in world.trace.events()]


class TestHonestRun:
    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_progress_events_appear_in_lockstep(self, approach):
        w = run_honest(approach)
        order = [t for t in tags(w) if t in
                 ("U0", "U1", "U2", "U3", "S0", "S1", "S2", "S3")]
        assert order == ["U0", "S0", "U1", "S1", "U2", "RECV_QU", "SENT_QS",
                         "S2", "U3", "S3"][:len(order)] or \
            order == ["U0", "S0", "U1", "S1", "U2", "S2", "U3", "S3"]

    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_no_progress_event_repeats_for_one_transaction(self, approach):
        w = run_honest(approach)
        seen = set()
        for _, e in w.trace.events():
            if e.tag in ("U0", "U1", "U2", "U3", "S0", "S1", "S2", "S3"):
                key = (e.tag, e.params[3] if len(e.params) > 3 else None)
                assert key not in seen
                seen.add(key)

    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_both_sides_accept_identical_key_and_profile(self, approach):
        w = run_honest(approach)
        (_, s2), = w.trace.events_tagged("S2")
        (_, u3), = w.trace.events_tagged("U3")
        assert s2.params[4] == u3.params[4]    # session key
        assert s2.params[5] == u3.params[5]    # profile

    def test_activation_code_intent_binds_the_delivered_code(self):
        w = run_honest("ac")
        (_, intent), = w.trace.events_tagged("INTENT")
        (_, order), = w.trace.events_tagged("ORDER")
        assert intent.params[3] == order.params[5]

    @pytest.mark.parametrize("recs", [frozenset(), frozenset({"R10"})])
    @pytest.mark.parametrize("approach", ["ds", "ac"])
    @pytest.mark.parametrize("tls", [True, False])
    def test_honest_download_completes_in_every_mode(self, approach, tls, recs):
        from rsplab.scenarios import expand_recs
        cfg = ScenarioConfig(approach, 1, tls, recs=expand_recs(recs, approach))
        w = build_world(cfg)
        code = w.request_profile(VICTIM)
        assert w.start_download(VICTIM, code=code).completed


# ---------------------------------------------------------------------------
# The message schema: one declaration per wire message
# ---------------------------------------------------------------------------

MESSAGES = [m for m in vars(roles).values() if isinstance(m, Message)]
SIGNED_MESSAGES = [m for m in MESSAGES if m.body is not None]


def sample(msg, recs):
    return {name: Atom(f"v-{name}") for name in msg.names(recs)}


class TestSchema:
    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.tag.label)
    def test_parse_inverts_build_with_and_without_the_optional_field(self, msg):
        for recs in {frozenset(), frozenset({msg.rec} - {None})}:
            values = sample(msg, recs)
            assert msg.parse(msg.build(**values), "x", recs) == values
            has_optional = msg.optional is not None and msg.rec in recs
            assert (msg.optional in values) == has_optional
        if msg.optional is not None:
            base = sample(msg, frozenset())
            assert msg.build(**base, **{msg.optional: None}) == msg.build(**base)

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.tag.label)
    def test_wrong_tag_and_short_term_abort_for_the_caller(self, msg):
        items = list(sample(msg, frozenset()).values())
        with pytest.raises(ProtocolAbort) as wrong:
            msg.parse(pairs([Atom("not-" + msg.tag.label)] + items), "who")
        assert (wrong.value.who, wrong.value.reason) == ("who", "unexpected message tag")
        n = len(items) + 1
        with pytest.raises(ProtocolAbort) as short:
            msg.parse(pairs([msg.tag] + items[:-1]), "who")
        assert (short.value.who, short.value.reason) == (
            "who", f"malformed message: expected {n}-tuple, ran out at {n - 2}")

    def test_unknown_field_name_is_refused(self):
        for _ in range(2):
            with pytest.raises(TypeError):
                SIG8.build(it=Atom("it"), eid_=Atom("eid"))

    def test_changing_a_parsed_dict_changes_no_later_parse(self):
        values = sample(SIG4, frozenset({"R7"}))
        term = SIG4.build(**values)
        first = SIG4.parse(term, "x", frozenset({"R7"}))
        first["n_u"] = Atom("changed")
        del first["oid"]
        assert SIG4.parse(term, "x", frozenset({"R7"})) == values
        assert SIG4.decode(term, frozenset({"R7"})) == (SIG4.tag, values)

    def test_signed_handshake_wire_layout(self):
        n_u, n_s, it, s, oid, eid = (Atom(x) for x in
                                     ("n_u", "n_s", "it", "s", "oid", "eid"))
        assert SIG4.build(n_u=n_u, n_s=n_s, it=it, s=s) == \
            pairs([Atom("sig4"), n_u, n_s, it, s])
        assert SIG4.build(n_u=n_u, n_s=n_s, it=it, s=s, oid=oid) == \
            pairs([Atom("sig4"), n_u, n_s, it, s, oid])
        assert SIG8.build(it=it) == pairs([Atom("sig8"), it])
        assert SIG8.build(it=it, eid=eid) == pairs([Atom("sig8"), it, eid])

    @pytest.mark.parametrize("msg", SIGNED_MESSAGES, ids=lambda m: m.tag.label)
    def test_read_inverts_sign_with_and_without_the_optional_field(self, msg):
        key = FreshSource().privkey("signer")
        for recs in {frozenset(), frozenset({msg.body.rec} - {None})}:
            values = {name: Atom(f"v-{name}") for name in
                      msg.names(recs)[1:] + msg.body.names(recs)}
            assert msg.read(msg.sign(key, recs, **values), recs) == values

    @pytest.mark.parametrize("msg", SIGNED_MESSAGES, ids=lambda m: m.tag.label)
    @pytest.mark.parametrize("recs", [set(), {"R7"}, {"R9"}, {"R7", "R9"}],
                             ids=["none", "R7", "R9", "R7+R9"])
    def test_sign_drops_the_optional_field_exactly_without_its_rec(self, msg,
                                                                   recs):
        key = FreshSource().privkey("signer")
        body = msg.body
        values = {name: Atom(f"v-{name}") for name in
                  msg.fields[1:] + body.fields + (body.optional,) if name}
        sig = msg.parse(msg.sign(key, frozenset(recs), **values), "x")["sig"]
        assert isinstance(sig, Sign) and sig.key is key
        wire = [body.tag] + [values[name] for name in body.fields]
        if body.optional is not None and body.rec in recs:
            wire.append(values[body.optional])
        assert sig.body == pairs(wire)

    def test_only_message_sign_signs_a_message(self):
        # besides the schema, only the CI root signs (certificates), and one
        # negative control tries a forgery that the gate must refuse
        allowed = {("roles.py", "sign"), ("pki.py", "issue"),
                   ("attacks.py", "_ctl_forgery_rejected")}

        def signs(node):
            func = getattr(node, "func", None)
            return (isinstance(node, ast.Call)
                    and getattr(func, "id", getattr(func, "attr", None)) == "seal"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "sign")

        found = set()
        for path in sorted(Path(roles.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            outside = {n for n in ast.walk(tree) if signs(n)}
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inside = [n for n in ast.walk(fn) if signs(n)]
                    if inside:
                        found.add((path.name, fn.name))
                        outside -= set(inside)
            if outside:
                found.add((path.name, "<module>"))
        assert found == allowed

    def test_only_roles_spells_a_message_tag(self):
        tags = {m.tag.label for m in MESSAGES}
        offenders = []
        for path in sorted(Path(roles.__file__).parent.glob("*.py")):
            if path.name == "roles.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and node.value in tags:
                    offenders.append(f"{path.name}:{node.lineno} {node.value!r}")
        assert not offenders


# ---------------------------------------------------------------------------
# Fault injection: flip each field of each signed message (and the MAC-
# protected delivery fields), re-sealing with the legitimate key so that the
# field comparison itself - not the signature - must catch the change.  The
# flips go through the deduction gate like any other adversary send, so each
# runs where the signer's key has leaked: server-signed messages under a
# server compromise (scenario 2), client-signed ones under a compromise of
# the victim eUICC's key (scenario 3).
# ---------------------------------------------------------------------------

# stage -> (signed message, signing key attribute of the sender)
SIGNED = {
    "m4": (M4, "sk_sa"),
    "m7": (M7, "sk_u"),
    "m8": (M8, "sk_sp"),
    "m11": (M11, "sk_u"),
    "m12": (M12, "sk_sp"),
    "m15": (M15, "sk_u"),
}

# Every other flip must stop the run.  The sig7 activation code stops in
# both approaches: an unknown code is refused, and in the default-server
# approach the null code slot refuses any non-null value.
UNCHECKED = {
    ("m7", "s"),   # deliberate gap: no base-mode comparison at the server
    ("m15", "s"),  # verified but not compared
}


def _flips():
    """(stage, field, recommendation putting it on the wire, outcome)."""
    rows = []
    for stage, (msg, _key) in SIGNED.items():
        body = msg.body
        for name in body.names({body.rec}):
            rec = body.rec if name == body.optional else None
            outcome = "unchecked" if (stage, name) in UNCHECKED else "stops"
            rows.append((stage, name, rec, outcome))
    # the delivery fields outside the signature, protected by the MACs
    rows += [("m12", name, None, "stops") for name in M12.fields if name != "sig"]
    return rows


FLIPS = _flips()


def flip_field(stage, name):
    """A rewrite for `relay`: flip one field of one message and re-seal it
    with the legitimate sender's key (a field outside the signed body keeps
    the signature it had)."""
    msg, key = SIGNED[stage]

    def rewrite(world, at, term):
        if at != stage:
            return term
        signer = (world.euiccs[VICTIM_EID] if key == "sk_u"
                  else world.servers[SERVER1]).identity
        recs = world.cfg.recs
        return msg.sign(getattr(signer, key), recs,
                        **{**msg.read(term, recs), name: Atom("flipped")})
    return rewrite


def flip_once(approach, stage, name, rec=None):
    recs = frozenset({rec}) if rec else frozenset()
    scenario = 3 if SIGNED[stage][1] == "sk_u" else 2
    w = build_world(ScenarioConfig(approach, scenario, False, recs=recs))
    code = w.request_profile(VICTIM)
    result = relay(w, w.download(VICTIM, code, intercepted=True),
                   flip_field(stage, name))
    return w, result


class TestFaultInjection:
    @pytest.mark.parametrize("approach", ["ds", "ac"])
    @pytest.mark.parametrize("stage,name,rec,outcome", FLIPS)
    def test_each_flipped_field_hits_its_abort_site(self, approach, stage,
                                                    name, rec, outcome):
        w, result = flip_once(approach, stage, name, rec)
        if outcome == "stops":
            assert not result.completed, f"{stage} {name} flip went unnoticed"
            notes = [e for e in w.trace.entries
                     if getattr(e, "kind", None) in ("abort", "blocked")]
            assert notes, f"{stage} {name} flip left no abort/block record"
            # a run cut short never reaches both acceptance events
            assert not (w.trace.events_tagged("U3")
                        and w.trace.events_tagged("S3"))
        else:
            assert result.completed, f"{stage} {name} was expected to be unchecked"

    def test_server_name_gap_closes_under_r8(self):
        w, result = flip_once("ac", "m7", "s", rec="R8")
        assert not result.completed

    def test_unsigned_resign_with_wrong_key_is_caught(self):
        # sanity: a signature by a non-certified key never verifies
        cfg = ScenarioConfig("ds", 1, False)
        w = build_world(cfg)
        w.request_profile(VICTIM)

        def wrong_key(world, stage, term):
            if stage != "m4":
                return term
            rogue = world.fresh.privkey("rogue")
            world.adversary.learn(rogue)
            return M4.sign(rogue, **M4.read(term))

        result = relay(w, w.download(VICTIM, intercepted=True), wrong_key)
        assert not result.completed

    @pytest.mark.parametrize("lpa_strict, note", [
        (True, f"note blocked lpa-{VICTIM}: m4: challenge mismatch"),
        (False, "note abort euicc: challenge mismatch"),
    ], ids=["strict-lpa", "relaxed-lpa"])
    def test_a_challenge_the_euicc_did_not_issue_stops_at_m4(self, lpa_strict, note):
        # the leaked sk_sa re-signs m4 around an adversary nonce; the strict
        # LPA compares the challenge first, the relaxed one leaves it to the
        # eUICC
        w = build_world(ScenarioConfig("ds", 2, False, lpa_strict=lpa_strict))
        forged = w.adversary.fresh_nonce("adv-nu")
        sk_sa = w.servers[SERVER1].identity.sk_sa

        def rewrite(world, stage, term):
            if stage != "m4":
                return term
            return M4.sign(sk_sa, **{**M4.read(term), "n_u": forged})

        w.request_profile(VICTIM)
        result = relay(w, w.download(VICTIM), rewrite)
        assert not result.completed
        assert [e.render() for e in w.trace.entries if isinstance(e, Note)] == [note]
        assert w.trace.events_tagged("U1") == []
