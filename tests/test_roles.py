"""Role state machines: honest ordering of progress events, key agreement
symmetry, and the fault-injection sweep proving every checked field of
every signed message has a live abort site."""

import ast
from pathlib import Path

import pytest

from rsplab import roles
from rsplab.attacks import honest_script
from rsplab.events import EVENT_FIELDS, Event, LearnOp, MessageOp, Note
from rsplab.goals import EventPattern, OptVar, Var, W, ep
from rsplab.network import (CH_LPA_SERVER, RESPONSE_STAGE, adversary_request,
                            relay)
from rsplab.roles import (M4, M8, M12, SIG4, SIG8, STAGE_MESSAGES, Message,
                          ProtocolAbort)
from rsplab.scenarios import (SERVER1, SERVER2, VICTIM, VICTIM_EID,
                              ScenarioConfig, build_world)
from rsplab.terms import Atom, FreshSource, SealError, Sign, pairs, seal


def run_honest(approach, tls=True, recs=frozenset()):
    w = build_world(ScenarioConfig(approach, 1, tls, recs=recs))
    honest_script(w)
    return w


def tags(world):
    return [e.tag for e in world.trace.entries if isinstance(e, Event)]


def tagged(world, tag):
    return [world.trace.entries[i] for i in world.trace.events_tagged(tag)]


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
        for tag in ("U0", "U1", "U2", "U3", "S0", "S1", "S2", "S3"):
            for i in w.trace.events_tagged(tag):
                key = (tag, getattr(w.trace.entries[i], "It", None))
                assert key not in seen
                seen.add(key)

    @pytest.mark.parametrize("approach", ["ds", "ac"])
    def test_both_sides_accept_identical_key_and_profile(self, approach):
        w = run_honest(approach)
        (s2,), (u3,) = (tagged(w, tag) for tag in ("S2", "U3"))
        assert s2.k == u3.k
        assert s2.P == u3.P

    def test_activation_code_intent_binds_the_delivered_code(self):
        w = run_honest("ac")
        (intent,), (order,) = (tagged(w, tag) for tag in ("INTENT", "ORDER"))
        assert intent.iac == order.iac

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


CERT_ERROR_AND_BASES = {"CertError", "ValueError", "Exception", "BaseException"}


def calls(name, first=None):
    """Matches a call of `name`, as a name or an attribute, whose first
    argument is the constant `first` where given."""
    def match(node):
        func = getattr(node, "func", None)
        return (isinstance(node, ast.Call)
                and getattr(func, "id", getattr(func, "attr", None)) == name
                and (first is None or bool(
                    node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == first)))
    return match


def functions_with(match) -> set:
    """(file, function) for each function in `src/rsplab` that holds a node
    `match` accepts, nested functions and their enclosing ones alike;
    (file, "<module>") for a match outside every function."""
    found = set()
    for path in sorted(Path(roles.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        outside = {n for n in ast.walk(tree) if match(n)}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = [n for n in ast.walk(fn) if match(n)]
                if inside:
                    found.add((path.name, fn.name))
                    outside -= set(inside)
        if outside:
            found.add((path.name, "<module>"))
    return found


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

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.tag.label)
    def test_every_decode_and_parse_returns_a_dict_of_its_own(self, msg):
        # decode is memoized per term; a caller's change to what it got must
        # not reach the next caller
        values = sample(msg, frozenset())
        term = msg.build(**values)
        for fields in (lambda: msg.decode(term)[1], lambda: msg.parse(term, "x")):
            first = fields()
            first.clear()
            assert fields() == values
            assert fields() is not fields()

    @pytest.mark.parametrize("msg", SIGNED_MESSAGES, ids=lambda m: m.tag.label)
    def test_reading_a_signed_message_leaves_its_decode_whole(self, msg):
        # read pops "sig" from the dict decode hands it
        key = FreshSource().privkey("signer")
        values = {name: Atom(f"v-{name}") for name in
                  msg.names()[1:] + msg.body.names()}
        term = msg.sign(key, **values)
        for _ in range(2):
            read = msg.read(term)
            assert read == values
            read.clear()
            assert "sig" in msg.decode(term)[1]
            assert "sig" in msg.parse(term, "x")

    @pytest.mark.parametrize("msg", MESSAGES, ids=lambda m: m.tag.label)
    def test_a_short_term_fails_on_every_call(self, msg):
        # the memo stores only return values, so a failure is never cached
        # away: the second and third calls fail like the first
        items = list(sample(msg, frozenset()).values())
        short = pairs([msg.tag] + items[:-1])
        for _ in range(3):
            with pytest.raises(SealError):
                msg.decode(short)
            with pytest.raises(ProtocolAbort):
                msg.parse(short, "who")
            if msg.body is not None:
                with pytest.raises(SealError):
                    msg.read(short)

    @pytest.mark.parametrize("msg", SIGNED_MESSAGES, ids=lambda m: m.tag.label)
    def test_a_short_signed_body_fails_every_read(self, msg):
        key = FreshSource().privkey("signer")
        body = list(sample(msg.body, frozenset()).values())
        sig = seal("sign", key, pairs([msg.body.tag] + body[:-1]))
        term = msg.build(sig=sig, **{name: Atom(f"v-{name}")
                                     for name in msg.fields[1:]})
        for _ in range(3):
            with pytest.raises(SealError):
                msg.read(term)

    def test_an_abort_reads_as_who_and_why(self):
        exc = ProtocolAbort("server", "unknown transaction id")
        assert (exc.who, exc.reason) == ("server", "unknown transaction id")
        assert str(exc) == "server: unknown transaction id"

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
        assert functions_with(calls("seal", "sign")) == {
            ("roles.py", "sign"), ("pki.py", "issue"),
            ("attacks.py", "_ctl_forgery_rejected")}

    def test_only_message_open_verifies_a_received_message(self):
        # a signature is checked only by the schema and by certificate
        # verification, a certificate only by the schema, and only the
        # schema turns a failed certificate into a receiver's abort
        def turns_cert_error_into_abort(node):
            return (isinstance(node, ast.ExceptHandler)
                    and (node.type is None or any(
                        getattr(n, "id", None) in CERT_ERROR_AND_BASES
                        for n in ast.walk(node.type)))
                    and any(calls("ProtocolAbort")(n) for n in ast.walk(node)))

        assert functions_with(calls("unseal", "sign")) == {
            ("roles.py", "_open"), ("pki.py", "verify_cert")}
        assert functions_with(calls("verify_cert")) == {("roles.py", "_open")}
        assert functions_with(turns_cert_error_into_abort) == {("roles.py", "_open")}

    def test_each_stage_on_the_server_channel_has_its_message(self):
        # every request and every response but the m16 acknowledgement,
        # which carries no message of the schema
        stages = set(RESPONSE_STAGE) | set(RESPONSE_STAGE.values())
        assert set(STAGE_MESSAGES) == stages - {"m16"}
        for stage, msg in STAGE_MESSAGES.items():
            assert msg.tag.label.startswith(f"{stage}-")

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
# The event schema: one declaration of each tag's fields
# ---------------------------------------------------------------------------

EVENT_NAMES = {"event", "e", "q", "p"}  # the names src/rsplab gives an event


class TestEventSchema:
    @pytest.mark.parametrize("tag", sorted(EVENT_FIELDS))
    def test_constructor_takes_each_field_by_name(self, tag):
        fields = EVENT_FIELDS[tag]
        values = {f: Atom(f"v-{f}") for f in fields}
        event = getattr(Event, tag)(**values)
        assert isinstance(event, Event) and event.tag == tag
        assert event == tuple(values[f] for f in fields)
        assert {f: getattr(event, f) for f in fields} == values
        assert event.render() == \
            f"{tag}({', '.join(f'v-{f}' for f in fields)})"
        with pytest.raises(TypeError):  # a field left out
            getattr(Event, tag)(**dict(list(values.items())[1:]))
        with pytest.raises(TypeError):  # a field the tag does not have
            getattr(Event, tag)(**values, other=Atom("x"))
        with pytest.raises(TypeError):  # a field passed by position
            getattr(Event, tag)(*values.values())
        with pytest.raises(AttributeError):  # a field the tag does not have
            event.other

    def test_a_pattern_names_only_fields_of_its_tag(self):
        assert ep("S0", "Sa", S=OptVar("S")) == \
            EventPattern("S0", (Var("Sa"), W, OptVar("S"), W, W))
        with pytest.raises(ValueError, match="S0 has no field k"):
            ep("S0", "Sa", "k")

    def test_only_the_schema_builds_an_event_by_position(self):
        # everywhere else an event is built through its tag's constructor
        # and read by field name: no call of Event(...) and no integer index
        # into an event, whether an entries[...] or one named as events are
        def holds_an_event(node):
            return (isinstance(node, ast.Name) and node.id in EVENT_NAMES
                    or isinstance(node, ast.Subscript)
                    and getattr(node.value, "attr",
                                getattr(node.value, "id", None)) == "entries")

        offenders = []
        for path in sorted(Path(roles.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                by_position = (
                    path.name != "events.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "Event")
                indexed = (
                    isinstance(node, ast.Subscript) and holds_an_event(node.value)
                    and isinstance(node.slice, ast.Constant)
                    and type(node.slice.value) is int)
                if by_position or indexed:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders


# ---------------------------------------------------------------------------
# Trace entries: one immutable kind per entry, told apart by type
# ---------------------------------------------------------------------------

ENTRY_FIELDS = {
    Event: None,  # each tag's own, in EVENT_FIELDS
    MessageOp: ("channel", "direction", "term", "by_adversary"),
    LearnOp: ("term",),
    Note: ("kind", "who", "detail"),
}


def shapes(kind):
    """Each shape of `kind` as (its builder by field name, its fields): one
    per event tag, or the kind's one."""
    if kind is Event:
        return [(getattr(Event, tag), fields) for tag, fields in EVENT_FIELDS.items()]
    return [(kind, ENTRY_FIELDS[kind])]


class TestTraceEntries:
    @pytest.mark.parametrize("kind", ENTRY_FIELDS, ids=lambda k: k.__name__)
    def test_each_kind_keeps_its_field_names(self, kind):
        for build, fields in shapes(kind):
            values = {f: Atom(f"v-{f}") for f in fields}
            entry = build(**values)
            assert isinstance(entry, kind) and tuple(entry) == tuple(values.values())
            assert {f: getattr(entry, f) for f in fields} == values

    def test_a_message_is_honest_unless_marked(self):
        assert MessageOp(CH_LPA_SERVER, "lpa->server:m3", Atom("t")).by_adversary is False

    @pytest.mark.parametrize("kind", ENTRY_FIELDS, ids=lambda k: k.__name__)
    def test_an_entry_cannot_be_changed(self, kind):
        for build, fields in shapes(kind):
            entry = build(**dict.fromkeys(fields, Atom("v")))
            for f in fields:
                with pytest.raises(AttributeError):
                    setattr(entry, f, Atom("changed"))
                with pytest.raises(AttributeError):
                    delattr(entry, f)
            with pytest.raises(AttributeError):
                entry.extra = Atom("added")
            with pytest.raises(TypeError):
                entry[0] = Atom("changed")
            assert all(getattr(entry, f) is Atom("v") for f in fields)

    def test_isinstance_tells_the_kinds_apart(self):
        # an honest run, then a stale replay the server aborts: every kind
        w = run_honest("ac", tls=False)
        m7 = next(e.term for e in w.trace.entries if isinstance(e, MessageOp)
                  and e.direction == "lpa->server:m7")
        adversary_request(w, w.servers[SERVER1].identity.domain, m7)
        kinds = [[k for k in ENTRY_FIELDS if isinstance(e, k)]
                 for e in w.trace.entries]
        assert all(len(k) == 1 for k in kinds)
        assert {k[0] for k in kinds} == set(ENTRY_FIELDS)
        # the trace's index files exactly the events' positions, in trace
        # order, each under its own tag
        filed = [i for tag in EVENT_FIELDS for i in w.trace.events_tagged(tag)]
        assert sorted(filed) == [
            i for i, e in enumerate(w.trace.entries) if isinstance(e, Event)]
        assert all(w.trace.entries[i].tag == tag for tag in EVENT_FIELDS
                   for i in w.trace.events_tagged(tag))

    def test_an_entry_equals_a_bare_tuple_of_its_values(self):
        # entries are plain tuples, so one equals a bare tuple of its values,
        # and entries of two kinds with as many fields compare equal: a
        # one-field event equals a LearnOp of the same term.  Nothing in the
        # lab compares entries by value (see test_harness's
        # test_no_run_compares_trace_entries_by_value)
        t = Atom("t")
        assert MessageOp(CH_LPA_SERVER, "adv->server", t, True) == \
            (CH_LPA_SERVER, "adv->server", t, True)
        assert LearnOp(t) == (t,)
        assert Note("abort", "server", "why") == ("abort", "server", "why")
        assert Event.SENT_QS(q_s=t) == (t,) == LearnOp(t)


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
SIGNED = {stage: (STAGE_MESSAGES[stage], key) for stage, key in (
    ("m4", "sk_sa"), ("m7", "sk_u"), ("m8", "sk_sp"), ("m11", "sk_u"),
    ("m12", "sk_sp"), ("m15", "sk_u"))}

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

    def test_a_challenge_the_euicc_did_not_issue_stops_at_m4(self):
        # the leaked sk_sa re-signs m4 around an adversary nonce; the LPA
        # forwards it, and the eUICC compares the challenge
        w = build_world(ScenarioConfig("ds", 2, False))
        forged = w.adversary.fresh_nonce("adv-nu")
        sk_sa = w.servers[SERVER1].identity.sk_sa

        def rewrite(world, stage, term):
            if stage != "m4":
                return term
            return M4.sign(sk_sa, **{**M4.read(term), "n_u": forged})

        w.request_profile(VICTIM)
        result = relay(w, w.download(VICTIM), rewrite)
        assert not result.completed
        assert [e.render() for e in w.trace.entries if isinstance(e, Note)] == [
            "note abort euicc: challenge mismatch"]
        assert w.trace.events_tagged("U1") == []


# ---------------------------------------------------------------------------
# Receive-side verification: one download, one rewrite, the exact note.  The
# LPA forwards m4 and m8 unverified, so every signature, certificate and oid
# check a rewrite meets is the eUICC's or the server's.
# ---------------------------------------------------------------------------

def rogue_signed(stage):
    """A rewrite that re-signs `stage`'s message, certificate kept, with a
    key the adversary made itself."""
    msg = SIGNED[stage][0]

    def rewrite(world, at, term):
        if at != stage:
            return term
        rogue = world.adversary.fresh.privkey("rogue")
        world.adversary.learn(rogue)
        recs = world.cfg.recs
        return msg.sign(rogue, recs, **msg.read(term, recs))
    return rewrite


def cert_swapped(stage, cert_name):
    """A rewrite that keeps `stage`'s signature but swaps in the intended
    server's certificate `cert_name`, such as "cert_sa"."""
    msg = SIGNED[stage][0]

    def rewrite(world, at, term):
        if at != stage:
            return term
        cert = getattr(world.servers[SERVER1].identity, cert_name)
        return msg.build(**{**msg.parse(term, "adv"), "cert": cert})
    return rewrite


def notes_of_one_download(rewrite, scenario=1, recs=frozenset()):
    w = build_world(ScenarioConfig("ds", scenario, False, recs))
    w.request_profile(VICTIM)
    result = relay(w, w.download(VICTIM, intercepted=True), rewrite)
    assert not result.completed
    return [e.render() for e in w.trace.entries if isinstance(e, Note)]


class TestReceivers:
    @pytest.mark.parametrize("stage, note", [
        ("m4", "abort euicc: bad signature on server auth"),
        ("m7", "abort server: bad signature on client auth"),
        ("m8", "abort euicc: bad signature on profile binding"),
        ("m11", "abort server: bad signature on key exchange"),
        ("m12", "abort euicc: bad signature on key exchange"),
        ("m15", "abort server: bad signature on notification"),
    ], ids=["m4-euicc", "m7-server", "m8-euicc", "m11-server", "m12-euicc",
            "m15-server"])
    def test_a_rogue_signature_stops_at_its_receiver(self, stage, note):
        assert notes_of_one_download(rogue_signed(stage)) \
            == [f"note {note}: signature key mismatch"]

    @pytest.mark.parametrize("stage, cert, note", [
        ("m4", "cert_sp", "abort euicc: certificate policy "
         "policy-profile-binding unfit for context policy-server-auth"),
        ("m7", "cert_sa", "abort server: certificate policy "
         "policy-server-auth unfit for context policy-euicc"),
        ("m8", "cert_sa", "abort euicc: certificate policy "
         "policy-server-auth unfit for context policy-profile-binding"),
    ], ids=["m4-euicc", "m7-server", "m8-euicc"])
    def test_a_certificate_of_the_wrong_policy_stops_at_its_receiver(
            self, stage, cert, note):
        # scenario 2: the adversary holds the intended server's certificates
        assert notes_of_one_download(cert_swapped(stage, cert),
                                     scenario=2) == [f"note {note}"]

    def test_another_servers_signature_stops_at_the_expected_oid(self):
        # scenario 5: the second server's leaked key signs m4 over the dialed
        # name, under a certificate for its own oid.  Under R2 the eUICC is
        # told which oid to expect, and it compares the certificate's with
        # it whether or not R7 puts the oid inside the signature
        def rewrite(world, stage, term):
            if stage != "m4":
                return term
            other = world.servers[SERVER2].identity
            return M4.sign(other.sk_sa, **{**M4.read(term), "cert": other.cert_sa})

        assert notes_of_one_download(rewrite, scenario=5, recs=frozenset({"R2"})) \
            == ["note abort euicc: server oid differs from expected oid"]

    def test_another_servers_binding_stops_at_the_server_oid(self):
        # the second server's leaked binding key signs m8 for the session the
        # intended server authenticated at m4
        def rewrite(world, stage, term):
            if stage != "m8":
                return term
            other = world.servers[SERVER2].identity
            return M8.sign(other.sk_sp, **{**M8.read(term), "cert": other.cert_sp})

        assert notes_of_one_download(rewrite, scenario=5) \
            == ["note abort euicc: profile-binding oid differs from server oid"]

    @pytest.mark.parametrize("garble, reason", [
        (lambda term: M4.build(**{**M4.parse(term, "adv"), "sig": Atom("unsigned")}),
         "not a signature"),
        # as at m12, the block quotes the abort's reason only
        (lambda term: pairs([Atom("m4-retagged"), *M4.decode(term)[1].values()]),
         "unexpected message tag"),
    ], ids=["unsigned", "retagged"])
    def test_the_lpa_blocks_an_unreadable_server_message(self, garble, reason):
        def rewrite(world, stage, term):
            return garble(term) if stage == "m4" else term

        assert notes_of_one_download(rewrite) == [
            f"note blocked lpa-{VICTIM}: m4: unreadable server message: {reason}"]

    def test_the_lpa_blocks_an_m12_under_another_tag(self):
        # the block quotes the abort's reason, not its receiver prefix
        def rewrite(world, stage, term):
            if stage != "m12":
                return term
            _, fields = M12.decode(term)
            return pairs([Atom("m12-retagged"), *fields.values()])

        assert notes_of_one_download(rewrite) == [
            f"note blocked lpa-{VICTIM}: m12: unreadable operator message: "
            "unexpected message tag"]

    def test_the_euicc_refuses_a_binding_before_the_server_auth(self):
        w = build_world(ScenarioConfig("ds", 1, False))
        euicc = w.euiccs[VICTIM_EID]
        euicc.begin_session()
        m8 = M8.build(sig=Atom("sig"), cert=Atom("cert"))
        with pytest.raises(ProtocolAbort) as exc:
            euicc.process_msg8(m8)
        assert (exc.value.who, exc.value.reason) == ("euicc", "message out of phase")

    def test_a_careful_user_blocks_an_m12_of_another_operator(self):
        def rewrite(world, stage, term):
            if stage != "m12":
                return term
            return M12.build(**{**M12.parse(term, "adv"), "mno": Atom("mno2")})

        assert notes_of_one_download(rewrite) == [
            f"note blocked lpa-{VICTIM}: m12: operator id mno2 does not match "
            "the expected mno1"]
