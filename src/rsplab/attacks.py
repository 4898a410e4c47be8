"""
Deterministic adversary scripts, one per attack marker, negative controls,
and the capability audit.  A script holds each download session it attacks
(``World.download``): it relays the session with a rewrite of the traffic,
answers it as a server, or withholds a response.  A negative control that
guards an attack runs that attack's script and requires that it be stopped:
refused at the gate, or its download blocked.

Script ids match the superscripts in the expected-verdict fixture:

  1  stolen activation code replayed from the adversary's own device
  2  compromised intended server: impersonation and diverted delivery
  3  redirect to a second, compromised server (tunnel off)
  4  leaked victim eUICC key: full client impersonation
  5  captured code signed over with the adversary's own eUICC key
  6  self-ordered code downloaded under the victim's forged identity
  7  ordering fraud: adversary passes as the victim user
  8  leaked activation code used directly
  9  compromised LPA leaks, then swaps, the activation code
  a  order placed for the victim's eUICC; victim fetches the wrong profile
  b  activation code spoofed on delivery to the victim
  c  server signatures replaced with a second server's (misbinding)
  d  client signature replaced with another eUICC's (reverse misbinding)
  e  activation code replaced inside the signed client response
  f  codes exposed at a compromised server's ordering interface

Every adversary-originated term passes the deduction gate; a script that
needed an underivable term would crash the run, which is the point.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Optional

from .events import LearnOp, MessageOp
from .network import (CH_LPA_SERVER, GateViolation, adversary_request, relay,
                      server_reply)
from .pki import parse_certificate
from .roles import (M3, M4, M7, M8, M11, M12, M15, MSG_ERROR, STAGE_MESSAGES,
                    ProtocolAbort, delivery)
from .scenarios import (AC_SCENARIOS, ADV_EID, BYSTANDER, MNO1, MNO2, SERVER1,
                        SERVER2, VICTIM, VICTIM_EID, ScenarioConfig)
from .terms import Atom, Knowledge, NULL, Pair, Term, dh_pub, seal
from .world import ADVERSARY_USER, Code, DownloadResult, World


# ---------------------------------------------------------------------------
# Honest execution
# ---------------------------------------------------------------------------

def honest_script(world: World) -> None:
    """Order, download, notify: the baseline every world must support."""
    code = world.request_profile(VICTIM)
    result = world.start_download(VICTIM, code=code)
    world.trace.note("info", "harness", f"honest download completed={result.completed}")


# ---------------------------------------------------------------------------
# The adversary in a download session: rewrites for `relay`, and a server
# impersonator that answers the session itself
# ---------------------------------------------------------------------------

def fake_m12(world: World, ident, eid, it, q_u, mno, label: str) -> Term:
    """A delivery of a fake profile under `ident`'s binding key, keyed to
    the client share `q_u` and a fresh share of the adversary's own."""
    adv = world.adversary
    d = adv.fresh_dh(label)
    fake = Pair(Atom("profile-fake"), adv.fresh_nonce("fake-ki"))
    return delivery(ident, eid, it, d, q_u, fake, mno)[1]


def impersonate_server(world: World, lpa, ident):
    """Answer a whole download session with a leaked server identity,
    presenting the domain name the victim dialed and the victim's operator.
    Returns the session's DownloadResult."""
    adv = world.adversary
    recs = world.cfg.recs

    def answer(stage, response):
        adv.gate_send(CH_LPA_SERVER, f"fake-server->lpa:{stage}", response)
        return lpa.send(response)[2]

    try:
        tun, _, m3 = next(lpa)
        n_u = M3.parse(m3, "adv")["n_u"]
        n_s, it = adv.fresh_nonce("fake-ns"), adv.fresh_nonce("fake-it")
        m7 = answer("m3", M4.sign(ident.sk_sa, recs, n_u=n_u, n_s=n_s, it=it,
                                  s=tun.server.domain, oid=ident.oid,
                                  cert=ident.cert_sa))
        eid = parse_certificate(M7.parse(m7, "adv")["cert"])[0].subject
        m11 = answer("m7", M8.sign(ident.sk_sp, recs, it=it, eid=eid,
                                   cert=ident.cert_sp))
        q_u = M11.read(m11)["q_u"]
        answer("m11", fake_m12(world, ident, eid, it, q_u,
                               world.mnos[MNO1].atom, "fake-ds"))
        answer("m15", Atom("ok"))
    except StopIteration as done:
        return done.value


def diverge_delivery(ident, eid):
    """Relay the victim's session to the real server, then swap the final
    delivery for one of the adversary's own making (needs the profile-
    binding key).  Server and client end the run believing different
    profiles were installed.  `eid` names the enrolling eUICC."""
    def rewrite(world, stage, term):
        if stage != "m12" or term == MSG_ERROR:
            return term
        m12 = M12.read(term)
        return fake_m12(world, ident, eid, m12["it"], m12["q_u"], m12["mno"],
                        "diverge-ds")
    return rewrite


def resign(**stages):
    """A rewrite for `relay` that re-signs the message of each stage given
    as ``stage=(key, changes)``: signed with `key`, over its fields with
    `changes` applied.  `changes` may be a function of the world, called
    when its stage passes.  Other stages and error responses pass as they
    are."""
    def rewrite(world, stage, term):
        if stage not in stages or term == MSG_ERROR:
            return term
        key, changes = stages[stage]
        if callable(changes):
            changes = changes(world)
        msg, recs = STAGE_MESSAGES[stage], world.cfg.recs
        return msg.sign(key, recs, **{**msg.read(term, recs), **changes})
    return rewrite


# ---------------------------------------------------------------------------
# Adversary-driven client (forged identity, no secure element involved)
# ---------------------------------------------------------------------------

def fake_client_download(world: World, domain: str, cert_u, sk_u,
                         iac: Term = NULL, notify: bool = True,
                         qu_override: Optional[Term] = None) -> Optional[Term]:
    """Run the client side of a download with raw key material.  Returns
    the m12 delivery received, or None as soon as the server refuses."""
    adv = world.adversary
    dial = world.servers[domain].identity.domain
    recs = world.cfg.recs
    n_u = adv.fresh_nonce("forged-nu")
    m4 = adversary_request(world, dial, M3.build(n_u=n_u, ski=world.ci.ski))
    if m4 == MSG_ERROR:
        return None
    m4 = M4.read(m4, recs)
    oid = parse_certificate(m4["cert"])[0].oid
    it, s = m4["it"], m4["s"]
    m8 = adversary_request(world, dial, M7.sign(
        sk_u, recs, n_s=m4["n_s"], it=it, s=s, iac=iac, oid=oid, cert=cert_u))
    if m8 == MSG_ERROR:
        return None
    d = adv.fresh_dh("forged-d")
    q_u = qu_override if qu_override is not None else dh_pub(d)
    m12 = adversary_request(world, dial, M11.sign(sk_u, it=it, q_u=q_u))
    if m12 == MSG_ERROR:
        return None
    if notify:
        adversary_request(world, dial, M15.sign(sk_u, s=s, oid=oid, it=it))
    return m12


# ---------------------------------------------------------------------------
# Attack scripts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Script:
    """An attack or a negative control: its id, the configurations it runs
    in and what it runs.  Only an attack claims goals and explains itself."""
    id: str
    title: str
    applicable: Callable
    run: Callable
    claims: frozenset = frozenset()
    explanation: str = ""     # the narrative `rsp-lab explain` prints


def _use_stolen_code(world: World, code: Code) -> DownloadResult:
    # the download gates a code no user was handed on its derivability
    return world.start_download(ADVERSARY_USER,
                                code=Code(code.iac, code.s, code.oid))


def _script_1(world: World) -> Code:
    code = world.request_profile(VICTIM)
    world.start_download(VICTIM, code=code)  # code crosses the open channel
    _use_stolen_code(world, code)
    return code


def _script_2(world: World) -> None:
    code = world.request_profile(VICTIM)
    s1 = world.servers[SERVER1].identity
    impersonate_server(world, world.download(VICTIM, code, intercepted=True), s1)
    relay(world, world.download(VICTIM, code, intercepted=True),
          diverge_delivery(s1, world.euiccs[VICTIM_EID].eid))


def _script_3(world: World) -> None:
    code = world.request_profile(VICTIM)
    impersonate_server(world, world.download(VICTIM, code, intercepted=True),
                       world.servers[SERVER2].identity)


def _script_4(world: World) -> None:
    victim = world.euiccs[VICTIM_EID].identity
    if world.cfg.approach == "ds":
        world.request_profile(VICTIM)
        fake_client_download(world, SERVER1, victim.cert_u, victim.sk_u)
        return
    if world.cfg.tls:
        # inside the tunnel the victim's code is out of reach; a code from
        # the adversary's own subscription serves instead
        code = world.request_profile(ADVERSARY_USER)
        fake_client_download(world, SERVER1, victim.cert_u, victim.sk_u,
                             iac=code.iac)
        return
    # without the tunnel, capture the victim's own code mid-handshake; that
    # code stays valid even when orders pre-register the eUICC id
    code = world.request_profile(VICTIM)
    lpa = world.download(VICTIM, code, intercepted=True)
    tun, stage, m3 = next(lpa)
    lpa.send(server_reply(world, tun, stage, m3))  # the victim sends m7
    world.trace.note("blocked", "adversary", "dropped m7")
    with contextlib.suppress(StopIteration):
        lpa.throw(ProtocolAbort("lpa", "no response to m7"))
    world.adversary.require(code.iac, "captured code")
    fake_client_download(world, SERVER1, victim.cert_u, victim.sk_u,
                         iac=code.iac)


def _script_5(world: World) -> None:
    code = world.request_profile(VICTIM)
    own = world.euiccs[ADV_EID].identity
    # the client share is swapped for one the adversary draws as m11
    # passes: it then knows the session key the profile is delivered under
    relay(world, world.download(VICTIM, code, intercepted=True),
          resign(m7=(own.sk_u, {"cert": own.cert_u}),
                 m11=(own.sk_u, lambda world: {
                     "q_u": dh_pub(world.adversary.fresh_dh("swap-d"))})))


def _script_6(world: World) -> None:
    code = world.request_profile(ADVERSARY_USER)
    victim = world.euiccs[VICTIM_EID].identity
    fake_client_download(world, SERVER1, victim.cert_u, victim.sk_u,
                         iac=code.iac)


def _script_7(world: World) -> None:
    # the default-server approach yields no code: the order names the device
    code = world.fraud_order("impersonate-user", VICTIM, MNO1, ADV_EID)
    world.start_download(ADVERSARY_USER, code=code)


def _script_8(world: World) -> DownloadResult:
    # the code leaks on its way to the victim: a read delivery (8) or a
    # proxied ordering interface (f)
    return _use_stolen_code(world, world.request_profile(VICTIM))


def _script_9(world: World) -> None:
    code = _script_1(world)                      # subverted LPA leaks the code
    own = world.request_profile(ADVERSARY_USER)  # and can swap in its own
    world.start_download(VICTIM, code=code,
                         inject_code=Code(own.iac, own.s, own.oid))


def _script_a(world: World) -> None:
    world.fraud_order("order-for-euicc", ADVERSARY_USER, MNO1, VICTIM_EID)
    world.start_download(VICTIM)  # user fetches what looks like their profile


def _script_b(world: World) -> None:
    own = world.request_profile(ADVERSARY_USER)
    # the victim never ordered anything: the code just arrives, looking real
    code = world.spoof_code_delivery(VICTIM, Code(own.iac, own.s, own.oid))
    world.start_download(VICTIM, code=code)


def _script_c(world: World) -> DownloadResult:
    code = world.request_profile(VICTIM)
    other = world.servers[SERVER2].identity
    return relay(world, world.download(VICTIM, code, intercepted=True),
                 resign(m4=(other.sk_sa, {"cert": other.cert_sa}),
                        m8=(other.sk_sp, {"cert": other.cert_sp}),
                        m12=(other.sk_sp, {})))


def _script_d(world: World) -> DownloadResult:
    if ("euicc", ADV_EID) in world.grants:
        # adversary's own key: rewrite the victim's identity to its own
        signer, user = world.euiccs[ADV_EID].identity, VICTIM
        world.request_profile(ADVERSARY_USER)  # gives the server a matching order
    else:
        # victim's key leaked: rewrite an honest bystander's identity to the
        # victim's
        signer, user = world.euiccs[VICTIM_EID].identity, BYSTANDER
        world.request_profile(VICTIM)
    code = world.request_profile(user)
    return relay(world, world.download(user, code, intercepted=True),
                 resign(m7=(signer.sk_u, {"cert": signer.cert_u}),
                        m11=(signer.sk_u, {})))


def _script_e(world: World) -> None:
    code = world.request_profile(VICTIM)
    own = world.request_profile(ADVERSARY_USER)
    victim = world.euiccs[VICTIM_EID].identity
    relay(world, world.download(VICTIM, code, intercepted=True),
          resign(m7=(victim.sk_u, {"iac": own.iac, "cert": victim.cert_u})))


def _applies(scenarios, approach=None, tls=None):
    """A script's filter: one of `scenarios`, and the approach and tunnel
    setting where given."""
    return lambda cfg: (cfg.scenario in scenarios
                        and approach in (None, cfg.approach)
                        and tls in (None, cfg.tls))


# built once: the scripts are plain functions and their filters pure
_ATTACKS = (
    Script("1", "stolen activation code replay",
           _applies(AC_SCENARIOS, "ac", tls=False), _script_1,
           frozenset({"Bp", "G", "K"}),
           "Without the transport tunnel, the activation code crosses the open\n"
           "network inside the signed client response. The adversary reads it,\n"
           "types it into its own device, and downloads the victim's profile\n"
           "there. The order chain behind the server's acceptance (owner,\n"
           "intent, order) no longer exists, so Bp, G and K fail."),
    Script("2", "compromised server impersonation and diverted delivery",
           _applies({2}), _script_2,
           frozenset({"A", "C", "E", "F", "G", "I", "J", "X", "Z"}),
           "With every private key of the intended server, the adversary\n"
           "answers the victim's download itself (breaking all client-side\n"
           "goals and delivering a fake profile), or relays to the real\n"
           "server and swaps the final delivery, leaving the two ends with\n"
           "different beliefs about the installed profile (breaking G)."),
    Script("3", "redirection to a compromised second server",
           _applies({5}, tls=False), _script_3,
           frozenset({"A", "C", "E", "F", "I", "J", "X", "Z"}),
           "A compromised server elsewhere answers for the intended one: with\n"
           "the tunnel off, nothing pins the dialed name to the signer, the\n"
           "client only requires some authorized certificate. Every\n"
           "client-side goal fails and a fake profile is accepted."),
    Script("4", "client impersonation with the victim's eUICC key",
           _applies({3}), _script_4,
           frozenset({"B", "D", "G", "W", "Y"}),
           "Holding the victim eUICC's private key, the adversary runs the\n"
           "client handshake itself: the server authenticates 'the victim',\n"
           "derives keys with the adversary, and hands over the profile."),
    Script("5", "captured code under a forged client identity",
           _applies({6}, "ac", tls=False), _script_5,
           frozenset({"B", "D", "W", "Y"}),
           "The adversary captures the victim's activation code in flight and\n"
           "re-signs the client response with its own compromised eUICC key;\n"
           "the server serves the victim's profile to a session whose key the\n"
           "adversary knows, so the profile leaks."),
    Script("6", "self-ordered code under the victim's identity",
           _applies({3}, "ac"), _script_6,
           frozenset({"Bp", "G", "K"}),
           "The adversary orders a profile for itself, then downloads it while\n"
           "presenting the victim's forged identity: the server's records now\n"
           "bind the victim's eUICC to an order the victim never made."),
    Script("7", "profile ordered in the victim's name",
           _applies({8}), _script_7,
           frozenset({"Bp", "G", "K"}),
           "The adversary passes as the victim when ordering; the resulting\n"
           "profile (or code) lands in the adversary's device. The server's\n"
           "view traces back to no real user intent."),
    Script("8", "leaked activation code used directly",
           _applies({10}, "ac"), _script_8,
           frozenset({"Bp", "G", "K"}),
           "An activation code leaked anywhere along its path lets anyone\n"
           "download the associated profile onto any device; mobile service\n"
           "is then charged to the victim's account."),
    Script("9", "compromised LPA leaks and swaps the code",
           _applies({4}, "ac"), _script_9,
           frozenset({"Bp", "G", "J", "K"}),
           "A subverted LPA both leaks the code it is given (same effect as a\n"
           "leak anywhere else) and can feed the secure element a different\n"
           "code, installing a profile tied to someone else's subscription."),
    Script("a", "second profile ordered for the victim's eUICC",
           _applies({9}, "ds"), _script_a,
           frozenset({"Bp", "G", "J", "K"}),
           "The adversary orders a profile for the victim's eUICC under its\n"
           "own customer identity. When the victim's device next fetches from\n"
           "the default server, it may receive the adversary's profile: same\n"
           "operator name on the confirmation screen, wrong subscription."),
    Script("b", "activation code spoofed on delivery",
           _applies({11}, "ac"), _script_b,
           frozenset({"Bp", "G", "J", "K"}),
           "The code handed to the victim is replaced with one the adversary\n"
           "ordered for itself; the victim installs a profile billed to and\n"
           "controlled by the adversary's subscription."),
    Script("c", "server-side misbinding by signature replacement",
           lambda cfg: cfg.scenario == 2 or (cfg.scenario == 5 and not cfg.tls),
           _script_c,
           frozenset({"A", "B", "C", "D"}),
           "In-flight re-signing swaps which authorized server the client\n"
           "authenticates, while the real server still believes it owns the\n"
           "session: classic misbinding, prevented by naming the server oid\n"
           "inside the signed handshake."),
    Script("d", "client-side misbinding by signature replacement",
           _applies({3, 6}, tls=False), _script_d,
           frozenset({"C"}),
           "The mirror image on the client side: the signed client response is\n"
           "re-signed under a different eUICC identity, leaving client and\n"
           "server with different beliefs about who is enrolled. Detected at\n"
           "the key exchange, prevented by naming the eUICC in the binding."),
    Script("e", "activation code replaced inside the signed response",
           _applies({3}, "ac", tls=False), _script_e,
           frozenset({"E", "F", "J"}),
           "With the victim's signing key, the adversary rewrites the\n"
           "activation code inside the signed response: the victim completes\n"
           "a flawless-looking download of a profile from an order they never\n"
           "placed."),
    Script("f", "activation codes exposed at the compromised server",
           _applies({2}, "ac"), _script_8,
           frozenset({"Bp", "G", "K"}),
           "A fully compromised server exposes every activation code it\n"
           "issued; each such code is a ready-made profile theft, tunnel or\n"
           "no tunnel."),
)


def attack_registry() -> list[Script]:
    return list(_ATTACKS)


ATTACKS_BY_ID = {s.id: s for s in _ATTACKS}


# ---------------------------------------------------------------------------
# Negative controls: attacks that must NOT work, run to prove the checker
# and the protective checks are not trivially firing.  A control that guards
# an attack runs its script: the gate must refuse it, or its download must
# not complete.
# ---------------------------------------------------------------------------

def _refused(script, note: str) -> Callable:
    """A control: the gate refuses `script`, and the refusal is noted."""
    def control(world: World) -> None:
        try:
            script(world)
        except GateViolation:
            world.trace.note("info", "control", note)
            return
        raise AssertionError(f"not refused by the gate: {note}")
    return control


def _blocked(script, why: str) -> Callable:
    """A control: the download `script` ends with does not complete."""
    def control(world: World) -> None:
        assert not script(world).completed, why
    return control


def _ctl_tls_pins(world: World) -> None:
    code = world.request_profile(VICTIM)
    try:
        impersonate_server(world, world.download(VICTIM, code, intercepted=True),
                           world.servers[SERVER2].identity)
        raise AssertionError("tunnel failed to pin the dialed endpoint")
    except GateViolation:
        world.trace.note("info", "control", "tunnel interception refused as expected")
    world.start_download(VICTIM, code=code)


def _ctl_forgery_rejected(world: World) -> None:
    code = world.request_profile(VICTIM)
    world.start_download(VICTIM, code=code)
    victim = world.euiccs[VICTIM_EID].identity
    try:
        world.adversary.gate_send(CH_LPA_SERVER, "adv->server",
                                  seal("sign", victim.sk_u, Atom("anything")))
        raise AssertionError("honest-key signature should be unforgeable")
    except GateViolation:
        world.trace.note("info", "control", "signature forgery refused by the gate")


def _ctl_replayed_server_share(world: World) -> None:
    own = world.euiccs[ADV_EID].identity
    code = world.request_profile(ADVERSARY_USER)
    first = fake_client_download(world, SERVER1, own.cert_u, own.sk_u,
                                 iac=code.iac, notify=False)
    assert first is not None
    # replay the server's share from the first delivery as the client share
    # of a second run
    code2 = world.request_profile(ADVERSARY_USER)
    second = fake_client_download(world, SERVER1, own.cert_u, own.sk_u,
                                  iac=code2.iac, notify=False,
                                  qu_override=M12.read(first)["q_s"])
    if second is not None:
        # the replayed share pairs two server-side ephemerals; neither private
        # component ever leaves its owner, so the delivery must stay sealed
        assert not world.adversary.knows(M12.read(second)["enc"].body), \
            "replayed server share must not open the delivery"
    world.trace.note("info", "control", "replayed key share gained nothing")


def _ctl_notification_replay(world: World) -> None:
    code = world.request_profile(VICTIM)
    seen = {}  # each stage's term, recorded as an honest relay passes it on
    relay(world, world.download(VICTIM, code),
          lambda world, stage, term: seen.setdefault(stage, term))
    dial = world.servers[SERVER1].identity.domain
    reply = adversary_request(world, dial, seen["m15"])
    assert reply == MSG_ERROR, "replayed notification should be refused"
    s3_count = len(world.trace.events_tagged("S3"))
    assert s3_count == 1, f"expected one notification acceptance, saw {s3_count}"


def _ctl_mno_proxy_contained(world: World) -> None:
    # only a default-server order names the device
    eid = ADV_EID if world.cfg.approach == "ds" else None
    code = world.proxy_order(MNO2, Atom(ADVERSARY_USER), eid)
    world.start_download(ADVERSARY_USER, code=code)
    world.trace.note("info", "control", "proxied order affects only the rogue operator")


_CONTROLS = (
    Script("ctl-tls-pins", "tunnel pins the dialed endpoint",
           lambda c: c.scenario == 5 and c.tls, _ctl_tls_pins),
    Script("ctl-code-hidden", "tunnel hides the activation code",
           lambda c: c.approach == "ac" and c.scenario == 1 and c.tls,
           _refused(_script_1, "code underivable through the tunnel")),
    Script("ctl-no-forgery", "gate refuses honest-key forgeries",
           lambda c: c.scenario == 1, _ctl_forgery_rejected),
    Script("ctl-oid-pinning", "expected-oid check stops re-signing",
           lambda c: c.scenario == 5 and not c.tls
           and ("R2" in c.recs or "R1" in c.recs),
           _blocked(_script_c, "oid pinning should have blocked the re-signed "
                    "handshake")),
    Script("ctl-named-binding", "named binding stops identity swap",
           lambda c: c.scenario == 6 and not c.tls and "R9" in c.recs,
           _blocked(_script_d, "named profile binding should stop the swap")),
    Script("ctl-registered-eid", "registration stops stolen codes",
           lambda c: c.approach == "ac" and c.scenario == 10 and "R3" in c.recs,
           _blocked(_script_8, "registered eUICC id should stop a foreign "
                    "device")),
    Script("ctl-share-replay", "replaying the server share is useless",
           lambda c: c.approach == "ac" and c.scenario == 6 and not c.tls
           and not c.recs, _ctl_replayed_server_share),
    Script("ctl-notify-replay", "notification replay is refused",
           lambda c: c.scenario == 1 and not c.tls and c.approach == "ac",
           _ctl_notification_replay),
    Script("ctl-proxy-contained", "rogue operator is contained",
           lambda c: c.scenario == 7, _ctl_mno_proxy_contained),
)


def negative_controls(cfg: ScenarioConfig) -> list[Script]:
    return [c for c in _CONTROLS if c.applicable(cfg)]


# ---------------------------------------------------------------------------
# Capability audit
# ---------------------------------------------------------------------------

def audit_trace(trace) -> list[str]:
    """Re-derive every adversary send from the learns that preceded it, up
    to the last send: a later learn makes no earlier send derivable."""
    failures = []
    k = Knowledge()
    for i, entry in enumerate(trace.entries[:trace.last_send + 1]):
        if isinstance(entry, LearnOp):
            k.learn(entry.term)
        elif (isinstance(entry, MessageOp) and entry.by_adversary
              and not k.deduce(entry.term)):
            failures.append(f"entry {i}: sent term not derivable at send time")
    return failures
