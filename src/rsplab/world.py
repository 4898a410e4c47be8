"""
The world: identities, channels, the adversary, and the two end-to-end
flows (profile ordering, profile download) that scripts drive.

A world is built once per run from a scenario configuration and then driven
deterministically by a script: the honest script, an attack script, or a
negative control.  All mutation happens on this single-threaded object; the
principals' step functions are pure and the world mediates every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .events import ADVERSARY_USER, Event, LearnOp, MessageOp, Note, Trace
from .network import (CH_LPA_EUICC, CH_MNO_SERVER, CH_USER_MNO, GateViolation,
                      put_request, relay, tls_connect)
from .pki import Pki
from .roles import (CODE_DELIVERY, M2, M3, M5, MSG_ERROR, ORDER_REPLY,
                    ORDER_REQUEST, PROFILE_REQUEST, EuiccDevice, LpaContext,
                    Message, MnoProcess, Order, ProtocolAbort, ServerProcess,
                    lpa_check_msg12, lpa_check_msg4, lpa_check_msg8)
from .terms import Atom, FreshSource, Knowledge, NULL, Term


class Adversary:
    """Dolev-Yao attacker: observed knowledge plus the deduction gate."""

    def __init__(self, trace: Trace, fresh: FreshSource) -> None:
        self.trace = trace
        self.fresh = fresh
        self.knowledge = Knowledge()

    def learn(self, *terms: Term) -> None:
        for t in terms:
            if t not in self.knowledge.base:
                self.trace.append(LearnOp(t))
                self.knowledge.learn(t)

    def knows(self, t: Term) -> bool:
        return self.knowledge.deduce(t)

    def require(self, t: Term, what: str = "term") -> None:
        if not self.knows(t):
            raise GateViolation(f"adversary cannot derive {what}")

    def fresh_nonce(self, label: str = "adv-n") -> Term:
        n = self.fresh.nonce(label)
        self.learn(n)
        return n

    def fresh_dh(self, label: str = "adv-d") -> Term:
        d = self.fresh.dhpriv(label)
        self.learn(d)
        return d

    def gate_send(self, channel: str, direction: str, term: Term) -> None:
        self.require(term, f"message for {direction}")
        self.trace.append(MessageOp(channel, direction, term, by_adversary=True))


@dataclass
class UserAgent:
    atom: Atom
    euicc: str            # eid label of the owned device
    mno: str              # subscribed operator
    default_server_oid: Optional[Atom] = None  # stored by the LPA under R2


@dataclass
class Code:
    """Download initialization data: matching id, server name, optional oid."""
    iac: Term
    s: Atom
    oid: Optional[Atom] = None
    for_user: Optional[str] = None

    def message(self, msg: Message) -> Term:
        """The code on the wire, as an order reply or a code delivery."""
        return msg.build(iac=self.iac, s=self.s, oid=self.oid)


@dataclass
class DownloadResult:
    completed: bool
    stage: str
    reason: Optional[str] = None


class World:
    def __init__(self, cfg, pki: Pki) -> None:
        self.cfg = cfg
        self.ci = pki.ci
        self.fresh = pki.fresh.fork()
        self.trace = Trace()
        self.adversary = Adversary(self.trace, self.fresh)
        self.servers: dict[str, ServerProcess] = {}
        self.mnos: dict[str, MnoProcess] = {}
        self.users: dict[str, UserAgent] = {}
        self.euiccs: dict[str, EuiccDevice] = {}
        # what the adversary controls, as (kind, name) pairs such as
        # ("server", domain) or ("channel", mode); see scenarios.COMPROMISES
        self.grants: set[tuple[str, str]] = set()

    # -- plumbing ------------------------------------------------------------

    def emit(self, event: Event) -> None:
        self.trace.append(event)

    def note(self, kind: str, who: str, detail: str) -> None:
        self.trace.append(Note(kind, who, detail))

    def long_term_private_keys(self) -> list:
        keys: list[Term] = [self.ci.sk]
        for srv in self.servers.values():
            keys += [srv.identity.sk_tls, srv.identity.sk_sa, srv.identity.sk_sp]
        for dev in self.euiccs.values():
            keys.append(dev.identity.sk_u)
        return keys

    # -- profile ordering ------------------------------------------------------

    def _code_for(self, server: ServerProcess, order: Order) -> Code:
        """The activation code an order yields; it names the oid under R1."""
        oid = server.oid if "R1" in self.cfg.recs else None
        return Code(order.iac, server.domain, oid)

    def _mno_book_order(self, mno: MnoProcess, user_atom: Atom, eid: Term,
                        injected: bool = False) -> Optional[Code]:
        """MNO forwards the order on its private channel, or the adversary
        `injected` it there through the gate; the server prepares.
        Activation-code approach: returns the code the server replies with."""
        if self.cfg.approach == "ds" and eid is NULL:
            raise ValueError("default-server order needs an eUICC id")
        server = self.servers[mno.server_domain]
        request = ORDER_REQUEST.build(user=user_atom, mno=mno.atom, eid=eid)
        proxied = (("mno", mno.label) in self.grants
                   or ("server", mno.server_domain) in self.grants)
        sent = f"{mno.label}->server"
        if injected:
            self.adversary.gate_send(CH_MNO_SERVER, "adv-as-" + sent, request)
        else:
            self.trace.append(MessageOp(CH_MNO_SERVER, sent, request))
            if proxied:
                self.adversary.learn(request)
        order = server.create_order(user_atom, mno.atom, eid)
        if self.cfg.approach != "ac":
            return None
        code = self._code_for(server, order)
        reply = code.message(ORDER_REPLY)
        self.trace.append(MessageOp(CH_MNO_SERVER, f"server->{mno.label}", reply))
        if proxied:
            self.adversary.learn(reply)
        return code

    def request_profile(self, user_label: str) -> Optional[Code]:
        """Honest ordering flow for `user_label`'s own eUICC.

        Default-server approach: the user's intent is recorded at request
        time and the order names their eUICC.  Activation-code approach: the
        code travels back over the user channel and the intent event binds
        the code the user received.  A spoofed code arrives through
        `spoof_code_delivery` instead, with no intent behind it.
        """
        user = self.users[user_label]
        mno = self.mnos[user.mno]
        eid_atom = self.euiccs[user.euicc].eid
        request = PROFILE_REQUEST.build(user=user.atom, eid=eid_atom)
        self.trace.append(MessageOp(CH_USER_MNO, f"{user_label}->{mno.label}", request))
        if self.cfg.approach == "ds":
            self.emit(Event("INTENT", (user.atom, mno.atom, eid_atom, NULL)))
            self._mno_book_order(mno, user.atom, eid_atom)
            return None
        code = self._mno_book_order(mno, user.atom, eid_atom)
        code.for_user = user_label
        delivery = code.message(CODE_DELIVERY)
        self.trace.append(MessageOp(CH_USER_MNO, f"{mno.label}->{user_label}", delivery))
        if ("channel", "read-code") in self.grants:
            self.adversary.learn(delivery)
        if user_label == ADVERSARY_USER or ("lpa", user_label) in self.grants:
            # the adversary reads codes it legitimately receives, and a
            # subverted LPA leaks the ones passing through it
            self.adversary.learn(code.iac)
        self.emit(Event("INTENT", (user.atom, mno.atom, eid_atom, code.iac)))
        return code

    def fraud_order(self, mode: str, claimed_user: str, mno_label: str,
                    eid_label: Optional[str]) -> Optional[Code]:
        """Ordering fraud on the user channel: no honest intent exists.

        ``impersonate-user``: the adversary passes as `claimed_user`; the
        resulting profile/code lands in the adversary's hands (their device,
        in the default-server approach).  ``order-for-euicc``: the adversary
        orders under its own identity but names someone else's eUICC.
        """
        if ("channel", mode) not in self.grants:
            raise GateViolation(f"user channel does not permit {mode}")
        mno = self.mnos[mno_label]
        claimed = Atom(claimed_user)
        if mode == "impersonate-user":
            target_eid = self.euiccs[eid_label].eid if eid_label else NULL
        else:  # order-for-euicc
            target_eid = self.euiccs[eid_label].eid
        self.emit(Event("FraudOrder", (Atom(mode), claimed, target_eid)))
        code = self._mno_book_order(mno, claimed, target_eid)
        if code is not None:
            # the code goes back to whoever placed the order: the adversary
            self.adversary.learn(code.iac)
        return code

    def proxy_order(self, mno_label: str, user_atom: Atom, eid_label: Optional[str]) -> Optional[Code]:
        """Order injected straight onto a compromised MNO's server channel."""
        if ("mno", mno_label) not in self.grants:
            raise GateViolation(f"no proxy access to {mno_label}")
        eid = self.euiccs[eid_label].eid if eid_label else NULL
        return self._mno_book_order(self.mnos[mno_label], user_atom, eid, injected=True)

    def spoof_code_delivery(self, user_label: str, code: Code) -> Code:
        """Unsolicited or substituted code pushed at a user whose delivery
        channel integrity is compromised.  No intent event: the user never
        asked their operator for this."""
        if ("channel", "spoof-code") not in self.grants \
                and ("lpa", user_label) not in self.grants:
            raise GateViolation("user channel integrity is intact")
        self.adversary.gate_send(CH_USER_MNO, f"adv->{user_label}",
                                 code.message(CODE_DELIVERY))
        return Code(code.iac, code.s, code.oid, for_user=user_label)

    def adversary_code(self, iac: Term, s: Atom, oid: Optional[Atom] = None) -> Code:
        """A code the adversary intends to type into a device it controls;
        only constructible if the matching id is actually derivable."""
        self.adversary.require(iac, "activation code")
        return Code(iac, s, oid, for_user=None)

    # -- profile download ------------------------------------------------------

    def start_download(self, user_label: str, code: Optional[Code] = None,
                       inject_code: Optional[Code] = None) -> DownloadResult:
        """One download attempt for `user_label`'s device, each request
        delivered honestly: a relay that rewrites nothing."""
        return relay(self, self.download(user_label, code, inject_code),
                     lambda world, stage, term: term)

    def download(self, user_label: str, code: Optional[Code] = None,
                 inject_code: Optional[Code] = None, intercepted: bool = False):
        """One download attempt for `user_label`'s device, as a resumable
        session: it yields (tunnel, stage, request) for each request it puts
        on the LPA-to-server channel, is sent the response, and returns the
        DownloadResult.  `intercepted` puts the adversary in the connection,
        which the tunnel allows only with the dialed server's transport key.
        An abort thrown into the session ends it like one raised inside."""
        cfg = self.cfg
        user = self.users[user_label]
        device = self.euiccs[user.euicc]
        adversary_client = (user_label == ADVERSARY_USER)
        lpa_compromised = ("lpa", user_label) in self.grants

        if cfg.approach == "ac":
            if code is None:
                raise ValueError("activation-code download needs a code")
            if code.for_user not in (user_label,) and not adversary_client:
                raise GateViolation("code was not delivered to this user")
            if code.for_user is None and adversary_client:
                self.adversary.require(code.iac, "activation code")
            dial_to = code.s
            iac = code.iac
            expected_oid = code.oid if "R1" in cfg.recs else None
        else:
            dial_to = device.identity.default_server
            iac = NULL
            expected_oid = user.default_server_oid

        if lpa_compromised:
            # a subverted LPA leaks whatever passes through its hands
            if iac is not NULL:
                self.adversary.learn(iac)
            if inject_code is not None:
                self.adversary.require(inject_code.iac, "injected code")
                iac = inject_code.iac
        elif inject_code is not None:
            raise GateViolation("only a compromised LPA can swap the code")

        ctx = LpaContext(
            dial=dial_to,
            expected_mno=None if adversary_client else self.mnos[user.mno].atom,
            expected_oid=expected_oid, strict=cfg.lpa_strict,
            careless=cfg.careless_user or adversary_client or lpa_compromised)

        tun = tls_connect(self, dial_to, intercepted,
                          client_is_adversary=adversary_client or lpa_compromised)

        # challenge from the secure element, relayed to the server in m3
        m2 = device.begin_session()
        self.trace.append(MessageOp(CH_LPA_EUICC, "euicc->lpa:m2", m2))
        challenge = M2.parse(m2, "lpa")
        ctx.n_u = challenge["n_u"]

        def blocked(stage: str, reason: str) -> DownloadResult:
            self.note("blocked", f"lpa-{user_label}", f"{stage}: {reason}")
            return DownloadResult(False, stage, reason)

        try:
            m4 = yield put_request(self, tun, "m3", M3.build(**challenge))
            if m4 == MSG_ERROR:
                return DownloadResult(False, "m3", "server abort")
            reason = lpa_check_msg4(ctx, self, m4)
            if reason:
                return blocked("m4", reason)
            ctx5 = M5.build(iac=iac)
            self.trace.append(MessageOp(CH_LPA_EUICC, "lpa->euicc:m5", ctx5))
            device.set_context(iac, expected_oid)
            m7 = device.process_msg4(m4)
            self.trace.append(MessageOp(CH_LPA_EUICC, "euicc->lpa:m7", m7))

            m8 = yield put_request(self, tun, "m7", m7)
            if m8 == MSG_ERROR:
                return DownloadResult(False, "m7", "server abort")
            reason = lpa_check_msg8(ctx, self, m8)
            if reason:
                return blocked("m8", reason)
            m11 = device.process_msg8(m8)
            self.trace.append(MessageOp(CH_LPA_EUICC, "euicc->lpa:m11", m11))

            m12 = yield put_request(self, tun, "m11", m11)
            if m12 == MSG_ERROR:
                return DownloadResult(False, "m11", "server abort")
            reason = lpa_check_msg12(ctx, self, m12)
            if reason:
                return blocked("m12", reason)
            m15 = device.process_msg12(m12)
            self.trace.append(MessageOp(CH_LPA_EUICC, "euicc->lpa:m15", m15))

            m16 = yield put_request(self, tun, "m15", m15)
            self.trace.append(MessageOp(CH_LPA_EUICC, "lpa->euicc:m17",
                                        Atom("notification-delete-ack")))
            return DownloadResult(m16 != MSG_ERROR, "done",
                                  None if m16 != MSG_ERROR else "notification rejected")
        except ProtocolAbort as exc:
            self.note("abort", exc.who, exc.reason)
            return DownloadResult(False, exc.who, exc.reason)
