"""
Principal state machines: download server, eUICC, MNO.  The LPA is the
download session itself, ``World.download``.

The wire format is a small tagged-tuple grammar over terms.  Only the
security-relevant content is modeled; transport framing, capability lists
and error codes are out of scope.  Message numbers follow the common
handshake: 2/3 carry the eUICC challenge, 4 the signed server identity,
7 the signed client response (with the activation code, if any), 8/9 the
profile-binding signature, 11 the client key-exchange share, 12/13 the
server share plus the encrypted profile and MAC-protected operator id,
15/16 the signed install notification and its acknowledgement.

Every verification clause is one explicit abort site.  A failed check
raises ProtocolAbort; the transport layer records the abort in the trace
and the session dies without emitting its next progress event.  Every
receiver of a signed message, the eUICC and the server, verifies it
through one schema method, ``Message.open``: both tags and shapes, the
certificate where the message carries one, and the signature, memoized per
interned term.  The LPA, which scenario 4 compromises, verifies nothing.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Optional

from .events import Event
from .pki import (POLICY_EUICC, POLICY_PROFILE_BINDING, POLICY_SERVER_AUTH,
                  CertError, Certificate, EuiccIdentity, ServerIdentity,
                  verify_cert)
from .terms import (Atom, DhPub, NULL, Nonce, Pair, PrivKey, PubKey,
                    SealError, Sign, Term, dh_pub, dh_shared, kdf, pairs, seal,
                    unpairs, unseal)

MSG_OK = Atom("ok")
MSG_ERROR = Atom("error")


class ProtocolAbort(Exception):
    """A receiver-side verification failed; the session must stop here."""

    def __init__(self, who: str, reason: str) -> None:
        self.who = who
        self.reason = reason

    def __str__(self) -> str:
        return f"{self.who}: {self.reason}"


# ---------------------------------------------------------------------------
# Message schema: the only place that knows tags, field order and which
# recommendation adds a field (shared by roles, attack scripts and tests)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Message:
    """A tagged tuple: the tag atom, then the fields in wire order.  At most
    one optional field, always last, is on the wire exactly when
    recommendation `rec` is in force.  A signed message has a `body`: its
    ``sig`` field is a signature over that message, which a bad signature
    abort calls `what`.  One with a certificate `policy` is verified under
    its own ``cert`` field.  Compared and hashed by identity, as part of
    the key of ``build``'s, ``sign``'s, ``decode``'s and ``open``'s memos."""
    tag: Atom
    fields: tuple
    optional: Optional[str] = None
    rec: Optional[str] = None
    body: Optional[Message] = None
    what: Optional[str] = None
    policy: Optional[Atom] = None

    def names(self, recs=frozenset()) -> tuple:
        if self.optional is not None and self.rec in recs:
            return self.fields + (self.optional,)
        return self.fields

    @functools.cache
    def build(self, **values: Term) -> Term:
        """Encode the fields by name; the optional one is left off when None.
        Memoized by the message and the names and values in call order."""
        items = [self.tag] + [values.pop(name) for name in self.fields]
        extra = values.pop(self.optional, None)
        if values:
            raise TypeError(f"{self.tag.label} has no field {sorted(values)[0]}")
        return pairs(items + ([extra] if extra is not None else []))

    @functools.cache
    def sign(self, key: PrivKey, recs=frozenset(), **fields: Term) -> Term:
        """Sign the body's fields with `key` and build the message from the
        signature and the remaining fields.  The body's optional field is
        left off unless `recs` holds its recommendation.  Memoized like
        ``build``."""
        body = {name: fields.pop(name) for name in self.body.names(recs)}
        fields.pop(self.body.optional, None)
        return self.build(sig=seal("sign", key, self.body.build(**body)), **fields)

    def read(self, term: Term, recs=frozenset()) -> dict:
        """The fields of a signed message and of its body as one dict, the
        signature and the tags unchecked; SealError if short or unsigned.
        Re-sign with a change:
        ``M.sign(key, recs, **{**M.read(term, recs), name: value})``."""
        _, fields = self.decode(term)
        sig = fields.pop("sig")
        if not isinstance(sig, Sign):
            raise SealError("not a signature")
        _, body = self.body.decode(sig.body, recs)
        return {**fields, **body}

    def open(self, term: Term, who: str, trust, recs=frozenset()) -> dict:
        """What ``read`` returns, with both tags and shapes checked and the
        signature verified, or ProtocolAbort for `who`.  With a `policy`,
        `trust` is the CI root, which must certify the ``cert`` field under
        that policy; the dict holds it as a ``Certificate``, and the
        signature is verified under its key.  Otherwise `trust` is the
        signer's public key.  Each call returns a new dict."""
        return self._open(term, who, trust, recs).copy()

    @functools.cache
    def _open(self, term: Term, who: str, trust, recs: frozenset) -> dict:
        """``open``, memoized by the message and every argument."""
        fields = self.parse(term, who)
        key = trust
        if self.policy is not None:
            try:
                fields["cert"] = verify_cert(fields["cert"], trust, self.policy)
            except CertError as exc:
                raise ProtocolAbort(who, str(exc)) from exc
            key = fields["cert"].subject_key
        try:
            body = unseal("sign", key, fields.pop("sig"))
        except SealError as exc:
            raise ProtocolAbort(who, f"bad signature on {self.what}: {exc}") from exc
        return {**fields, **self.body.parse(body, who, recs)}

    def decode(self, term: Term, recs=frozenset()) -> tuple[Term, dict]:
        """(tag, fields by name) without checking the tag; SealError if short.
        Each call returns a new dict, so the caller may change it."""
        tag, fields = self._decode(term, recs)
        return tag, fields.copy()

    @functools.cache
    def _decode(self, term: Term, recs: frozenset) -> tuple[Term, dict]:
        """``decode``, memoized by the message, the term and `recs`."""
        names = self.names(recs)
        tag, *values = unpairs(term, len(names) + 1)
        return tag, dict(zip(names, values))

    def parse(self, term: Term, who: str, recs=frozenset()) -> dict:
        """Fields by name, or ProtocolAbort for `who` on a bad shape or tag."""
        try:
            tag, values = self.decode(term, recs)
        except SealError as exc:
            raise ProtocolAbort(who, f"malformed message: {exc}") from exc
        if tag != self.tag:
            raise ProtocolAbort(who, "unexpected message tag")
        return values


M2 = Message(Atom("m2-challenge"), ("n_u", "ski"))
M3 = Message(Atom("m3-init"), ("n_u", "ski"))
SIG4 = Message(Atom("sig4"), ("n_u", "n_s", "it", "s"), "oid", "R7")
M4 = Message(Atom("m4-server-auth"), ("sig", "cert"), body=SIG4,
             what="server auth", policy=POLICY_SERVER_AUTH)
M5 = Message(Atom("m5-code-to-euicc"), ("iac",))
SIG7 = Message(Atom("sig7"), ("n_s", "it", "s", "iac"), "oid", "R7")
M7 = Message(Atom("m7-client-auth"), ("sig", "cert"), body=SIG7,
             what="client auth", policy=POLICY_EUICC)
SIG8 = Message(Atom("sig8"), ("it",), "eid", "R9")
M8 = Message(Atom("m8-profile-binding"), ("sig", "cert"), body=SIG8,
             what="profile binding", policy=POLICY_PROFILE_BINDING)
SIG11 = Message(Atom("sig11"), ("it", "q_u"))
M11 = Message(Atom("m11-client-share"), ("sig",), body=SIG11,
              what="key exchange")
SIG12 = Message(Atom("sig12"), ("it", "q_s", "q_u"))
M12 = Message(Atom("m12-profile-delivery"),
              ("sig", "enc", "mac_enc", "mno", "mac_mno"), body=SIG12,
              what="key exchange")
SIG15 = Message(Atom("sig15"), ("s", "oid", "it"))
M15 = Message(Atom("m15-notification"), ("sig",), body=SIG15,
              what="notification")
PROFILE_REQUEST = Message(Atom("profile-request"), ("user", "eid"))
ORDER_REQUEST = Message(Atom("order-request"), ("user", "mno", "eid"))
ORDER_REPLY = Message(Atom("order-reply"), ("iac", "s"), "oid", "R1")
CODE_DELIVERY = Message(Atom("code-delivery"), ("iac", "s"), "oid", "R1")


def delivery(ident, eid: Term, it: Term, d_s: Term, q_u: Term, profile: Term,
             mno: Term) -> tuple[Term, Term]:
    """(session key, m12): `profile` delivered under server `ident`'s
    binding key to eUICC `eid`, keyed by the server's DH private share `d_s`
    and the client share `q_u`."""
    shared = dh_shared(d_s, q_u)
    k = kdf(shared, ident.oid, eid, "enc")
    k_mac = kdf(shared, ident.oid, eid, "mac")
    enc = seal("senc", k, profile)
    return k, M12.sign(ident.sk_sp, it=it, q_s=dh_pub(d_s), q_u=q_u, enc=enc,
                       mac_enc=seal("mac", k_mac, enc), mno=mno,
                       mac_mno=seal("mac", k_mac, mno))


# ---------------------------------------------------------------------------
# Orders and the download server
# ---------------------------------------------------------------------------

@dataclass
class Order:
    user: Atom
    mno: Atom
    eid: Term              # target/registered eUICC id, or NULL
    profile: Term
    iac: Term              # activation code nonce, or NULL
    served_count: int = 0


@dataclass
class ServerSession:
    it: Nonce
    n_s: Nonce
    n_u: Term
    phase: str = "await7"                  # await7 -> await11 -> await15 -> done
    order: Optional[Order] = None
    peer_eid: Optional[Term] = None
    peer_key: Optional[PubKey] = None


class ServerProcess:
    """One download server: an order store plus per-transaction sessions.

    A session is created for each incoming handshake request.  Its start
    event announces the order the server currently expects to serve (the
    oldest unserved one); the order actually served is selected when the
    authenticated client response arrives, by activation code or by the
    certified eUICC id.
    """

    def __init__(self, world, identity: ServerIdentity) -> None:
        # weak: the world owns its roles, and a dropped world must be freed
        # by reference counting alone
        self.world = weakref.proxy(world)
        self.identity = identity
        self.orders: list[Order] = []
        self.sessions: dict = {}

    # convenience
    @property
    def domain(self) -> Atom:
        return self.identity.domain

    @property
    def subject(self) -> Atom:
        return self.identity.subject

    @property
    def oid(self) -> Atom:
        return self.identity.oid

    def _recs(self) -> frozenset:
        return self.world.cfg.recs

    def create_order(self, user: Atom, mno: Atom, eid: Term) -> Order:
        """Prepare a profile; activation-code approach also mints the code."""
        world = self.world
        secret = world.fresh.nonce("profile-secret")
        profile = Pair(Atom(f"profile-{mno.label}"), secret)
        if world.cfg.approach == "ac":
            iac = world.fresh.nonce("iac")
            registered = eid if "R3" in self._recs() else NULL
            order = Order(user, mno, registered, profile, iac)
        else:
            if eid is NULL:
                raise ValueError("default-server orders must name an eUICC")
            order = Order(user, mno, eid, profile, NULL)
        self.orders.append(order)
        world.trace.append(Event.ORDER(uid=user, mno=mno, S=self.domain, U=order.eid,
                                       P=profile, iac=order.iac))
        return order

    # -- request dispatch ----------------------------------------------------

    def handle(self, term: Term) -> Term:
        handler = self._HANDLERS.get(term.left) if isinstance(term, Pair) else None
        if handler is None:
            raise ProtocolAbort("server", "unknown request")
        return handler(self, term)

    def _announced_order(self) -> Optional[Order]:
        for o in self.orders:
            if o.served_count == 0:
                return o
        return self.orders[0] if self.orders else None

    def _handle_init(self, term: Term) -> Term:
        world = self.world
        m3 = M3.parse(term, "server")
        n_u = m3["n_u"]
        if m3["ski"] != world.ci.ski:
            raise ProtocolAbort("server", "unsupported root key identifier")
        n_s = world.fresh.nonce("n-s")
        it = world.fresh.nonce("i-t")
        session = ServerSession(it=it, n_s=n_s, n_u=n_u)
        self.sessions[it] = session
        announced = self._announced_order()
        world.trace.append(Event.S0(Sa=self.subject, It=it, S=self.domain,
                                    mno=announced.mno if announced else NULL,
                                    iac=announced.iac if announced else NULL))
        return M4.sign(self.identity.sk_sa, self._recs(), n_u=n_u, n_s=n_s,
                       it=it, s=self.domain, oid=self.oid,
                       cert=self.identity.cert_sa)

    def _session_for(self, it: Term, phase: str) -> ServerSession:
        session = self.sessions.get(it)
        if session is None:
            raise ProtocolAbort("server", "unknown transaction id")
        if session.phase != phase:
            raise ProtocolAbort("server", f"message out of phase ({session.phase})")
        return session

    def _select_order(self, cert: Certificate, iac: Term) -> Order:
        if self.world.cfg.approach == "ac":
            if iac is NULL:
                raise ProtocolAbort("server", "missing activation code")
            matches = [o for o in self.orders if o.iac == iac]
            if not matches:
                raise ProtocolAbort("server", "unknown activation code")
            order = matches[0]
            if "R3" in self._recs():
                if order.eid is NULL or order.eid != cert.subject:
                    raise ProtocolAbort("server", "eUICC not registered for this code")
            return order
        # default-server approach: select by the certified eUICC identifier
        if iac is not NULL:
            raise ProtocolAbort("server", "unexpected activation code")
        matches = [o for o in self.orders if o.eid == cert.subject]
        if not matches:
            raise ProtocolAbort("server", "no profile for this eUICC")
        unserved = [o for o in matches if o.served_count == 0]
        return unserved[0] if unserved else matches[0]

    def _handle_auth_client(self, term: Term) -> Term:
        world = self.world
        recs = self._recs()
        body = M7.open(term, "server", world.ci, recs)
        cert = body["cert"]
        session = self._session_for(body["it"], "await7")
        if body["n_s"] != session.n_s:
            raise ProtocolAbort("server", "challenge mismatch")
        if "R8" in recs and body["s"] != self.domain:
            raise ProtocolAbort("server", "client dialed a different server name")
        if "R7" in recs and body["oid"] != self.oid:
            raise ProtocolAbort("server", "client authenticated a different server oid")
        order = self._select_order(cert, body["iac"])
        order.served_count += 1
        session.order = order
        session.peer_eid = cert.subject
        session.peer_key = cert.subject_key
        session.phase = "await11"
        world.trace.append(Event.S1(U=cert.subject, Sa=self.subject, Sp=self.subject,
                                    It=session.it, mno=order.mno, iac=order.iac))
        return M8.sign(self.identity.sk_sp, recs, it=session.it,
                       eid=cert.subject, cert=self.identity.cert_sp)

    def _open_from_peer(self, msg: Message, term: Term,
                        phase: str) -> tuple[ServerSession, dict]:
        """The session in `phase` that the signed `msg`'s unverified
        transaction id names, and `msg` opened under that session peer's
        key."""
        try:
            it = msg.read(term)["it"]
        except SealError as exc:
            raise ProtocolAbort("server", f"malformed {msg.what} body: {exc}") from exc
        session = self._session_for(it, phase)
        return session, msg.open(term, "server", session.peer_key)

    def _handle_key_exchange(self, term: Term) -> Term:
        world = self.world
        session, body = self._open_from_peer(M11, term, "await11")
        q_u = body["q_u"]
        if not isinstance(q_u, DhPub):
            raise ProtocolAbort("server", "client share is not a DH point")
        world.trace.append(Event.RECV_QU(q_u=q_u))
        d_s = world.fresh.dhpriv("d-s")
        world.trace.append(Event.SENT_QS(q_s=dh_pub(d_s)))
        order = session.order
        k, m12 = delivery(self.identity, session.peer_eid, session.it, d_s, q_u,
                          order.profile, order.mno)
        session.phase = "await15"
        world.trace.append(Event.S2(U=session.peer_eid, Sa=self.subject,
                                    Sp=self.subject, It=session.it, k=k,
                                    P=order.profile, mno=order.mno, iac=order.iac))
        return m12

    def _handle_notification(self, term: Term) -> Term:
        world = self.world
        session, body = self._open_from_peer(M15, term, "await15")
        if body["oid"] != self.oid:
            raise ProtocolAbort("server", "notification names a different server oid")
        order = session.order
        session.phase = "done"
        world.trace.append(Event.S3(U=session.peer_eid, Sa=self.subject,
                                    Sp=self.subject, It=session.it,
                                    P=order.profile, S=body["s"], mno=order.mno))
        return MSG_OK

    _HANDLERS = {M3.tag: _handle_init, M7.tag: _handle_auth_client,
                 M11.tag: _handle_key_exchange, M15.tag: _handle_notification}


# ---------------------------------------------------------------------------
# eUICC
# ---------------------------------------------------------------------------

@dataclass
class EuiccSession:
    n_u: Nonce
    iac: Term = NULL
    expected_oid: Optional[Atom] = None
    phase: str = "await4"           # await4 -> await8 -> await12 -> done
    n_s: Optional[Term] = None
    it: Optional[Term] = None
    s: Optional[Term] = None
    sa_cert: Optional[Certificate] = None
    sp_cert: Optional[Certificate] = None
    d_u: Optional[Term] = None
    q_u: Optional[Term] = None


class EuiccDevice:
    """Secure element: runs one download session at a time."""

    def __init__(self, world, identity: EuiccIdentity) -> None:
        self.world = weakref.proxy(world)  # weak, as in ServerProcess
        self.identity = identity
        self.session: Optional[EuiccSession] = None

    @property
    def eid(self) -> Atom:
        return self.identity.eid

    def _recs(self) -> frozenset:
        return self.world.cfg.recs

    def begin_session(self) -> Term:
        world = self.world
        n_u = world.fresh.nonce("n-u")
        self.session = EuiccSession(n_u=n_u)
        default_s = self.identity.default_server if world.cfg.approach == "ds" else None
        world.trace.append(Event.U0(U=self.eid, S=default_s or NULL))
        return M2.build(n_u=n_u, ski=world.ci.ski)

    def set_context(self, iac: Term, expected_oid: Optional[Atom]) -> None:
        self.session.iac = iac
        self.session.expected_oid = expected_oid

    def _session_in(self, phase: str) -> EuiccSession:
        if self.session is None or self.session.phase != phase:
            raise ProtocolAbort("euicc", "message out of phase")
        return self.session

    def process_msg4(self, term: Term) -> Term:
        world = self.world
        recs = self._recs()
        session = self._session_in("await4")
        body = M4.open(term, "euicc", world.ci, recs)
        cert = body["cert"]
        n_s, it, s = body["n_s"], body["it"], body["s"]
        if body["n_u"] != session.n_u:
            raise ProtocolAbort("euicc", "challenge mismatch")
        if "R7" in recs and body["oid"] != cert.oid:
            raise ProtocolAbort("euicc", "signed oid differs from certificate oid")
        if session.expected_oid is not None and cert.oid != session.expected_oid:
            raise ProtocolAbort("euicc", "server oid differs from expected oid")
        session.n_s, session.it, session.s, session.sa_cert = n_s, it, s, cert
        session.phase = "await8"
        world.trace.append(Event.U1(U=self.eid, Sa=cert.subject, It=it, S=s))
        return M7.sign(self.identity.sk_u, recs, n_s=n_s, it=it, s=s,
                       iac=session.iac, oid=cert.oid, cert=self.identity.cert_u)

    def process_msg8(self, term: Term) -> Term:
        world = self.world
        recs = self._recs()
        session = self._session_in("await8")
        body = M8.open(term, "euicc", world.ci, recs)
        cert = body["cert"]
        if body["it"] != session.it:
            raise ProtocolAbort("euicc", "transaction id mismatch")
        if cert.oid != session.sa_cert.oid:
            raise ProtocolAbort("euicc", "profile-binding oid differs from server oid")
        if "R9" in recs and body["eid"] != self.eid:
            raise ProtocolAbort("euicc", "profile binding names a different eUICC")
        session.sp_cert = cert
        session.phase = "await12"
        world.trace.append(Event.U2(U=self.eid, Sa=session.sa_cert.subject,
                                    Sp=cert.subject, It=session.it))
        d_u = world.fresh.dhpriv("d-u")
        session.d_u, session.q_u = d_u, dh_pub(d_u)
        return M11.sign(self.identity.sk_u, it=session.it, q_u=session.q_u)

    def process_msg12(self, term: Term) -> Term:
        world = self.world
        session = self._session_in("await12")
        m12 = M12.open(term, "euicc", session.sp_cert.subject_key)
        enc, mno, q_s = m12["enc"], m12["mno"], m12["q_s"]
        if m12["it"] != session.it:
            raise ProtocolAbort("euicc", "transaction id mismatch")
        if m12["q_u"] != session.q_u:
            raise ProtocolAbort("euicc", "own key share missing from signature")
        if not isinstance(q_s, DhPub):
            raise ProtocolAbort("euicc", "server share is not a DH point")
        oid = session.sa_cert.oid
        shared = dh_shared(session.d_u, q_s)
        k = kdf(shared, oid, self.eid, "enc")
        k_mac = kdf(shared, oid, self.eid, "mac")
        try:
            if unseal("mac", k_mac, m12["mac_enc"]) != enc:
                raise SealError("mac body mismatch")
            if unseal("mac", k_mac, m12["mac_mno"]) != mno:
                raise SealError("mac body mismatch")
            profile = unseal("senc", k, enc)
        except SealError as exc:
            raise ProtocolAbort("euicc", f"download integrity failure: {exc}") from exc
        session.phase = "done"
        world.trace.append(Event.U3(U=self.eid, Sa=session.sa_cert.subject,
                                    Sp=session.sp_cert.subject, It=session.it,
                                    k=k, P=profile, mno=mno, iac=session.iac))
        return M15.sign(self.identity.sk_u, s=session.s, oid=oid, it=session.it)


# ---------------------------------------------------------------------------
# MNO
# ---------------------------------------------------------------------------

@dataclass
class MnoProcess:
    label: str
    atom: Atom
    server_domain: str
