"""
Channels, the client-to-server tunnel, and the adversary's action surface.

Four channel kinds exist.  The MNO-to-server and LPA-to-eUICC channels are
private unless a matching endpoint compromise grants the adversary proxy
access.  The user-to-MNO channel is private except under the ordering-fraud
modes.  The LPA-to-server channel is the battleground: without the
transport tunnel every request and response is adversary-readable and
-writable; with the tunnel, each request/response pair is confidential and
integral end to end, and only the legitimate holder of the dialed server's
transport key can stand in the middle.  The tunnel deliberately provides no
cross-request session continuity; the application carries that in the
transaction id.

The one rule that keeps attack scripts honest: every term the adversary
sends must be deducible from its knowledge when it sends it.  Interception
hooks and fabricated responses all funnel through that gate, and the trace
records enough to re-check it after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .events import MessageOp, Note
from .roles import MSG_ERROR, ProtocolAbort
from .terms import Atom, Term

CH_MNO_SERVER = "mno_server_private"
CH_USER_MNO = "user_mno_private"
CH_LPA_SERVER = "lpa_server_public"
CH_LPA_EUICC = "lpa_euicc_internal"

RESPONSE_STAGE = {"m3": "m4", "m7": "m8", "m11": "m12", "m15": "m16"}


class GateViolation(Exception):
    """An adversary action needed a term it cannot derive."""


class Drop:
    """Hook directive: swallow the message, the session stalls."""


class Middlebox:
    """Adversary logic attached to one download's tunnel.

    ``terminates=True`` means the adversary is the far end (server
    impersonation / redirection); otherwise hooks see traffic in flight.
    """

    terminates = False

    def on_request(self, world, stage: str, term: Term):
        return term

    def on_response(self, world, stage: str, term: Term):
        return term

    def serve(self, world, stage: str, term: Term) -> Term:
        raise NotImplementedError


@dataclass
class Tunnel:
    server: Optional[object]          # ServerProcess, or None when terminated by the adversary
    middlebox: Optional[Middlebox]    # may read/modify in flight
    client_is_adversary: bool         # adversary-side LPA sees its own plaintext


def tls_connect(world, dial: Atom, middlebox: Optional[Middlebox] = None,
                client_is_adversary: bool = False) -> Tunnel:
    """Resolve the far end of a client connection to `dial`.

    With the tunnel enabled the dialed certificate name pins the endpoint:
    a middlebox only gets in if the transport key of that name leaked.
    Without the tunnel the network adversary may freely intercept or answer.
    """
    server = world.servers.get(dial.label)
    if middlebox is not None:
        if world.cfg.tls and dial.label not in world.compromised_servers:
            raise GateViolation(
                f"cannot intercept tunnel to {dial.label}: transport key not held")
        if middlebox.terminates:
            return Tunnel(None, middlebox, client_is_adversary)
        if server is None:
            raise GateViolation(f"no server answers for {dial.label}")
        return Tunnel(server, middlebox, client_is_adversary)
    if server is None:
        raise GateViolation(f"no server answers for {dial.label}")
    return Tunnel(server, None, client_is_adversary)


def _visible_to_adversary(world, tun: Tunnel) -> bool:
    return (not world.cfg.tls) or tun.middlebox is not None or tun.client_is_adversary


def tunnel_send(world, tun: Tunnel, stage: str, request: Term) -> Term:
    """One request/response exchange on the LPA-to-server channel."""
    adv = world.adversary
    visible = _visible_to_adversary(world, tun)
    world.trace.append(MessageOp(CH_LPA_SERVER, f"lpa->server:{stage}", request))
    if visible:
        adv.learn(request)

    delivered = request
    mb = tun.middlebox
    if mb is not None:
        if tun.server is None:
            response = mb.serve(world, stage, request)
            adv.gate_send(CH_LPA_SERVER, f"fake-server->lpa:{stage}", response)
            return response
        directive = mb.on_request(world, stage, request)
        if isinstance(directive, Drop):
            world.trace.append(Note("blocked", "adversary", f"dropped {stage}"))
            raise ProtocolAbort("lpa", f"no response to {stage}")
        delivered = directive
        if delivered != request:
            adv.gate_send(CH_LPA_SERVER, f"adv->server:{stage}", delivered)

    try:
        response = tun.server.handle(delivered)
    except ProtocolAbort as exc:
        world.trace.append(Note("abort", exc.who, exc.reason))
        response = MSG_ERROR

    resp_stage = RESPONSE_STAGE.get(stage, stage)
    world.trace.append(MessageOp(CH_LPA_SERVER, f"server->lpa:{resp_stage}", response))
    if visible:
        adv.learn(response)
    if mb is not None:
        directive = mb.on_response(world, resp_stage, response)
        if directive != response:
            adv.gate_send(CH_LPA_SERVER, f"adv->lpa:{resp_stage}", directive)
            response = directive
    return response


# ---------------------------------------------------------------------------
# Adversary-driven connections (anonymous client is a base capability)
# ---------------------------------------------------------------------------

def adversary_request(world, dial: Atom, request: Term) -> Term:
    """Open-tunnel request from the adversary itself; fully gated, and the
    adversary reads its own responses even when the tunnel is on."""
    server = world.servers.get(dial.label)
    if server is None:
        raise GateViolation(f"no server answers for {dial.label}")
    adv = world.adversary
    adv.gate_send(CH_LPA_SERVER, "adv->server", request)
    try:
        response = server.handle(request)
    except ProtocolAbort as exc:
        world.trace.append(Note("abort", exc.who, exc.reason))
        response = MSG_ERROR
    world.trace.append(MessageOp(CH_LPA_SERVER, "server->adv", response))
    adv.learn(response)
    return response
