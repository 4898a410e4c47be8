"""
Channels, the client-to-server tunnel, and the adversary's action surface.

Four channel kinds exist.  The MNO-to-server and LPA-to-eUICC channels are
private unless ``world.grants`` gives the adversary proxy access through a
compromised endpoint.  The user-to-MNO channel is private except under the
ordering-fraud grants.  The LPA-to-server channel is the battleground:
without the transport tunnel every request and response is
adversary-readable and -writable; with the tunnel, each request/response
pair is confidential and integral end to end, and only the legitimate
holder of the dialed server's transport key can stand in the middle;
`tls_connect` is that pin check.  The tunnel deliberately provides no
cross-request session continuity; the application carries that in the
transaction id.

A download is a session (``World.download``): a generator that puts each
request on the LPA-to-server channel with `put_request`, yields it, and is
sent the response.  Whoever holds the session schedules it.  `relay` lets
the adversary rewrite requests and responses in flight, and the honest
schedule is a relay that rewrites nothing; an attack script may
also answer a session itself, withhold a response by throwing an abort
into it, or hold one session while it runs others.  There are no hooks:
the channel does not know who is at the far end.

The one rule that keeps attack scripts honest: every term the adversary
sends must be deducible from its knowledge when it sends it.  Rewritten
messages and fabricated responses all funnel through that gate, and the
trace records enough to re-check it after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .roles import MSG_ERROR, ProtocolAbort
from .terms import Atom, Term

CH_MNO_SERVER = "mno_server_private"
CH_USER_MNO = "user_mno_private"
CH_LPA_SERVER = "lpa_server_public"
CH_LPA_EUICC = "lpa_euicc_internal"

RESPONSE_STAGE = {"m3": "m4", "m7": "m8", "m11": "m12", "m15": "m16"}


class GateViolation(Exception):
    """An adversary action needed a term it cannot derive."""


@dataclass
class Tunnel:
    server: object      # the ServerProcess answering the dialed name
    visible: bool       # the adversary reads the traffic in the clear


def tls_connect(world, dial: Atom, intercepted: bool = False,
                client_is_adversary: bool = False) -> Tunnel:
    """Resolve the far end of a client connection to `dial`: the pin check.

    With the tunnel enabled the dialed certificate name pins the endpoint:
    the adversary intercepts only if the transport key of that name leaked.
    Without the tunnel the network adversary may freely intercept or answer.
    """
    if intercepted and world.cfg.tls and ("server", dial.label) not in world.grants:
        raise GateViolation(
            f"cannot intercept tunnel to {dial.label}: transport key not held")
    server = world.servers.get(dial.label)
    if server is None:
        raise GateViolation(f"no server answers for {dial.label}")
    visible = not world.cfg.tls or intercepted or client_is_adversary
    return Tunnel(server, visible)


def put_request(world, tun: Tunnel, stage: str, request: Term) -> tuple:
    """The LPA puts `request` on the channel; a session yields what this
    returns and is sent the response."""
    world.trace.message(CH_LPA_SERVER, f"lpa->server:{stage}", request)
    if tun.visible:
        world.adversary.learn(request)
    return tun, stage, request


def _answer(world, server, direction: str, request: Term) -> Term:
    """Deliver `request` to `server` and put its response on the channel;
    a server abort answers with the error message."""
    try:
        response = server.handle(request)
    except ProtocolAbort as exc:
        world.trace.note("abort", exc.who, exc.reason)
        response = MSG_ERROR
    world.trace.message(CH_LPA_SERVER, direction, response)
    return response


def server_reply(world, tun: Tunnel, stage: str, request: Term) -> Term:
    """The server's answer to the LPA's `request` in tunnel `tun`."""
    response = _answer(world, tun.server,
                       f"server->lpa:{RESPONSE_STAGE[stage]}", request)
    if tun.visible:
        world.adversary.learn(response)
    return response


def relay(world, lpa, rewrite):
    """Run the session `lpa` against the real server with the adversary in
    the middle: `rewrite(world, stage, term)` sees each request and each
    response and returns what goes on, through the gate when it changed it.
    Returns the session's DownloadResult."""
    adv = world.adversary
    try:
        tun, stage, request = next(lpa)
        while True:
            delivered = rewrite(world, stage, request)
            if delivered != request:
                adv.gate_send(CH_LPA_SERVER, f"adv->server:{stage}", delivered)
            response = server_reply(world, tun, stage, delivered)
            resp_stage = RESPONSE_STAGE[stage]
            forged = rewrite(world, resp_stage, response)
            if forged != response:
                adv.gate_send(CH_LPA_SERVER, f"adv->lpa:{resp_stage}", forged)
            tun, stage, request = lpa.send(forged)
    except StopIteration as done:
        return done.value


# ---------------------------------------------------------------------------
# Adversary-driven connections (anonymous client is a base capability)
# ---------------------------------------------------------------------------

def adversary_request(world, dial: Atom, request: Term) -> Term:
    """Open-tunnel request from the adversary itself; fully gated, and the
    adversary reads its own responses even when the tunnel is on."""
    server = world.servers.get(dial.label)
    if server is None:
        raise GateViolation(f"no server answers for {dial.label}")
    world.adversary.gate_send(CH_LPA_SERVER, "adv->server", request)
    response = _answer(world, server, "server->adv", request)
    world.adversary.learn(response)
    return response
