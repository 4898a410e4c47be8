"""
Events and the execution trace.

A trace is the totally ordered log of one world run.  It carries four kinds
of entries: protocol events (the inputs to the goal checkers), channel
operations (every transmitted term), adversary learns (so the capability
audit can replay knowledge growth), and free-form notes (session aborts,
blocked messages).  Everything a goal checker or audit needs is in the
trace itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Term, encode

# Tags and their arities.  U*/S* events mark handshake progress on the two
# endpoints, OWNER/INTENT/ORDER/AUTHORIZE anchor runs to out-of-band facts,
# the Compromise*/ChannelFraud/FraudOrder markers make partial-compromise
# state visible to the goal exclusions.
EVENT_ARITY = {
    "AUTHORIZE": 1,       # (Sp)
    "OWNER": 2,           # (userId, U)
    "INTENT": 4,          # (userId, mnoId, U, Iac)
    "ORDER": 6,           # (userId, mnoId, S, U, P, Iac)
    "U0": 2,              # (U, S)
    "U1": 4,              # (U, Sa, It, S)
    "U2": 4,              # (U, Sa, Sp, It)
    "U3": 8,              # (U, Sa, Sp, It, k, P, mnoId, Iac)
    "S0": 5,              # (Sa, It, S, mnoId, Iac)
    "S1": 6,              # (U, Sa, Sp, It, mnoId, Iac)
    "S2": 8,              # (U, Sa, Sp, It, k, P, mnoId, Iac)
    "S3": 7,              # (U, Sa, Sp, It, P, S, mnoId)
    "SENT_QS": 1,
    "RECV_QU": 1,
    "CompromiseServer": 1,
    "CompromiseCert": 1,
    "CompromiseMno": 1,
    "ChannelFraud": 1,
    "FraudOrder": 3,      # (mode, claimedUser, U-or-null)
}

CLIENT_TRIGGER_TAGS = {"U0", "U1", "U2", "U3"}

# the adversary's own user account; goal exclusions spare what it owns
ADVERSARY_USER = "user-adv"


@dataclass(frozen=True)
class Event:
    tag: str
    params: tuple

    def __post_init__(self) -> None:
        arity = EVENT_ARITY.get(self.tag)
        if arity is None:
            raise ValueError(f"unknown event tag {self.tag!r}")
        if len(self.params) != arity:
            raise ValueError(
                f"{self.tag} expects {arity} params, got {len(self.params)}")

    def render(self) -> str:
        return f"{self.tag}({', '.join(encode(p) for p in self.params)})"


@dataclass(frozen=True)
class MessageOp:
    """One term crossing one channel."""
    channel: str          # mno_server_private | user_mno_private | lpa_server_public | lpa_euicc_internal
    direction: str        # e.g. "lpa->server"
    term: Term
    by_adversary: bool = False

    def render(self) -> str:
        who = "adv" if self.by_adversary else "hon"
        return f"[{self.channel}] {self.direction} ({who}) {encode(self.term)}"


@dataclass(frozen=True)
class LearnOp:
    term: Term

    def render(self) -> str:
        return f"learn {encode(self.term)}"


@dataclass(frozen=True)
class Note:
    kind: str             # "abort" | "blocked" | "info"
    who: str
    detail: str

    def render(self) -> str:
        return f"note {self.kind} {self.who}: {self.detail}"


class Trace:
    """Append-only log and the one index of its events.

    ``append`` is the only writer.  It files each event under its tag and,
    for every (tag, position) that ``with_value`` has bucketed so far, under
    the event's value at that position.  A lookup by tag, or by tag and one
    parameter value, therefore costs the number of events it returns, not a
    scan of the log, and no lookup is rebuilt when the trace grows.  Both
    lookups hand out the live index lists, in trace order: read them, never
    change them.
    """

    def __init__(self) -> None:
        self.entries: list = []
        self._tagged: dict[str, list[tuple[int, Event]]] = {
            tag: [] for tag in EVENT_ARITY}
        # tag -> position -> value -> events, a position filled on first use
        self._by_value: dict[str, dict[int, dict]] = {
            tag: {} for tag in EVENT_ARITY}

    def append(self, entry) -> int:
        i = len(self.entries)
        self.entries.append(entry)
        if isinstance(entry, Event):
            item = (i, entry)
            self._tagged[entry.tag].append(item)
            for pos, buckets in self._by_value[entry.tag].items():
                buckets.setdefault(entry.params[pos], []).append(item)
        return i

    def events(self) -> list[tuple[int, Event]]:
        return [(i, e) for i, e in enumerate(self.entries) if isinstance(e, Event)]

    def events_tagged(self, tag: str) -> list[tuple[int, Event]]:
        """The events of `tag` as (index, event)."""
        return self._tagged[tag]

    def with_value(self, tag: str, pos: int, value: Term) -> list[tuple[int, Event]]:
        """The events of `tag` whose parameter at `pos` is `value`."""
        by_pos = self._by_value[tag]
        buckets = by_pos.get(pos)
        if buckets is None:
            buckets = by_pos[pos] = {}
            for item in self._tagged[tag]:
                buckets.setdefault(item[1].params[pos], []).append(item)
        return buckets.get(value, [])

    def render(self) -> str:
        lines = [f"# adversary-user: {ADVERSARY_USER}"]
        for i, entry in enumerate(self.entries):
            lines.append(f"{i:4d}  {entry.render()}")
        return "\n".join(lines)
