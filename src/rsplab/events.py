"""
Events and the execution trace.

A trace is the totally ordered log of one world run.  It carries four kinds
of entries: protocol events (the inputs to the goal checkers), channel
operations (every transmitted term), adversary learns (so the capability
audit can replay knowledge growth), and free-form notes (session aborts,
blocked messages).  Everything a goal checker or audit needs is in the
trace itself.

Each event tag is declared once, in ``EVENT_FIELDS``, with its field names.
An event is built by name, ``Event.S0(Sa=…, It=…, S=…, mno=…, iac=…)``, and
read by name, ``event.mno``; only the trace's index and the goal checker's
compiled kernels go by position.

Worlds append thousands of entries, and the cyclic collector walks every
one a live trace holds, so each entry is one flat tuple, the only object it
adds: immutable and read by field name.  Each event tag has its own tuple
class, derived from ``Event``, with the tag as a class attribute; the other
kinds are ``NamedTuple``s.  ``isinstance`` tells the kinds apart.  An entry
equals a bare tuple of its values, so a one-field event such as ``SENT_QS``
equals a ``LearnOp`` of the same term; nothing in the lab compares entries
by value.

Each kind has one ``Trace`` writer that builds the tuple with
``tuple.__new__``, as ``Event.<tag>`` does, without the per-field
``object.__setattr__`` a frozen dataclass pays, and appends it: ``append``,
``message``, ``learn`` and ``note``.  ``message`` also keeps
``Trace.last_send``, where the capability audit stops.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .terms import Term, encode

# Each tag's fields in parameter order.  U*/S* events mark handshake progress
# on the two endpoints, OWNER/INTENT/ORDER/AUTHORIZE anchor runs to
# out-of-band facts, the other markers make compromise state visible to the
# goal exclusions.  A field means one thing in every tag: user (uid),
# operator (mno), eUICC (U), server dialed (S), authenticating and
# profile-binding server (Sa, Sp), transaction (It), session key (k), profile
# (P), activation code (iac, null for default-server), DH share (q_u, q_s).
EVENT_FIELDS = {
    "AUTHORIZE": ("Sp",),
    "OWNER": ("uid", "U"),
    "INTENT": ("uid", "mno", "U", "iac"),
    "ORDER": ("uid", "mno", "S", "U", "P", "iac"),
    "U0": ("U", "S"),
    "U1": ("U", "Sa", "It", "S"),
    "U2": ("U", "Sa", "Sp", "It"),
    "U3": ("U", "Sa", "Sp", "It", "k", "P", "mno", "iac"),
    "S0": ("Sa", "It", "S", "mno", "iac"),
    "S1": ("U", "Sa", "Sp", "It", "mno", "iac"),
    "S2": ("U", "Sa", "Sp", "It", "k", "P", "mno", "iac"),
    "S3": ("U", "Sa", "Sp", "It", "P", "S", "mno"),
    "SENT_QS": ("q_s",),
    "RECV_QU": ("q_u",),
    "CompromiseServer": ("server",),
    "CompromiseCert": ("U",),
    "CompromiseMno": ("mno",),
    "ChannelFraud": ("mode",),
    "FraudOrder": ("mode", "uid", "U"),   # U null if no eUICC is named
}

# the adversary's own user account; goal exclusions spare what it owns
ADVERSARY_USER = "user-adv"


class Event(tuple):
    """One protocol event, a tuple of its tag's fields in ``EVENT_FIELDS``
    order.  The program builds it with ``Event.<tag>``, whose required
    keywords are the tag's fields, never by position."""
    __slots__ = ()
    tag: str              # set on each tag's class

    def render(self) -> str:
        return f"{self.tag}({', '.join(encode(p) for p in self)})"


_new = tuple.__new__


def _constructor(tag: str, fields: tuple) -> staticmethod:
    """``Event.<tag>``: the tag's own tuple class, each field read by name,
    and the function that takes each field as a required keyword and
    builds the tuple."""
    attrs = {f: property(itemgetter(i)) for i, f in enumerate(fields)}
    cls = type(tag, (Event,), {"__slots__": (), "tag": tag, **attrs})
    env, args = {"cls": cls, "new": _new}, ", ".join(fields)
    exec(compile(f"def {tag}(*, {args}):\n"
                 f"    return new(cls, ({args},))",
                 f"<event {tag}>", "exec"), env)
    return staticmethod(env[tag])


for _tag, _fields in EVENT_FIELDS.items():
    setattr(Event, _tag, _constructor(_tag, _fields))


class MessageOp(NamedTuple):
    """One term crossing one channel."""
    channel: str          # mno_server_private | user_mno_private | lpa_server_public | lpa_euicc_internal
    direction: str        # e.g. "lpa->server"
    term: Term
    by_adversary: bool = False

    def render(self) -> str:
        who = "adv" if self.by_adversary else "hon"
        return f"[{self.channel}] {self.direction} ({who}) {encode(self.term)}"


class LearnOp(NamedTuple):
    term: Term

    def render(self) -> str:
        return f"learn {encode(self.term)}"


class Note(NamedTuple):
    kind: str             # "abort" | "blocked" | "info"
    who: str
    detail: str

    def render(self) -> str:
        return f"note {self.kind} {self.who}: {self.detail}"


class Trace:
    """Append-only log and the one index of its events.

    Its four writers are the only way in.  ``append`` files the position of
    each event under its tag and, for every (tag, field position) that
    ``with_value`` has bucketed so far, under the event's value at that
    position.  A lookup by tag, or by tag and one field value, therefore
    costs the number of events it returns, not a scan of the log, and no
    lookup is rebuilt when the trace grows.  Both lookups hand out the live
    index lists of trace positions, in trace order; ``entries[i]`` is the
    event.  Read them, never change them.
    """

    def __init__(self) -> None:
        self.entries: list = []
        self.last_send = -1   # index of the last adversary send, if any
        self._tagged: dict[str, list[int]] = {tag: [] for tag in EVENT_FIELDS}
        # tag -> field position -> value -> event positions, a field
        # position filled on first use
        self._by_value: dict[str, dict[int, dict]] = {tag: {} for tag in EVENT_FIELDS}

    def append(self, event: Event) -> None:
        i = len(self.entries)
        self.entries.append(event)
        self._tagged[event.tag].append(i)
        for pos, buckets in self._by_value[event.tag].items():
            buckets.setdefault(event[pos], []).append(i)

    def message(self, channel: str, direction: str, term: Term,
                by_adversary: bool = False) -> None:
        if by_adversary:
            self.last_send = len(self.entries)
        self.entries.append(_new(MessageOp, (channel, direction, term, by_adversary)))

    def learn(self, term: Term) -> None:
        self.entries.append(_new(LearnOp, (term,)))

    def note(self, kind: str, who: str, detail: str) -> None:
        self.entries.append(_new(Note, (kind, who, detail)))

    def events(self) -> list[tuple[int, Event]]:
        return [(i, e) for i, e in enumerate(self.entries) if isinstance(e, Event)]

    def events_tagged(self, tag: str) -> list[int]:
        """The positions of the events of `tag`."""
        return self._tagged[tag]

    def with_value(self, tag: str, pos: int, value: Term) -> list[int]:
        """The positions of the events of `tag` whose field at `pos` is
        `value`."""
        by_pos = self._by_value[tag]
        buckets = by_pos.get(pos)
        if buckets is None:
            buckets = by_pos[pos] = {}
            for i in self._tagged[tag]:
                buckets.setdefault(self.entries[i][pos], []).append(i)
        return buckets.get(value, [])

    def render(self) -> str:
        lines = [f"# adversary-user: {ADVERSARY_USER}"]
        for i, entry in enumerate(self.entries):
            lines.append(f"{i:4d}  {entry.render()}")
        return "\n".join(lines)
