"""
Trace-based checking of the fifteen authentication and secrecy goals.

Authentication goals are correspondences: for every (non-excluded)
occurrence of a trigger event, each required pattern must match a strictly
earlier event, with all shared variables bound consistently across the
conjunction.  A pattern, built by ``ep``, names the fields of its tag it
constrains, each with the variable named after the field, an optional
identity or a literal; every other field is a wildcard.  A requirement
marked injective additionally demands a globally one-to-one assignment
from trigger occurrences to witness events; this checker realizes that as
a backtracking matching over candidate witness tuples, which on these
small traces is exact.

Cost model: the checker never scans the trace.  It reads the trace's own
index (``Trace.events_tagged`` and ``Trace.with_value``), which lists the
trace positions of each tag's events and buckets them by the value at a
field position from the first lookup on, growing as the trace grows.  An
event is one flat tuple, so the kernel reads a candidate as
``entries[i]`` and its fields as ``q[pos]``.  Each goal's patterns are
expanded to positions and compiled when the catalog is built, once per
process and distinct goal, into its kernel, the checker's only matcher: one
generated function that matches the trigger and then, in nested loops, one
per conjunct, each candidate slot by slot, in locals, with no binding dict
and no recursion.  The compiler reads what it needs of a conjunct off the
slots before it: the ``Var`` slots that the trigger or an earlier conjunct
always binds (the only slots worth narrowing on), the slots to compare and
to bind, the names it newly binds, and whether an injective conjunct is
still to come.  A secrecy goal whose trigger matches every event of its
tag gets no kernel.  A conjunct's candidates are the bucket of its first
always-bound slot, read inline, and a fresh slot (transaction, key,
profile, DH share, code) comes first, so on a long trace a witness lookup
costs about one bucket read; only when that bucket holds several events
does ``_narrow`` look for a smaller one among the other slots, as for a ds
INTENT, whose code is null.  A tag with only a few events is handed over
whole, since bucketing it would cost more than the candidates it saves.
Every bucket holds all the true witnesses in trace order, so the order
decides the cost and never the witnesses.  The kernel keeps only what the
injective assignment can tell apart: an injective conjunct keeps every
witness, a non-injective one keeps one witness (the earliest) per distinct
set of names it newly binds, and once no injective conjunct is left the
first consistent completion is enough.  When it finds no witness it says
how many leading conjuncts it could satisfy, which names the conjunct in
the diagnosis without a second search.  The assignment is first fit with
backtracking over one set of claimed witnesses per injective slot, each
choice added and then taken back, so it copies nothing; it recurses through
a module function, not a closure, so a check leaves no reference cycle and
reference counting frees all it built.  ``check_all`` asks the exclusions
once per trigger event and hands the answer to every goal; they read the
same buckets.  A check stores nothing that grows with the number of checks.
A goal knows from the catalog whether it has an injective conjunct, where
its secret sits in the trigger and its one frozen pass verdict.  The
harness asks each run only for the open goals, those no earlier run of its
cell group violated: a cell reads nothing else.

Secrecy goals name a target field of the trigger and fail iff the
end-of-run adversary knowledge derives it (knowledge only grows, so
end-of-run is the strongest point to ask).

Exclusions mirror the partial-compromise methodology: a violation is
ignored when it concerns only the adversary's own assets (its own device
on the client side; its own order served to its own device on the server
side) or when the bound operator is itself marked compromised.  Markers
and ownership all come from the trace, never from hidden state.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from .events import ADVERSARY_USER, EVENT_FIELDS, Event, Trace
from .terms import NULL, Atom, Knowledge, Term, encode


# ---------------------------------------------------------------------------
# Pattern language
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Wild:
    pass


@dataclass(frozen=True)
class OptVar:
    """Optional identity slot: matches null, or binds/compares like Var."""
    name: str


W = Wild()


@dataclass(frozen=True)
class EventPattern:
    tag: str
    params: tuple
    # worked out once: (position, term) of every literal slot and
    # (position, name, optional) of every Var/OptVar slot
    literals: tuple = field(init=False, repr=False, compare=False)
    binders: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(
            (pos, p) for pos, p in enumerate(self.params)
            if not isinstance(p, (Var, OptVar, Wild))))
        object.__setattr__(self, "binders", tuple(
            (pos, p.name, isinstance(p, OptVar))
            for pos, p in enumerate(self.params)
            if isinstance(p, (Var, OptVar))))


def ep(tag: str, *names: str, **slots) -> EventPattern:
    """The `tag` pattern with ``Var(name)`` in each field of `names`, each of
    `slots` (field=slot) in its field and a wildcard in every other field."""
    slots.update((name, Var(name)) for name in names)
    params = tuple(slots.pop(f, W) for f in EVENT_FIELDS[tag])
    if slots:
        raise ValueError(f"{tag} has no field {', '.join(slots)}")
    return EventPattern(tag, params)


@dataclass(frozen=True)
class Requirement:
    pattern: EventPattern
    injective: bool


@dataclass(frozen=True)
class GoalSpec:
    name: str
    kind: str                     # "auth" | "secrecy"
    side: str                     # "client" | "server"
    summary: str
    trigger: EventPattern
    requires: tuple = ()
    secret: Optional[str] = None  # a secrecy goal's target field
    # worked out once: the matcher (see _compile), the verdict of every
    # pass, whether a conjunct is injective, the trigger position of `secret`
    kernel: Optional[Callable] = field(init=False, repr=False, compare=False)
    passed: GoalVerdict = field(init=False, repr=False, compare=False)
    injective: bool = field(init=False, repr=False, compare=False)
    secret_pos: Optional[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.trigger
        fields = EVENT_FIELDS[t.tag]
        # a secrecy goal asks its kernel only whether the trigger matches;
        # with no literal and no name in two slots every event of the tag does
        free = not t.literals and len({b[1] for b in t.binders}) == len(t.binders)
        kernel = None if free and self.kind == "secrecy" else _compile(t, self.requires)
        for name, value in (("kernel", kernel),
                            ("passed", GoalVerdict(self.name, "pass")),
                            ("injective", any(r.injective for r in self.requires)),
                            ("secret_pos", self.secret and fields.index(self.secret))):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GoalVerdict:
    goal: str
    status: str                   # "pass" | "violated"
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


# ---------------------------------------------------------------------------
# Witness search, compiled
# ---------------------------------------------------------------------------

# A tag list this short is scanned whole: a value bucket would cost a pass
# over the list per bound position to save at most a few candidates.
_SHORT_LIST = 4
# Fields fresh per session: a conjunct narrows on these first, since their
# bucket holds about one event.
_FRESH = ("It", "k", "P", "q_s", "q_u", "iac")


def _narrow(trace: Trace, tag: str, candidates: list, positions: tuple,
            values: tuple) -> list:
    """The shortest of `candidates` and the buckets of the `tag` events that
    hold `values` at `positions`, tried in turn until one holds at most one
    event; all of them in trace order."""
    for pos, value in zip(positions, values):
        bucket = trace.with_value(tag, pos, value)
        if len(bucket) < len(candidates):
            candidates = bucket
            if len(candidates) <= 1:
                break
    return candidates


@functools.cache
def _compile(trigger: EventPattern, requires: tuple) -> Callable:
    """The matcher of a goal with `trigger` and the conjuncts `requires`, as
    one generated function, ``kernel(trace, upto, p)``, with one nested
    loop per conjunct.

    Given the `trigger`-tagged event `p` at index `upto`, the
    kernel returns None if they do not match `trigger`; else the witness
    index tuples, in trace order, that ``_assign_injectively`` can tell
    apart (see the cost model above), which is ``[()]`` for a goal with no
    conjuncts; else, when there is none, how many leading conjuncts some
    consistent witnesses satisfy.  The cuts that keep the tuples few skip
    only subtrees equal to one already searched, so that count is exact.

    Each binding gets a local of its own, so a loop's next candidate never
    sees what an inner loop bound; a name that only ``OptVar`` slots have
    bound so far holds null while unbound, since they never bind null.
    Tags and literal terms reach the code through its namespace, so its
    source spells no pattern data."""
    env = {"NULL": NULL, "narrow": _narrow}
    lines = ["def kernel(trace, upto, p):"]
    local = {}            # name -> the local holding its value
    optional_only = set()  # names only OptVar slots have bound so far
    fresh = itertools.count()

    def const(value) -> str:
        key = f"k{len(env)}"
        env[key] = value
        return key

    def emit(indent: int, line: str) -> None:
        lines.append("    " * indent + line)

    def bound(name: str) -> bool:
        # bound whatever the events: a Var slot has bound it (an OptVar
        # slot binds nothing when it holds null)
        return name in local and name not in optional_only

    def match(indent: int, q: str, literals: tuple, binders: tuple,
              fail: str) -> None:
        for pos, term in literals:
            emit(indent, f"if {q}[{pos}] is not {const(term)}: {fail}")
        for pos, name, optional in binders:
            old = local.get(name)
            if bound(name):
                # `a is not b is not NULL`: b differs from a and is not null
                emit(indent, f"if {old} is not {q}[{pos}] is not NULL: {fail}"
                     if optional else f"if {q}[{pos}] is not {old}: {fail}")
                continue
            new = local[name] = f"v{next(fresh)}"
            emit(indent, f"{new} = {q}[{pos}]")
            if old is not None:  # bound only if not null
                if optional:
                    emit(indent, f"if {new} is NULL: {new} = {old}")
                    emit(indent, f"elif NULL is not {old} is not {new}: {fail}")
                else:
                    emit(indent, f"if NULL is not {old} is not {new}: {fail}")
            if optional:
                optional_only.add(name)
            else:
                optional_only.discard(name)

    match(1, "p", trigger.literals, trigger.binders, "return None")
    n = len(requires)
    # the first conjunct from which one completion is enough: no injective
    # conjunct is left
    first = max((k + 1 for k, r in enumerate(requires) if r.injective),
                default=0)
    # reached[k] is set once conjuncts 0..k have consistent witnesses
    reached = [f"r{k}" for k in range(n - 1)]
    if reached:
        emit(1, " = ".join(reached) + " = 0")
    if first:
        emit(1, "out = []")
    emit(1, "tagged, entries = trace.events_tagged, trace.entries")
    news = []  # per conjunct, the names it newly binds; None if injective
    for k, r in enumerate(requires):
        tag = const(r.pattern.tag)
        checks = tuple(b for b in r.pattern.binders if bound(b[1]))
        binds = tuple(b for b in r.pattern.binders if not bound(b[1]))
        names = None if r.injective \
            else tuple(dict.fromkeys(name for _, name, _ in binds))
        news.append(names)
        emit(k + 1, f"c{k} = tagged({tag})")
        # candidates narrowed on the Var slots bound whatever the events,
        # a fresh one's bucket read first and the rest only if it holds more
        # than one event
        fields = EVENT_FIELDS[r.pattern.tag]
        narrow = sorted(((pos, local[name]) for pos, name, optional in checks
                         if not optional),
                        key=lambda slot: fields[slot[0]] not in _FRESH)
        if narrow:
            (pos, value), *rest = narrow
            emit(k + 1, f"if len(c{k}) > {_SHORT_LIST}:")
            emit(k + 2, f"c{k} = trace.with_value({tag}, {pos}, {value})")
            if rest:
                positions = tuple(pos for pos, _ in rest)
                values = "".join(f"{value}, " for _, value in rest)
                emit(k + 2, f"if len(c{k}) > 1: c{k} = narrow("
                            f"trace, {tag}, c{k}, {positions}, ({values}))")
        if names:
            emit(k + 1, f"s{k} = set()")
        if 0 < k == first < n - 1:
            emit(k + 1, "h = 0")  # set once a completion is found
        emit(k + 1, f"for i{k} in c{k}:")
        emit(k + 2, f"if i{k} >= upto: break")
        emit(k + 2, f"q = entries[i{k}]")
        match(k + 2, "q", r.pattern.literals, checks + binds, "continue")
        if names:
            key = ", ".join(local[name] for name in names)
            key = key if len(names) == 1 else f"({key})"
            emit(k + 2, f"if {key} in s{k}: continue")
            emit(k + 2, f"s{k}.add({key})")
        if k < n - 1:
            emit(k + 2, f"r{k} = 1")
    witness = "".join(f"i{k}, " for k in range(n))
    if not first:
        emit(n + 1, f"return [({witness})]")
    else:
        emit(n + 1, f"out.append(({witness}))")
        if first < n - 1:
            emit(n + 1, "h = 1")
        if first < n:
            emit(n + 1, "break")
    # back in conjunct k's loop once conjunct k + 1's loop is done
    for k in reversed(range(n - 1)):
        if news[k] == ():
            emit(k + 2, "break")  # binds nothing new: later ones the same
        elif 0 < first <= k:
            emit(k + 2, "if h: break")
    depth = " + ".join(reached) or "0"
    emit(1, f"return out or {depth}" if first else f"return {depth}")
    exec(compile("\n".join(lines), "<goal kernel>", "exec"), env)
    return env["kernel"]


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def goal_catalog() -> list[GoalSpec]:
    """The fifteen goals.  Optional identity slots ([U], [S]) accept null or
    the bound value, which covers both ordering approaches with one catalog."""
    return [
        GoalSpec(
            "A", "auth", "client",
            "server authentication: accepting the server implies both sides started",
            ep("U1", "U", "Sa", "It", "S"),
            (Requirement(ep("U0", "U", S=OptVar("S")), True),
             Requirement(ep("S0", "Sa", "It", "S"), True))),
        GoalSpec(
            "B", "auth", "server",
            "client authentication: accepting the client implies a matching client step",
            ep("S1", "U", "Sa", "It", "mno", "iac"),
            (Requirement(ep("S0", "Sa", "It", "S", "mno", "iac"), True),
             Requirement(ep("U1", "U", "Sa", "It", "S"), True))),
        GoalSpec(
            "Bp", "auth", "server",
            "order binding: authenticated client traces back to owner intent and a unique order",
            ep("S1", "U", "Sa", "It", "mno", "iac"),
            (Requirement(ep("OWNER", "uid", "U"), False),
             Requirement(ep("INTENT", "uid", "mno", "U", "iac"), False),
             Requirement(ep("ORDER", "uid", "mno", "iac", U=OptVar("U")), True))),
        GoalSpec(
            "C", "auth", "client",
            "profile binding: the binding certificate belongs to an authorized, live peer session",
            ep("U2", "U", "Sa", "Sp", "It"),
            (Requirement(ep("AUTHORIZE", "Sp"), False),
             Requirement(ep("U1", "U", "Sa", "It"), True),
             Requirement(ep("S1", "U", "Sa", "Sp", "It"), True))),
        GoalSpec(
            "D", "auth", "server",
            "key exchange, server side: client really entered the exchange",
            ep("S2", "U", "Sa", "Sp", "It", "P", "mno", "iac"),
            (Requirement(ep("S1", "U", "Sa", "Sp", "It", "mno", "iac"), True),
             Requirement(ep("U2", "U", "Sa", "Sp", "It"), True))),
        GoalSpec(
            "E", "auth", "client",
            "key exchange, client side: accepted key was issued by the matching server step",
            ep("U3", "U", "Sa", "Sp", "It", "k", "mno", "iac"),
            (Requirement(ep("U2", "U", "Sa", "Sp", "It"), True),
             Requirement(ep("S2", "U", "Sa", "Sp", "It", "k", "mno", "iac"), True))),
        GoalSpec(
            "F", "auth", "client",
            "profile delivery: accepted profile and key both come from the matching server step",
            ep("U3", "U", "Sa", "Sp", "It", "k", "P", "mno", "iac"),
            (Requirement(ep("U2", "U", "Sa", "Sp", "It"), True),
             Requirement(ep("S2", "U", "Sa", "Sp", "It", "k", "P", "mno", "iac"), True))),
        GoalSpec(
            "G", "auth", "server",
            "install notification: accepted only for a profile this server sent and the client took",
            ep("S3", "U", "Sa", "Sp", "It", "P", "mno"),
            (Requirement(ep("S2", "U", "Sa", "Sp", "It", "P", "mno"), False),
             Requirement(ep("U3", "U", "Sa", "Sp", "It", "P", "mno"), False),
             Requirement(ep("OWNER", "uid", "U"), False),
             Requirement(ep("INTENT", "uid", "mno", "U"), False),
             Requirement(ep("ORDER", "uid", "mno", U=OptVar("U")), False))),
        GoalSpec(
            "I", "auth", "client",
            "whole handshake: an accepted profile implies matching session starts on both sides",
            ep("U3", "U", "Sa", "It", "k", "P", "mno"),
            (Requirement(ep("U0", "U", S=OptVar("S")), True),
             Requirement(ep("S0", "Sa", "It", "mno"), True))),
        GoalSpec(
            "J", "auth", "client",
            "full protocol, client side: accepted profile traces back to intent and a unique order",
            ep("U3", "U", "Sa", "It", "P", "mno", "iac"),
            (Requirement(ep("OWNER", "uid", "U"), False),
             Requirement(ep("INTENT", "uid", "mno", "U", "iac"), False),
             Requirement(ep("ORDER", "uid", "mno", "P", "iac", U=OptVar("U")), True))),
        GoalSpec(
            "K", "auth", "server",
            "full protocol, server side: delivered profile traces back to intent and a unique order",
            ep("S2", "U", "Sa", "It", "P", "mno", "iac"),
            (Requirement(ep("OWNER", "uid", "U"), False),
             Requirement(ep("INTENT", "uid", "mno", "U", "iac"), False),
             Requirement(ep("ORDER", "uid", "mno", "P", "iac", U=OptVar("U")), True))),
        GoalSpec(
            "W", "secrecy", "server",
            "session key accepted by the server stays unknown to the adversary",
            ep("S2", "U", "Sa", "k", "P", "mno"), secret="k"),
        GoalSpec(
            "X", "secrecy", "client",
            "session key accepted by the client stays unknown to the adversary",
            ep("U3", "U", "Sa", "k", "P", "mno"), secret="k"),
        GoalSpec(
            "Y", "secrecy", "server",
            "profile sent by the server stays unknown to the adversary",
            ep("S2", "U", "Sa", "k", "P", "mno", "iac"), secret="P"),
        GoalSpec(
            "Z", "secrecy", "client",
            "profile accepted by the client stays unknown to the adversary",
            ep("U3", "U", "Sa", "k", "P", "mno", "iac"), secret="P"),
    ]


# the fifteen goals as check_all and the forward-secrecy check use them
CATALOG = tuple(goal_catalog())


# ---------------------------------------------------------------------------
# Exclusions
# ---------------------------------------------------------------------------

_ADVERSARY = Atom(ADVERSARY_USER)


def _having(trace: Trace, tag: str, field: str, value: Term) -> list:
    """The positions of the events of `tag` whose `field` holds `value`."""
    return trace.with_value(tag, EVENT_FIELDS[tag].index(field), value)


def _excluded(trace: Trace, event: Event, adversary_eids: set,
              marked_mnos: set) -> bool:
    """Is this trigger occurrence outside the threat model's interest?"""
    tag, entries = event.tag, trace.entries
    # operator compromised and bound into the run: no security expected
    mno = getattr(event, "mno", None)
    if mno in marked_mnos:
        return True
    if tag in ("U0", "U1", "U2", "U3"):
        # client-side assurance protects the client; the adversary's own
        # device needs none
        return event.U in adversary_eids
    if tag in ("S1", "S2", "S3"):
        u = event.U
        if u not in adversary_eids:
            return False
        # adversary device AND the adversary's own (honestly placed) order:
        # nothing of anyone else's is at stake
        if tag == "S1":
            iac = event.iac
            orders = (_having(trace, "ORDER", "iac", iac) if iac is not NULL
                      else [i for i in _having(trace, "ORDER", "U", u)
                            if entries[i].mno == mno])
        else:
            orders = _having(trace, "ORDER", "P", event.P)
        return bool(orders) and all(entries[i].uid == _ADVERSARY for i in orders)
    return False


def _exclusions(trace: Trace, tags) -> set:
    """The indices of the excluded events among the triggers of `tags`, asked
    once per event however many goals share its tag.  The adversary's
    devices and the compromised operators are read once per call."""
    entries = trace.entries
    adversary_eids = {entries[i].U for i in _having(trace, "OWNER", "uid", _ADVERSARY)}
    marked_mnos = {entries[i].mno for i in trace.events_tagged("CompromiseMno")}
    return {i for tag in tags for i in trace.events_tagged(tag)
            if _excluded(trace, entries[i], adversary_eids, marked_mnos)}


# ---------------------------------------------------------------------------
# Correspondence checking
# ---------------------------------------------------------------------------

def _assign_injectively(trigger_options: list, requires: tuple) -> bool:
    """Pick one witness tuple per trigger so injective slots never share:
    first fit, backtracking over one set of claimed witnesses per injective
    slot, each choice added before the next trigger and taken back after.
    Its caller skips a goal with no injective conjunct or a single trigger:
    every trigger has an option, and none can clash."""
    claimed = [(slot, set()) for slot, r in enumerate(requires) if r.injective]
    return _assign_from(trigger_options, 0, claimed)


def _assign_from(trigger_options: list, t: int, claimed: list) -> bool:
    """Can triggers `t` onwards each get a witness tuple clear of `claimed`?
    Not a closure, so a call leaves no reference cycle behind."""
    if t == len(trigger_options):
        return True
    for indices in trigger_options[t]:
        for slot, used in claimed:
            if indices[slot] in used:
                break  # a witness already spoken for
        else:
            for slot, used in claimed:
                used.add(indices[slot])
            if _assign_from(trigger_options, t + 1, claimed):
                return True
            for slot, used in claimed:
                used.remove(indices[slot])
    return False


def check_correspondence(trace: Trace, goal: GoalSpec,
                         excluded: Optional[set] = None) -> GoalVerdict:
    """`excluded` holds the indices of the excluded triggers, as
    ``_exclusions`` gives them for at least this goal's trigger tag."""
    if goal.kind != "auth":
        raise ValueError(f"goal {goal.name} is not a correspondence")
    if excluded is None:
        excluded = _exclusions(trace, (goal.trigger.tag,))
    kernel, entries = goal.kernel, trace.entries
    trigger_options = []
    for i in trace.events_tagged(goal.trigger.tag):
        if i in excluded:
            continue
        e = entries[i]
        options = kernel(trace, i, e)
        if options is None:
            continue
        if type(options) is int:
            return GoalVerdict(goal.name, "violated", _witness_text(
                i, e, _first_unmatchable(goal, options, e)))
        trigger_options.append(options)
        last = (i, e)

    if (goal.injective and len(trigger_options) > 1
            and not _assign_injectively(trigger_options, goal.requires)):
        return GoalVerdict(goal.name, "violated",
                           _witness_text(*last, "injective witness exhausted: "
                                         "one matching event claimed by "
                                         "several triggers"))
    return goal.passed


def _first_unmatchable(goal: GoalSpec, depth: int, event: Event) -> str:
    # minimal diagnosis: the first conjunct, in declared order, that no
    # consistent choice of witnesses for the conjuncts before it extends,
    # which is how deep the failed search got; the kernel has matched the
    # trigger, so its slots agree on each name they bind
    bindings = {name: event[pos]
                for pos, name, optional in goal.trigger.binders
                if not (optional and event[pos] is NULL)}
    pattern = goal.requires[depth].pattern
    return f"no earlier {pattern.tag} matches {_pattern_text(pattern, bindings)}"


def _pattern_text(pattern: EventPattern, bindings: dict) -> str:
    parts = []
    for p in pattern.params:
        if isinstance(p, Var):
            parts.append(encode(bindings[p.name]) if p.name in bindings else f"?{p.name}")
        elif isinstance(p, OptVar):
            bound = bindings.get(p.name)
            parts.append(f"[{encode(bound) if bound is not None else '?' + p.name}]")
        elif isinstance(p, Wild):
            parts.append("_")
        else:
            parts.append(encode(p))
    return f"{pattern.tag}({', '.join(parts)})"


def _witness_text(index: int, event: Event, detail: str) -> str:
    return f"trigger #{index} {event.render()}; {detail}"


# ---------------------------------------------------------------------------
# Secrecy
# ---------------------------------------------------------------------------

def check_secrecy(trace: Trace, knowledge: Knowledge, goal: GoalSpec,
                  excluded: Optional[set] = None) -> GoalVerdict:
    """`excluded` as for ``check_correspondence``."""
    if goal.kind != "secrecy":
        raise ValueError(f"goal {goal.name} is not a secrecy goal")
    if excluded is None:
        excluded = _exclusions(trace, (goal.trigger.tag,))
    kernel, pos, entries = goal.kernel, goal.secret_pos, trace.entries
    for i in trace.events_tagged(goal.trigger.tag):
        e = entries[i]
        if i in excluded or kernel and kernel(trace, i, e) is None:
            continue
        target = e[pos]
        if knowledge.deduce(target):
            return GoalVerdict(goal.name, "violated",
                               f"trigger #{i} {e.render()}; adversary derives "
                               f"{encode(target)}")
    return goal.passed


def check_goal(trace: Trace, knowledge: Knowledge, goal: GoalSpec,
               excluded: Optional[set] = None) -> GoalVerdict:
    if goal.kind == "secrecy":
        return check_secrecy(trace, knowledge, goal, excluded)
    return check_correspondence(trace, goal, excluded)


def check_all(trace: Trace, knowledge: Knowledge,
              catalog: Optional[list] = None) -> dict:
    """The verdict of every goal of `catalog` (default: the fifteen), the
    exclusions worked out once for all of them."""
    catalog = CATALOG if catalog is None else catalog
    excluded = _exclusions(trace, dict.fromkeys(g.trigger.tag for g in catalog))
    return {g.name: check_goal(trace, knowledge, g, excluded) for g in catalog}


def check_forward_secrecy(world) -> GoalVerdict:
    """Leak every long-term private key after the run; the session key and
    profile secrecy goals must still hold.  The leak is judged on knowledge
    of its own, so the world's adversary learns nothing."""
    post = Knowledge([*world.adversary.knowledge.base,
                      *world.long_term_private_keys()])
    secrecy = [g for g in CATALOG if g.kind == "secrecy"]
    excluded = _exclusions(world.trace, dict.fromkeys(g.trigger.tag for g in secrecy))
    for g in secrecy:
        verdict = check_secrecy(world.trace, post, g, excluded)
        if not verdict.ok:
            return GoalVerdict("forward-secrecy", "violated",
                               f"{g.name} fails after long-term key leak: "
                               f"{verdict.witness}")
    return GoalVerdict("forward-secrecy", "pass")
