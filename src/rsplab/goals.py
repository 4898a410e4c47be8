"""
Trace-based checking of the fifteen authentication and secrecy goals.

Authentication goals are correspondences: for every (non-excluded)
occurrence of a trigger event, each required pattern must match a strictly
earlier event, with all shared variables bound consistently across the
conjunction.  A requirement marked injective additionally demands a
globally one-to-one assignment from trigger occurrences to witness events;
this checker realizes that as a backtracking matching over candidate
witness tuples, which on these small traces is exact.

Cost model: the checker never scans the trace.  It reads the trace's own
index (``Trace.events_tagged`` and ``Trace.with_value``), which lists the
events of each tag and buckets them by the value at a position from the
first lookup on, growing as the trace grows.  A conjunct's candidates are
the smallest bucket over its already-bound variables, so a witness lookup
costs about the number of events that agree on those values; a tag with
only a few events is handed over whole, since bucketing it would cost more
than the match calls it saves.  The exclusions ask the same buckets.  The
witness search keeps only what the injective assignment can tell apart: an
injective conjunct keeps every witness, a non-injective one keeps one
witness (the earliest) per distinct set of variables it newly binds, and
once no injective conjunct is left the first consistent completion is
enough.  Each pattern works out its literal and variable slots once, so a
match walks only those, and each goal its search plan, so a check only
reads plans and stores nothing that grows with the number of checks.

Secrecy goals bind a target parameter at the trigger and fail iff the
end-of-run adversary knowledge derives it (knowledge only grows, so
end-of-run is the strongest point to ask).

Exclusions mirror the partial-compromise methodology: a violation is
ignored when it concerns only the adversary's own assets (its own device
on the client side; its own order served to its own device on the server
side) or when the bound operator is itself marked compromised.  Markers
and ownership all come from the trace, never from hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .events import ADVERSARY_USER, CLIENT_TRIGGER_TAGS, Event, Trace
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
    # the match plan, worked out once: (position, term) of every literal
    # slot and (position, name, optional) of every Var/OptVar slot
    literals: tuple = field(init=False, repr=False, compare=False)
    binders: tuple = field(init=False, repr=False, compare=False)
    # (position, name) of every Var slot, the positions the index can narrow on
    var_slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        binders = tuple((pos, p.name, isinstance(p, OptVar))
                        for pos, p in enumerate(self.params)
                        if isinstance(p, (Var, OptVar)))
        object.__setattr__(self, "literals", tuple(
            (pos, p) for pos, p in enumerate(self.params)
            if not isinstance(p, (Var, OptVar, Wild))))
        object.__setattr__(self, "binders", binders)
        object.__setattr__(self, "var_slots", tuple(
            (pos, name) for pos, name, optional in binders if not optional))

    def match(self, event: Event, bindings: dict) -> Optional[dict]:
        if event.tag != self.tag:
            return None
        params = event.params
        for pos, term in self.literals:
            value = params[pos]
            if value is not term:
                return None
        out = dict(bindings)
        for pos, name, optional in self.binders:
            value = params[pos]
            if optional and value is NULL:
                continue
            if name not in out:
                out[name] = value
            elif out[name] is not value:
                return None
        return out


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
    secrecy_index: Optional[int] = None
    # the witness search plan, worked out once per goal: for each conjunct,
    # (pattern, its match function, the names it binds or None if it is
    # injective, whether the first completion from it on is enough)
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        requires = self.requires
        object.__setattr__(self, "plan", tuple(
            (r.pattern, r.pattern.match,
             None if r.injective
             else tuple(name for _, name, _ in r.pattern.binders),
             not any(later.injective for later in requires[k:]))
            for k, r in enumerate(requires)))


@dataclass
class GoalVerdict:
    goal: str
    status: str                   # "pass" | "violated"
    witness: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

def goal_catalog(injective_notification: bool = False,
                 strict_identity: bool = False) -> list[GoalSpec]:
    """The fifteen goals.  Optional identity slots ([U], [S]) accept null or
    the bound value, which covers both ordering approaches with one catalog.

    ``strict_identity`` is an informational variant, not one of the fifteen:
    it demands that the client already knew the accepted server's name when
    it started (the session-start slot must equal the bound value, null not
    accepted).  Without pre-established identities this fails even on honest
    runs - which is precisely why the protocol cannot promise it.
    """
    V = Var
    order_u = OptVar("U")
    u0_s = Var("S") if strict_identity else OptVar("S")

    def ep(tag, *params):
        return EventPattern(tag, tuple(params))

    n = injective_notification
    return [
        GoalSpec(
            "A", "auth", "client",
            "server authentication: accepting the server implies both sides started",
            ep("U1", V("U"), V("Sa"), V("It"), V("S")),
            (Requirement(ep("U0", V("U"), u0_s), True),
             Requirement(ep("S0", V("Sa"), V("It"), V("S"), W, W), True))),
        GoalSpec(
            "B", "auth", "server",
            "client authentication: accepting the client implies a matching client step",
            ep("S1", V("U"), V("Sa"), W, V("It"), V("mno"), V("iac")),
            (Requirement(ep("S0", V("Sa"), V("It"), V("S"), V("mno"), V("iac")), True),
             Requirement(ep("U1", V("U"), V("Sa"), V("It"), V("S")), True))),
        GoalSpec(
            "Bp", "auth", "server",
            "order binding: authenticated client traces back to owner intent and a unique order",
            ep("S1", V("U"), V("Sa"), W, V("It"), V("mno"), V("iac")),
            (Requirement(ep("OWNER", V("uid"), V("U")), False),
             Requirement(ep("INTENT", V("uid"), V("mno"), V("U"), V("iac")), False),
             Requirement(ep("ORDER", V("uid"), V("mno"), W, order_u, W, V("iac")), True))),
        GoalSpec(
            "C", "auth", "client",
            "profile binding: the binding certificate belongs to an authorized, live peer session",
            ep("U2", V("U"), V("Sa"), V("Sp"), V("It")),
            (Requirement(ep("AUTHORIZE", V("Sp")), False),
             Requirement(ep("U1", V("U"), V("Sa"), V("It"), W), True),
             Requirement(ep("S1", V("U"), V("Sa"), V("Sp"), V("It"), W, W), True))),
        GoalSpec(
            "D", "auth", "server",
            "key exchange, server side: client really entered the exchange",
            ep("S2", V("U"), V("Sa"), V("Sp"), V("It"), W, V("P"), V("mno"), V("iac")),
            (Requirement(ep("S1", V("U"), V("Sa"), V("Sp"), V("It"), V("mno"), V("iac")), True),
             Requirement(ep("U2", V("U"), V("Sa"), V("Sp"), V("It")), True))),
        GoalSpec(
            "E", "auth", "client",
            "key exchange, client side: accepted key was issued by the matching server step",
            ep("U3", V("U"), V("Sa"), V("Sp"), V("It"), V("k"), W, V("mno"), V("iac")),
            (Requirement(ep("U2", V("U"), V("Sa"), V("Sp"), V("It")), True),
             Requirement(ep("S2", V("U"), V("Sa"), V("Sp"), V("It"), V("k"), W, V("mno"), V("iac")), True))),
        GoalSpec(
            "F", "auth", "client",
            "profile delivery: accepted profile and key both come from the matching server step",
            ep("U3", V("U"), V("Sa"), V("Sp"), V("It"), V("k"), V("P"), V("mno"), V("iac")),
            (Requirement(ep("U2", V("U"), V("Sa"), V("Sp"), V("It")), True),
             Requirement(ep("S2", V("U"), V("Sa"), V("Sp"), V("It"), V("k"), V("P"), V("mno"), V("iac")), True))),
        GoalSpec(
            "G", "auth", "server",
            "install notification: accepted only for a profile this server sent and the client took",
            ep("S3", V("U"), V("Sa"), V("Sp"), V("It"), V("P"), W, V("mno")),
            (Requirement(ep("S2", V("U"), V("Sa"), V("Sp"), V("It"), W, V("P"), V("mno"), W), n),
             Requirement(ep("U3", V("U"), V("Sa"), V("Sp"), V("It"), W, V("P"), V("mno"), W), n),
             Requirement(ep("OWNER", V("uid"), V("U")), False),
             Requirement(ep("INTENT", V("uid"), V("mno"), V("U"), W), False),
             Requirement(ep("ORDER", V("uid"), V("mno"), W, order_u, W, W), False))),
        GoalSpec(
            "I", "auth", "client",
            "whole handshake: an accepted profile implies matching session starts on both sides",
            ep("U3", V("U"), V("Sa"), W, V("It"), V("k"), V("P"), V("mno"), W),
            (Requirement(ep("U0", V("U"), OptVar("S")), True),
             Requirement(ep("S0", V("Sa"), V("It"), W, V("mno"), W), True))),
        GoalSpec(
            "J", "auth", "client",
            "full protocol, client side: accepted profile traces back to intent and a unique order",
            ep("U3", V("U"), V("Sa"), W, V("It"), W, V("P"), V("mno"), V("iac")),
            (Requirement(ep("OWNER", V("uid"), V("U")), False),
             Requirement(ep("INTENT", V("uid"), V("mno"), V("U"), V("iac")), False),
             Requirement(ep("ORDER", V("uid"), V("mno"), W, order_u, V("P"), V("iac")), True))),
        GoalSpec(
            "K", "auth", "server",
            "full protocol, server side: delivered profile traces back to intent and a unique order",
            ep("S2", V("U"), V("Sa"), W, V("It"), W, V("P"), V("mno"), V("iac")),
            (Requirement(ep("OWNER", V("uid"), V("U")), False),
             Requirement(ep("INTENT", V("uid"), V("mno"), V("U"), V("iac")), False),
             Requirement(ep("ORDER", V("uid"), V("mno"), W, order_u, V("P"), V("iac")), True))),
        GoalSpec(
            "W", "secrecy", "server",
            "session key accepted by the server stays unknown to the adversary",
            ep("S2", V("U"), V("Sa"), W, W, V("k"), V("P"), V("mno"), W),
            secrecy_index=4),
        GoalSpec(
            "X", "secrecy", "client",
            "session key accepted by the client stays unknown to the adversary",
            ep("U3", V("U"), V("Sa"), W, W, V("k"), V("P"), V("mno"), W),
            secrecy_index=4),
        GoalSpec(
            "Y", "secrecy", "server",
            "profile sent by the server stays unknown to the adversary",
            ep("S2", V("U"), V("Sa"), W, W, V("k"), V("P"), V("mno"), V("iac")),
            secrecy_index=5),
        GoalSpec(
            "Z", "secrecy", "client",
            "profile accepted by the client stays unknown to the adversary",
            ep("U3", V("U"), V("Sa"), W, W, V("k"), V("P"), V("mno"), V("iac")),
            secrecy_index=5),
    ]


# the fifteen goals as check_all and the forward-secrecy check use them
CATALOG = tuple(goal_catalog())


# ---------------------------------------------------------------------------
# Candidate witnesses
# ---------------------------------------------------------------------------

# A tag list this short is scanned whole: a value bucket would cost a pass
# over the list per bound position to save at most a few match calls.
_SHORT_LIST = 4


def _candidates(trace: Trace, pattern: EventPattern, bindings: dict) -> list:
    """A superset of the events `pattern` matches under `bindings`, in trace
    order: the smallest value bucket over the pattern's bound ``Var``
    positions, or every event of its tag when none is bound or the tag's
    list is short."""
    best = trace.events_tagged(pattern.tag)
    if len(best) <= _SHORT_LIST:
        return best
    for pos, name in pattern.var_slots:
        value = bindings.get(name)
        if value is not None:
            bucket = trace.with_value(pattern.tag, pos, value)
            if len(bucket) < len(best):
                best = bucket
                if len(best) <= 1:
                    break
    return best


# ---------------------------------------------------------------------------
# Exclusions
# ---------------------------------------------------------------------------

_ADVERSARY = Atom(ADVERSARY_USER)
# trigger tag -> position of the operator it binds
_MNO_POS = {"U3": 6, "S1": 4, "S2": 6, "S3": 6}


def _adversary_owns(trace: Trace, eid: Term) -> bool:
    return any(e.params[0] is _ADVERSARY
               for _, e in trace.with_value("OWNER", 1, eid))


def _excluded(trace: Trace, event: Event) -> bool:
    """Is this trigger occurrence outside the threat model's interest?"""
    tag, params = event.tag, event.params
    # operator compromised and bound into the run: no security expected
    mno_pos = _MNO_POS.get(tag)
    if mno_pos is not None and trace.with_value("CompromiseMno", 0, params[mno_pos]):
        return True
    if tag in CLIENT_TRIGGER_TAGS:
        # client-side assurance protects the client; the adversary's own
        # device needs none
        return _adversary_owns(trace, params[0])
    if tag in ("S1", "S2", "S3"):
        u = params[0]
        if not _adversary_owns(trace, u):
            return False
        # adversary device AND the adversary's own (honestly placed) order:
        # nothing of anyone else's is at stake
        if tag == "S1":
            iac = params[5]
            orders = (trace.with_value("ORDER", 5, iac) if iac is not NULL
                      else [(i, e) for i, e in trace.with_value("ORDER", 3, u)
                            if e.params[1] == params[4]])
        else:
            orders = trace.with_value("ORDER", 4, params[4 if tag == "S3" else 5])
        return bool(orders) and all(e.params[0] == _ADVERSARY for _, e in orders)
    return False


# ---------------------------------------------------------------------------
# Correspondence checking
# ---------------------------------------------------------------------------

def _witness_tuples(trace: Trace, upto: int, plan: tuple, bindings: dict,
                    k: int = 0) -> list:
    """Consistent ways to satisfy the conjuncts of `plan` from the `k`-th on
    with events before `upto`, as (witness indices, bindings) in trace
    order, keeping only what ``_assign_injectively`` can tell apart: it
    reads the injective slots alone.  So a non-injective conjunct keeps one
    witness, the earliest, for each distinct set of variables it newly binds
    (the rest of the search depends on nothing else), and once no injective
    conjunct is left the first completion stands for all of them."""
    if k == len(plan):
        return [((), bindings)]
    pattern, match, names, first_only = plan[k]
    new_names = None if names is None else tuple(
        [name for name in names if name not in bindings])
    seen = set()
    out = []
    for i, e in _candidates(trace, pattern, bindings):
        if i >= upto:
            break
        nb = match(e, bindings)
        if nb is None:
            continue
        if new_names is not None:
            key = tuple([nb.get(name) for name in new_names])
            if key in seen:
                continue
            seen.add(key)
        for tail, fb in _witness_tuples(trace, upto, plan, nb, k + 1):
            out.append(((i,) + tail, fb))
            if first_only:
                return out
        if new_names == ():
            break  # binds nothing new: every later witness is the same
    return out


def _assign_injectively(trigger_options: list, requires: tuple) -> bool:
    """Pick one witness tuple per trigger so injective slots never share."""
    inj_slots = [i for i, r in enumerate(requires) if r.injective]
    if not inj_slots or len(trigger_options) <= 1:
        return True  # every trigger has an option, and none can clash

    def backtrack(t: int, used: dict) -> bool:
        if t == len(trigger_options):
            return True
        for indices, _b in trigger_options[t]:
            clash = False
            for slot in inj_slots:
                if indices[slot] in used.get(slot, ()):  # witness already spoken for
                    clash = True
                    break
            if clash:
                continue
            nxt = {s: used.get(s, frozenset()) for s in inj_slots}
            for slot in inj_slots:
                nxt[slot] = nxt[slot] | {indices[slot]}
            if backtrack(t + 1, nxt):
                return True
        return False

    return backtrack(0, {})


def check_correspondence(trace: Trace, goal: GoalSpec) -> GoalVerdict:
    if goal.kind != "auth":
        raise ValueError(f"goal {goal.name} is not a correspondence")
    trigger_options = []
    for i, e in trace.events_tagged(goal.trigger.tag):
        b = goal.trigger.match(e, {})
        if b is None or _excluded(trace, e):
            continue
        options = _witness_tuples(trace, i, goal.plan, b)
        if not options:
            missing = _first_unmatchable(trace, i, goal.plan, b)
            return GoalVerdict(goal.name, "violated", _witness_text(i, e, missing))
        trigger_options.append(options)
        last = (i, e)

    if not _assign_injectively(trigger_options, goal.requires):
        return GoalVerdict(goal.name, "violated",
                           _witness_text(*last, "injective witness exhausted: "
                                         "one matching event claimed by "
                                         "several triggers"))
    return GoalVerdict(goal.name, "pass")


def _first_unmatchable(trace: Trace, upto: int, plan: tuple,
                       bindings: dict) -> str:
    # minimal diagnosis: the first conjunct that no consistent choice of
    # witnesses for the conjuncts before it can extend; only existence is
    # asked, so the first completion of each prefix is enough
    prefix = ()
    for pattern, match, names, _first_only in plan:
        prefix += ((pattern, match, names, True),)
        if not _witness_tuples(trace, upto, prefix, bindings):
            return (f"no earlier {pattern.tag} matches "
                    f"{_pattern_text(pattern, bindings)}")
    return "no consistent combination of witnesses"


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

def check_secrecy(trace: Trace, knowledge: Knowledge, goal: GoalSpec) -> GoalVerdict:
    if goal.kind != "secrecy":
        raise ValueError(f"goal {goal.name} is not a secrecy goal")
    for i, e in trace.events_tagged(goal.trigger.tag):
        if goal.trigger.match(e, {}) is None or _excluded(trace, e):
            continue
        target = e.params[goal.secrecy_index]
        if knowledge.deduce(target):
            return GoalVerdict(goal.name, "violated",
                               f"trigger #{i} {e.render()}; adversary derives "
                               f"{encode(target)}")
    return GoalVerdict(goal.name, "pass")


def check_goal(trace: Trace, knowledge: Knowledge, goal: GoalSpec) -> GoalVerdict:
    if goal.kind == "secrecy":
        return check_secrecy(trace, knowledge, goal)
    return check_correspondence(trace, goal)


def check_all(trace: Trace, knowledge: Knowledge,
              catalog: Optional[list] = None) -> dict:
    catalog = catalog or CATALOG
    return {g.name: check_goal(trace, knowledge, g) for g in catalog}


def check_forward_secrecy(world) -> GoalVerdict:
    """Leak every long-term private key after the run; the session key and
    profile secrecy goals must still hold.  The leak is judged on knowledge
    of its own, so the world's adversary learns nothing."""
    post = Knowledge([*world.adversary.knowledge.base,
                      *world.long_term_private_keys()])
    for g in CATALOG:
        if g.kind != "secrecy":
            continue
        verdict = check_secrecy(world.trace, post, g)
        if not verdict.ok:
            return GoalVerdict("forward-secrecy", "violated",
                               f"{g.name} fails after long-term key leak: "
                               f"{verdict.witness}")
    return GoalVerdict("forward-secrecy", "pass")
