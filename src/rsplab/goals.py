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
first lookup on, growing as the trace grows.  Each goal fixes its search
plan when the catalog is built: per conjunct, the ``Var`` slots that the
trigger or an earlier conjunct always binds (the only slots worth narrowing
on), the names it newly binds, and whether it is the last.  A conjunct's
candidates are the smallest bucket over those slots, so a witness lookup
costs about the number of events that agree on their values; a tag with
only a few events is handed over whole, since bucketing it would cost more
than the candidates it saves.  The search matches each candidate against
the plan itself, copies the bindings only when the conjunct binds something
new, and records the last conjunct's witness without recursing.  It keeps
only what the injective assignment can tell apart: an injective conjunct
keeps every witness, a non-injective one keeps one witness (the earliest)
per distinct set of names it newly binds, and once no injective conjunct is
left the first consistent completion is enough.  The assignment is first
fit with backtracking over one set of claimed witnesses per injective slot,
each choice added and then taken back, so it copies nothing.  ``check_all``
asks the exclusions once per trigger event and hands the answer to every
goal; they read the same buckets.  A check only reads plans and stores
nothing that grows with the number of checks.

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
from typing import NamedTuple, Optional

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "literals", tuple(
            (pos, p) for pos, p in enumerate(self.params)
            if not isinstance(p, (Var, OptVar, Wild))))
        object.__setattr__(self, "binders", tuple(
            (pos, p.name, isinstance(p, OptVar))
            for pos, p in enumerate(self.params)
            if isinstance(p, (Var, OptVar))))

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


class Step(NamedTuple):
    """One conjunct of a goal's witness search, as the search reads it."""
    tag: str
    narrow: tuple        # (position, name) of the Var slots always bound here
    literals: tuple      # (position, term) of the literal slots
    checks: tuple        # (position, name, optional) of the slots always bound
    binds: tuple         # (position, name, optional) of the slots that may bind
    names: Optional[tuple]  # the names it may newly bind; None if injective
    first_only: bool     # no injective conjunct from here on
    last: bool


@dataclass(frozen=True)
class GoalSpec:
    name: str
    kind: str                     # "auth" | "secrecy"
    side: str                     # "client" | "server"
    summary: str
    trigger: EventPattern
    requires: tuple = ()
    secrecy_index: Optional[int] = None
    # the witness search plan, worked out once per goal: one Step per conjunct
    plan: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        requires = self.requires
        # the names bound whatever the events: every Var slot of the trigger
        # and of the conjuncts before the current one (an OptVar slot binds
        # nothing when it holds null)
        bound = {name for _, name, optional in self.trigger.binders
                 if not optional}
        plan = []
        for k, r in enumerate(requires):
            binders = r.pattern.binders
            checks = tuple(b for b in binders if b[1] in bound)
            binds = tuple(b for b in binders if b[1] not in bound)
            plan.append(Step(
                r.pattern.tag,
                tuple((pos, name) for pos, name, optional in checks
                      if not optional),
                r.pattern.literals, checks, binds,
                None if r.injective
                else tuple(dict.fromkeys(name for _, name, _ in binds)),
                not any(later.injective for later in requires[k:]),
                k == len(requires) - 1))
            bound.update(name for _, name, optional in binders if not optional)
        object.__setattr__(self, "plan", tuple(plan))


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


def _exclusions(trace: Trace, tags) -> set:
    """The indices of the excluded events among the triggers of `tags`, asked
    once per event however many goals share its tag."""
    return {i for tag in tags for i, e in trace.events_tagged(tag)
            if _excluded(trace, e)}


# ---------------------------------------------------------------------------
# Correspondence checking
# ---------------------------------------------------------------------------

# A tag list this short is scanned whole: a value bucket would cost a pass
# over the list per bound position to save at most a few candidates.
_SHORT_LIST = 4


def _witness_tuples(trace: Trace, upto: int, plan: tuple, bindings: dict,
                    k: int = 0) -> list:
    """Consistent ways to satisfy the conjuncts of `plan` from the `k`-th on
    with events before `upto`, as (witness indices, bindings) in trace
    order, keeping only what ``_assign_injectively`` can tell apart: it
    reads the injective slots alone.  So a non-injective conjunct keeps one
    witness, the earliest, for each distinct set of variables it newly binds
    (the rest of the search depends on nothing else), and once no injective
    conjunct is left the first completion stands for all of them.

    The candidates are the conjunct's tag list, or the smallest value bucket
    over its always-bound ``Var`` slots when that list is longer than
    ``_SHORT_LIST``; both are in trace order."""
    if k == len(plan):
        return [((), bindings)]  # an empty plan: nothing to witness
    tag, narrow, literals, checks, binds, names, first_only, last = plan[k]
    candidates = trace.events_tagged(tag)
    if len(candidates) > _SHORT_LIST:
        for pos, name in narrow:
            bucket = trace.with_value(tag, pos, bindings[name])
            if len(bucket) < len(candidates):
                candidates = bucket
                if len(candidates) <= 1:
                    break
    seen = set()
    out = []
    for i, e in candidates:
        if i >= upto:
            break
        params = e.params
        if literals and any(params[pos] is not term for pos, term in literals):
            continue
        for pos, name, optional in checks:
            value = params[pos]
            if value is not bindings[name] and not (optional and value is NULL):
                break
        else:
            nb = bindings
            if binds:
                nb = dict(bindings)
                for pos, name, optional in binds:
                    value = params[pos]
                    if ((not optional or value is not NULL)
                            and nb.setdefault(name, value) is not value):
                        nb = None
                        break
                if nb is None:
                    continue
            if names:
                key = tuple([nb.get(name) for name in names])
                if key in seen:
                    continue
                seen.add(key)
            if last:
                out.append(((i,), nb))
                if first_only:
                    return out
            else:
                for tail, fb in _witness_tuples(trace, upto, plan, nb, k + 1):
                    out.append(((i,) + tail, fb))
                    if first_only:
                        return out
            if names == ():
                break  # binds nothing new: every later witness is the same
    return out


def _assign_injectively(trigger_options: list, requires: tuple) -> bool:
    """Pick one witness tuple per trigger so injective slots never share:
    first fit, backtracking over one set of claimed witnesses per injective
    slot, each choice added before the next trigger and taken back after."""
    inj_slots = [i for i, r in enumerate(requires) if r.injective]
    if not inj_slots or len(trigger_options) <= 1:
        return True  # every trigger has an option, and none can clash
    claimed = [(slot, set()) for slot in inj_slots]

    def backtrack(t: int) -> bool:
        if t == len(trigger_options):
            return True
        for indices, _b in trigger_options[t]:
            for slot, used in claimed:
                if indices[slot] in used:
                    break  # a witness already spoken for
            else:
                for slot, used in claimed:
                    used.add(indices[slot])
                if backtrack(t + 1):
                    return True
                for slot, used in claimed:
                    used.remove(indices[slot])
        return False

    return backtrack(0)


def check_correspondence(trace: Trace, goal: GoalSpec,
                         excluded: Optional[set] = None) -> GoalVerdict:
    """`excluded` holds the indices of the excluded triggers, as
    ``_exclusions`` gives them for at least this goal's trigger tag."""
    if goal.kind != "auth":
        raise ValueError(f"goal {goal.name} is not a correspondence")
    if excluded is None:
        excluded = _exclusions(trace, (goal.trigger.tag,))
    trigger_options = []
    for i, e in trace.events_tagged(goal.trigger.tag):
        if i in excluded:
            continue
        b = goal.trigger.match(e, {})
        if b is None:
            continue
        options = _witness_tuples(trace, i, goal.plan, b)
        if not options:
            missing = _first_unmatchable(trace, i, goal, b)
            return GoalVerdict(goal.name, "violated", _witness_text(i, e, missing))
        trigger_options.append(options)
        last = (i, e)

    if not _assign_injectively(trigger_options, goal.requires):
        return GoalVerdict(goal.name, "violated",
                           _witness_text(*last, "injective witness exhausted: "
                                         "one matching event claimed by "
                                         "several triggers"))
    return GoalVerdict(goal.name, "pass")


def _first_unmatchable(trace: Trace, upto: int, goal: GoalSpec,
                       bindings: dict) -> str:
    # minimal diagnosis: the first conjunct, in declared order, that no
    # consistent choice of witnesses for the conjuncts before it can extend;
    # only existence is asked, so the first completion of each prefix is
    # enough
    prefix = ()
    for r, step in zip(goal.requires, goal.plan):
        probe = prefix + (step._replace(first_only=True, last=True),)
        if not _witness_tuples(trace, upto, probe, bindings):
            return (f"no earlier {r.pattern.tag} matches "
                    f"{_pattern_text(r.pattern, bindings)}")
        prefix += (step._replace(first_only=True),)
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

def check_secrecy(trace: Trace, knowledge: Knowledge, goal: GoalSpec,
                  excluded: Optional[set] = None) -> GoalVerdict:
    """`excluded` as for ``check_correspondence``."""
    if goal.kind != "secrecy":
        raise ValueError(f"goal {goal.name} is not a secrecy goal")
    if excluded is None:
        excluded = _exclusions(trace, (goal.trigger.tag,))
    for i, e in trace.events_tagged(goal.trigger.tag):
        if i in excluded or goal.trigger.match(e, {}) is None:
            continue
        target = e.params[goal.secrecy_index]
        if knowledge.deduce(target):
            return GoalVerdict(goal.name, "violated",
                               f"trigger #{i} {e.render()}; adversary derives "
                               f"{encode(target)}")
    return GoalVerdict(goal.name, "pass")


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
