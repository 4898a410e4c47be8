"""Scan-everything reference for the correspondence and secrecy checkers.

Deliberately the plain algorithm the indexed checker in ``rsplab.goals``
replaced: every conjunct is tried against every earlier event of the whole
trace, every consistent witness tuple is enumerated, and the exclusion
facts are recomputed by scanning.  It shares only the event schema, the
pattern language and the text formatting with the checker under test:
patterns are matched slot by slot here, not through the kernel compiled
for each goal, and the injective assignment tries every combination of
witness tuples instead of backtracking.  Exponential in the number of
conjuncts and of triggers on long traces, so tests feed it short ones.

It also builds the two informational variants of the catalog, each from
the fifteen goals with one goal's named patterns replaced.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from rsplab.events import ADVERSARY_USER, EVENT_FIELDS, Event, Trace
from rsplab.goals import (EventPattern, GoalSpec, GoalVerdict, OptVar,
                          Requirement, Var, Wild, _pattern_text, ep,
                          goal_catalog)
from rsplab.terms import NULL, Atom, Knowledge, encode

CLIENT_TAGS = ("U0", "U1", "U2", "U3")


def _variant(name: str, **changes) -> list:
    """The fifteen goals, with `changes` made to goal `name`."""
    return [replace(g, **changes) if g.name == name else g
            for g in goal_catalog()]


def _goal(name: str) -> GoalSpec:
    return next(g for g in goal_catalog() if g.name == name)


# the install notification with its S2 and U3 witnesses injective: each
# notification accepted for its own delivery and acceptance
INJECTIVE_NOTIFICATION = _variant("G", requires=tuple(
    replace(r, injective=True) if r.pattern.tag in ("S2", "U3") else r
    for r in _goal("G").requires))
# server authentication demanding that the client already knew the accepted
# server's name when it started (the session-start slot must equal the
# bound value, null not accepted).  Without pre-established identities this
# fails even on honest runs, which is why the protocol cannot promise it.
STRICT_IDENTITY = _variant("A", requires=(
    Requirement(ep("U0", "U", "S"), True), *_goal("A").requires[1:]))


def event_of(tag: str, params: tuple) -> Event:
    """The `tag` event with `params` in field order, as hand-built traces
    spell them."""
    return getattr(Event, tag)(**dict(zip(EVENT_FIELDS[tag], params,
                                          strict=True)))


def match(pattern: EventPattern, event: Event, bindings: dict):
    """The bindings extended by `event`, or None if it does not match."""
    if event.tag != pattern.tag:
        return None
    out = dict(bindings)
    for pat, value in zip(pattern.params, event):
        if isinstance(pat, Wild) or (isinstance(pat, OptVar) and value == NULL):
            continue
        if isinstance(pat, (Var, OptVar)):
            if pat.name not in out:
                out[pat.name] = value
            elif out[pat.name] != value:
                return None
        elif pat != value:  # literal term
            return None
    return out


def _events(trace: Trace) -> list:
    return [(i, e) for i, e in enumerate(trace.entries) if isinstance(e, Event)]


class _Exclusions:
    def __init__(self, trace: Trace) -> None:
        events = _events(trace)
        self.adv_atom = Atom(ADVERSARY_USER)
        self.adv_eids = {e.U for _, e in events
                         if e.tag == "OWNER" and e.uid == self.adv_atom}
        self.mno_marks = {e.mno for _, e in events
                          if e.tag == "CompromiseMno"}
        self.orders = [e for _, e in events if e.tag == "ORDER"]

    def order_users(self, **fields) -> list:
        """The users of the orders whose fields hold `fields`."""
        return [e.uid for e in self.orders
                if all(getattr(e, f) == value for f, value in fields.items())]

    def excluded(self, event: Event) -> bool:
        tag = event.tag
        if "mno" in EVENT_FIELDS[tag] and event.mno in self.mno_marks:
            return True
        if tag in CLIENT_TAGS:
            return event.U in self.adv_eids
        if tag in ("S1", "S2", "S3"):
            u = event.U
            if u not in self.adv_eids:
                return False
            if tag == "S1":
                iac = event.iac
                users = (self.order_users(iac=iac) if iac != NULL
                         else self.order_users(U=u, mno=event.mno))
            else:
                users = self.order_users(P=event.P)
            return bool(users) and all(x == self.adv_atom for x in users)
        return False


def witness_tuples(events: list, upto: int, requires: tuple, bindings: dict) -> list:
    """All consistent ways to satisfy the conjunction with earlier events."""
    if not requires:
        return [((), bindings)]
    req, rest = requires[0], requires[1:]
    out = []
    for i, e in events:
        if i >= upto:
            break
        nb = match(req.pattern, e, bindings)
        if nb is None:
            continue
        for tail, fb in witness_tuples(events, upto, rest, nb):
            out.append(((i,) + tail, fb))
    return out


def assign_injectively(trigger_options: list, requires: tuple) -> bool:
    """Is there one witness tuple per trigger such that no two triggers
    share a witness in an injective slot?  Every combination is tried; a
    trigger's tuples that agree on all injective slots count once, since
    nothing else is compared."""
    slots = [k for k, r in enumerate(requires) if r.injective]
    choices = [{tuple(indices[k] for k in slots) for indices, _ in options}
               for options in trigger_options]
    return any(all(len({pick[n] for pick in combo}) == len(combo)
                   for n in range(len(slots)))
               for combo in itertools.product(*choices))


def _first_unmatchable(events, upto, requires, bindings) -> str:
    for k, req in enumerate(requires):
        prefix_ok = witness_tuples(events, upto, requires[:k], bindings)
        if not any(witness_tuples(events, upto, (req,), fb)
                   for _, fb in prefix_ok):
            return (f"no earlier {req.pattern.tag} matches "
                    f"{_pattern_text(req.pattern, bindings)}")
    return "no consistent combination of witnesses"


def check_correspondence(trace: Trace, goal: GoalSpec) -> GoalVerdict:
    excl = _Exclusions(trace)
    events = _events(trace)
    triggers = []
    for i, e in events:
        b = match(goal.trigger, e, {})
        if b is None or excl.excluded(e):
            continue
        triggers.append((i, e, b))

    trigger_options = []
    for i, e, b in triggers:
        options = witness_tuples(events, i, goal.requires, b)
        if not options:
            missing = _first_unmatchable(events, i, goal.requires, b)
            return GoalVerdict(goal.name, "violated",
                               f"trigger #{i} {e.render()}; {missing}")
        trigger_options.append(options)

    if not assign_injectively(trigger_options, goal.requires):
        i, e, _ = triggers[-1]
        return GoalVerdict(goal.name, "violated",
                           f"trigger #{i} {e.render()}; injective witness "
                           "exhausted: one matching event claimed by several "
                           "triggers")
    return GoalVerdict(goal.name, "pass")


def check_secrecy(trace: Trace, knowledge: Knowledge, goal: GoalSpec) -> GoalVerdict:
    excl = _Exclusions(trace)
    for i, e in _events(trace):
        if match(goal.trigger, e, {}) is None or excl.excluded(e):
            continue
        target = getattr(e, goal.secret)
        if knowledge.deduce(target):
            return GoalVerdict(goal.name, "violated",
                               f"trigger #{i} {e.render()}; adversary derives "
                               f"{encode(target)}")
    return GoalVerdict(goal.name, "pass")


def check_goal(trace: Trace, knowledge: Knowledge, goal: GoalSpec) -> GoalVerdict:
    if goal.kind == "secrecy":
        return check_secrecy(trace, knowledge, goal)
    return check_correspondence(trace, goal)
