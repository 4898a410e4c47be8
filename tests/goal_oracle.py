"""Scan-everything reference for the correspondence and secrecy checkers.

Deliberately the plain algorithm the indexed checker in ``rsplab.goals``
replaced: every conjunct is tried against every earlier event of the whole
trace, every consistent witness tuple is enumerated, and the exclusion
facts are recomputed by scanning.  It shares only the pattern language
and the text formatting with the checker under test: patterns are matched
slot by slot here, not through the match plan each ``EventPattern`` works
out, and the injective assignment tries every combination of witness tuples
instead of backtracking.  Exponential in the number of conjuncts and of
triggers on long traces, so tests feed it short ones.
"""

from __future__ import annotations

import itertools

from rsplab.events import ADVERSARY_USER, Event, Trace
from rsplab.goals import (EventPattern, GoalSpec, GoalVerdict, OptVar, Var,
                          Wild, _pattern_text)
from rsplab.terms import NULL, Atom, Knowledge, encode

CLIENT_TAGS = ("U0", "U1", "U2", "U3")
MNO_POSITION = {"U3": 6, "S1": 4, "S2": 6, "S3": 6}


def match(pattern: EventPattern, event: Event, bindings: dict):
    """The bindings extended by `event`, or None if it does not match."""
    if event.tag != pattern.tag:
        return None
    out = dict(bindings)
    for pat, value in zip(pattern.params, event.params):
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
        self.adv_eids = {e.params[1] for _, e in events
                         if e.tag == "OWNER" and e.params[0] == self.adv_atom}
        self.mno_marks = {e.params[0] for _, e in events
                          if e.tag == "CompromiseMno"}
        self.orders = [e for _, e in events if e.tag == "ORDER"]

    def order_users(self, *, iac=None, p=None, u=None, mno=None) -> list:
        out = []
        for e in self.orders:
            o_user, o_mno, _o_s, o_u, o_p, o_iac = e.params
            if iac is not None and o_iac != iac:
                continue
            if p is not None and o_p != p:
                continue
            if u is not None and o_u != u:
                continue
            if mno is not None and o_mno != mno:
                continue
            out.append(o_user)
        return out

    def excluded(self, event: Event) -> bool:
        tag, params = event.tag, event.params
        mno_pos = MNO_POSITION.get(tag)
        if mno_pos is not None and params[mno_pos] in self.mno_marks:
            return True
        if tag in CLIENT_TAGS:
            return params[0] in self.adv_eids
        if tag in ("S1", "S2", "S3"):
            u = params[0]
            if u not in self.adv_eids:
                return False
            if tag == "S1":
                iac = params[5]
                users = (self.order_users(iac=iac) if iac != NULL
                         else self.order_users(u=u, mno=params[4]))
            else:
                users = self.order_users(p=params[4 if tag == "S3" else 5])
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
