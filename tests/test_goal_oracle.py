"""The indexed goal checker against the scan-everything reference in
goal_oracle.py: same status and byte-equal witness text for every goal of
every catalog variant, on random traces whose parameters come from a small
term pool so that bindings collide, and on the paths random traces reach
rarely.  Patterns are matched by each side's own code, so the match plans
are under test too."""

from hypothesis import given, settings
from hypothesis import strategies as st

import goal_oracle
from rsplab import goals
from rsplab.events import Event, Trace
from rsplab.goals import (EventPattern, GoalSpec, OptVar, Requirement, Var,
                          W, check_goal, goal_catalog)
from rsplab.scenarios import BYSTANDER, VICTIM, ScenarioConfig, build_world
from rsplab.terms import Atom, Knowledge, NULL, Nonce
from rsplab.world import ADVERSARY_USER

# Not one of the fifteen: a non-injective conjunct that binds two new
# variables, both read by the injective conjunct after it (no catalog goal
# has one, so this is where the witness search's dedup key is exercised).
TWO_NEW = GoalSpec(
    "two-new", "auth", "server", "each order's operator was intended",
    EventPattern("S1", (Var("U"), W, W, W, W, W)),
    (Requirement(EventPattern("ORDER", (Var("uid"), Var("mno"), W, OptVar("U"),
                                        W, W)), False),
     Requirement(EventPattern("INTENT", (Var("uid"), Var("mno"), Var("U"), W)),
                 True)))
CATALOGS = {
    "default": goal_catalog(),
    "injective_notification": goal_catalog(injective_notification=True),
    "strict_identity": goal_catalog(strict_identity=True),
    "two_new": [TWO_NEW],
}
ADV = Atom(ADVERSARY_USER)
SECRETS = (Nonce(1, "x"), Nonce(2, "x"))
POOL = SECRETS + (NULL, ADV)
RUN_VARS = ("uid", "U", "S", "Sa", "Sp", "It", "k", "P", "mno", "iac")
# the run variable each parameter of an event carries in an honest run
LAYOUT = {
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
    "CompromiseMno": ("mno",),
}


def make_trace(*events) -> Trace:
    t = Trace()
    for e in events:
        t.append(e)
    return t


def assert_same_verdicts(trace: Trace, knowledge: Knowledge) -> None:
    for variant, catalog in CATALOGS.items():
        for g in catalog:
            want = goal_oracle.check_goal(trace, knowledge, g)
            got = check_goal(trace, knowledge, g)
            assert (got.status, got.witness) == (want.status, want.witness), \
                (variant, g.name)


# one honest session, in protocol order
SESSION = ("AUTHORIZE", "OWNER", "INTENT", "ORDER", "U0", "S0", "U1", "S1",
           "U2", "S2", "U3", "S3")
TAGS = sorted(LAYOUT)

# A trace interleaves up to three runs, each a valuation of the run
# variables.  Each draw names a run and, two times in three, appends that
# run's next session step (starting over after S3), else an event of any
# tag; one event in four has one parameter swapped for another pool term.
runs = st.lists(st.fixed_dictionaries({v: st.sampled_from(POOL) for v in RUN_VARS}),
                min_size=1, max_size=3)
event_draws = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3 * len(TAGS) - 1),
              st.integers(0, 31), st.sampled_from(POOL)),
    min_size=12, max_size=36)


@settings(max_examples=300, deadline=None)
@given(runs, event_draws, st.sets(st.sampled_from(SECRETS)), st.integers(0, 36))
def test_random_traces_match_the_oracle(valuations, draws, known, cut):
    # checked once on a prefix, which fills the trace's value buckets, and
    # again after the rest is appended to the same trace, which must grow
    # the buckets already filled
    steps = [0, 0, 0]
    events = []
    for run, pick, swap_pos, swap_term in draws:
        if pick < len(TAGS):
            tag = TAGS[pick]
        else:
            tag = SESSION[steps[run] % len(SESSION)]
            steps[run] += 1
        valuation = valuations[run % len(valuations)]
        params = [valuation[v] for v in LAYOUT[tag]]
        if swap_pos < len(params):
            params[swap_pos] = swap_term
        events.append(Event(tag, tuple(params)))
    knowledge = Knowledge(sorted(known, key=repr))
    trace = make_trace(*events[:cut])
    assert_same_verdicts(trace, knowledge)
    for e in events[cut:]:
        trace.append(e)
    assert_same_verdicts(trace, knowledge)


# a pattern slot: a variable, a wildcard, or a literal built apart from the
# pool, so that it equals a pool term without being the same object
slots = st.one_of(
    st.sampled_from([Var("a"), Var("b"), OptVar("a"), OptVar("b"), W]),
    st.sampled_from([Nonce(1, "x"), Nonce(2, "x"), Atom("null"), Atom(ADVERSARY_USER)]))


@settings(max_examples=500, deadline=None)
@given(st.lists(slots, min_size=4, max_size=4),
       st.lists(st.sampled_from(POOL), min_size=4, max_size=4),
       st.dictionaries(st.sampled_from("ab"), st.sampled_from(POOL)))
def test_match_plan_matches_slot_by_slot(params, values, bindings):
    pattern = EventPattern("U1", tuple(params))
    event = Event("U1", tuple(values))
    assert pattern.match(event, bindings) == goal_oracle.match(pattern, event, bindings)


U, SA, S, MNO, P = Atom("eid-1"), Atom("srv-a"), Atom("dl"), Atom("mno1"), Atom("p")
USER = Atom("user1")
ADV_EID = Atom("eid-adv")


def it(n):
    return Nonce(n, "i-t")


def goal(name, catalog="default"):
    return next(g for g in CATALOGS[catalog] if g.name == name)


class TestPaths:
    def test_no_witness_names_the_first_unmatchable_conjunct(self):
        t = make_trace(
            Event("S0", (SA, it(1), S, MNO, NULL)),
            Event("U1", (U, SA, it(1), Atom("evil"))),
            Event("S1", (U, SA, SA, it(1), MNO, NULL)))
        v = check_goal(t, Knowledge(), goal("B"))
        assert "no earlier U1 matches" in v.witness
        assert_same_verdicts(t, Knowledge())

    def test_injective_witness_exhausted(self):
        events = [Event("OWNER", (USER, U)), Event("INTENT", (USER, MNO, U, NULL)),
                  Event("ORDER", (USER, MNO, S, U, P, NULL))]
        events += [Event("S1", (U, SA, SA, it(n), MNO, NULL)) for n in (1, 2)]
        t = make_trace(*events)
        v = check_goal(t, Knowledge(), goal("Bp"))
        assert v.witness.startswith("trigger #4 ")
        assert "injective witness exhausted" in v.witness
        assert_same_verdicts(t, Knowledge())

    def test_dedup_keeps_each_set_of_new_bindings(self):
        # two orders of one user for different operators; only the second
        # operator was intended, so the first binding set leads nowhere and
        # the second must not be merged into it
        t = make_trace(
            Event("ORDER", (USER, Atom("mno0"), S, U, P, NULL)),
            Event("ORDER", (USER, MNO, S, U, P, NULL)),
            Event("INTENT", (USER, MNO, U, NULL)),
            Event("S1", (U, SA, SA, it(1), MNO, NULL)))
        assert check_goal(t, Knowledge(), TWO_NEW).ok
        assert_same_verdicts(t, Knowledge())

    def test_excluded_triggers_are_skipped(self):
        # the adversary's own device accepts first (excluded), then the
        # victim's does without a session start: the witness names the second
        t = make_trace(
            Event("OWNER", (ADV, ADV_EID)),
            Event("OWNER", (USER, U)),
            Event("U1", (ADV_EID, SA, it(1), S)),
            Event("U1", (U, SA, it(2), S)))
        v = check_goal(t, Knowledge(), goal("A"))
        assert v.witness.startswith("trigger #3 ")
        assert_same_verdicts(t, Knowledge())

    def test_first_fit_backtracks(self):
        # the first accepted session may start from either U0, the second
        # only from the null one; first fit hands the first trigger that
        # earliest U0, so the goal holds only if the assignment takes it back
        s1, s2 = Atom("dl-1"), Atom("dl-2")
        events = [Event("U0", (U, NULL)), Event("U0", (U, s1)),
                  Event("S0", (SA, it(1), s1, MNO, NULL)),
                  Event("S0", (SA, it(2), s2, MNO, NULL)),
                  Event("U1", (U, SA, it(1), s1)),
                  Event("U1", (U, SA, it(2), s2))]
        t = make_trace(*events)
        g = goal("A")
        first = [goals._witness_tuples(t, i, g.plan, g.trigger.match(e, {}))
                 for i, e in t.events_tagged("U1")]
        assert [ix for ix, _ in first[0]] == [(0, 2), (1, 2)]
        assert [ix for ix, _ in first[1]] == [(0, 3)]
        assert check_goal(t, Knowledge(), g).ok
        assert_same_verdicts(t, Knowledge())

        t = make_trace(*events[:1], *events[2:])
        v = check_goal(t, Knowledge(), g)
        assert "injective witness exhausted" in v.witness
        assert_same_verdicts(t, Knowledge())


def test_notification_goal_with_many_orders_per_user():
    # 14 orders, and so 14 INTENT and ORDER events, per user before any
    # download: every accepted notification has 14 x 14 consistent
    # INTENT/ORDER pairs, none of them injective
    w = build_world(ScenarioConfig("ds", 1, True))
    users = (VICTIM, BYSTANDER, ADVERSARY_USER)
    for user in users:
        for _ in range(14):
            w.request_profile(user)
    for user in users:
        for _ in range(14):
            assert w.start_download(user).completed
    for catalog in ("default", "injective_notification"):
        g = goal("G", catalog)
        assert check_goal(w.trace, w.adversary.knowledge, g).ok
        assert goal_oracle.check_goal(w.trace, w.adversary.knowledge, g).ok

    # the indexed search stops at the first completion once no injective
    # conjunct is left; the reference enumerates every one
    g = goal("G")
    victim_eid = w.euiccs[w.users[VICTIM].euicc].eid
    i, s3 = [(i, e) for i, e in w.trace.events_tagged("S3")
             if e.params[0] == victim_eid][-1]
    bindings = g.trigger.match(s3, {})
    events = goal_oracle._events(w.trace)
    assert len(goal_oracle.witness_tuples(events, i, g.requires, bindings)) == 14 * 14
    assert len(goals._witness_tuples(w.trace, i, g.plan, bindings)) == 1


def ds_orders(k: int, triggers: int) -> Trace:
    """One owner, k orders placed the ds way (each logs the same
    INTENT(uid, mno, U, null) and its own ORDER), then `triggers`
    authenticated clients."""
    events = [Event("OWNER", (USER, U))]
    for n in range(k):
        events += [Event("INTENT", (USER, MNO, U, NULL)),
                   Event("ORDER", (USER, MNO, S, U, Atom(f"p{n}"), NULL))]
    events += [Event("S1", (U, SA, SA, it(n), MNO, NULL)) for n in range(triggers)]
    return make_trace(*events)


def test_identical_intents_give_one_witness_tuple_per_order():
    # INTENT is a non-injective conjunct of Bp and, with uid bound by OWNER,
    # binds nothing new: one INTENT witness serves, not k of them
    k = 6
    t = ds_orders(k, k)
    g = goal("Bp")
    i, s1 = t.events_tagged("S1")[-1]
    bindings = g.trigger.match(s1, {})
    tuples = goals._witness_tuples(t, i, g.plan, bindings)
    orders = [j for j, _ in t.events_tagged("ORDER")]
    assert [ix[2] for ix, _ in tuples] == orders
    events = goal_oracle._events(t)
    assert len(goal_oracle.witness_tuples(events, i, g.requires, bindings)) == k * k
    assert check_goal(t, Knowledge(), g).ok
    assert_same_verdicts(t, Knowledge())


def test_identical_intents_one_trigger_too_many():
    # one more authenticated client than orders: the injective ORDER
    # conjunct runs out, as the oracle's full enumeration finds too
    t = ds_orders(3, 4)
    v = check_goal(t, Knowledge(), goal("Bp"))
    assert "injective witness exhausted" in v.witness
    assert_same_verdicts(t, Knowledge())
