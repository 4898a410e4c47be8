"""The indexed goal checker against the scan-everything reference in
goal_oracle.py: same status and byte-equal witness text for every goal of
every catalog variant, on random traces whose parameters come from a small
term pool so that bindings collide, and on the paths random traces reach
rarely.  Patterns are matched by each side's own code, so the compiled
goal kernels are under test too."""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

import goal_oracle
from goal_oracle import event_of
from rsplab import goals
from rsplab.events import EVENT_FIELDS, Trace
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
ADV = Atom(ADVERSARY_USER)
# Not one of the fifteen: a secrecy goal whose trigger holds a literal and
# names the device twice, once in an optional slot, so that its kernel and
# not only the tag decides which events trigger it.
LITERAL_SECRET = GoalSpec(
    "literal-secret", "secrecy", "client",
    "a key accepted for the adversary's operator stays secret",
    EventPattern("U3", (Var("U"), W, W, W, Var("k"), W, ADV, OptVar("U"))),
    secret="k")
CATALOGS = {
    "default": goal_catalog(),
    "injective_notification": goal_oracle.INJECTIVE_NOTIFICATION,
    "strict_identity": goal_oracle.STRICT_IDENTITY,
    "two_new": [TWO_NEW],
    "literal_secret": [LITERAL_SECRET],
}
SECRETS = (Nonce(1, "x"), Nonce(2, "x"))
POOL = SECRETS + (NULL, ADV)
RUN_VARS = ("uid", "U", "S", "Sa", "Sp", "It", "k", "P", "mno", "iac")


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
# the tags whose every field carries a run variable: an event's field holds
# the run's value of the variable named after it
TAGS = sorted(tag for tag, fields in EVENT_FIELDS.items()
              if set(fields) <= set(RUN_VARS))

# A trace interleaves two or three runs, each a valuation of the run
# variables.  The first is drawn whole; each other one copies it with the
# device (U) or the server (S) switched between null and a named term.  An
# optional identity slot takes null or the bound value, so a witness naming
# no identity serves the triggers of several runs, and a trigger whose
# identity is null takes only such a witness: the triggers of one goal
# compete for the same injective witnesses, and when the run whose witness
# comes first triggers last, first fit has to take its choice back.  The
# runs take turns in a drawn order; each turn appends the run's next session
# step (starting over after S3) or, one time in eight, an event of any tag,
# and about one event in twelve has one parameter swapped for another pool
# term.
IDENTITIES = ("U", "S")
valuation = st.fixed_dictionaries({v: st.sampled_from(POOL) for v in RUN_VARS})
runs = st.tuples(valuation, st.lists(st.sampled_from(IDENTITIES), min_size=1,
                                     max_size=2)).map(
    lambda r: [r[0]] + [{**r[0], v: NULL if r[0][v] is not NULL else SECRETS[0]}
                        for v in r[1]])
turns = st.permutations([run for run in range(3) for _ in range(15)])
event_draws = st.lists(
    st.tuples(st.integers(0, 8 * len(TAGS) - 1), st.integers(0, 63),
              st.sampled_from(POOL)),
    min_size=30, max_size=45)


def first_fit(trigger_options: list, requires: tuple) -> bool:
    """The injective assignment without backtracking: each trigger keeps
    the first witness tuple that no earlier trigger claimed."""
    slots = [k for k, r in enumerate(requires) if r.injective]
    claimed = [set() for _ in slots]
    for options in trigger_options:
        for indices in options:
            if all(indices[k] not in used for k, used in zip(slots, claimed)):
                for k, used in zip(slots, claimed):
                    used.add(indices[k])
                break
        else:
            return False
    return True


# examples, of 300, whose verdicts needed the assignment to take a choice
# back.  The draw is derandomized, so the count is a property of the code:
# 22, alike under the default environment, PYTHONHASHSEED=1,
# PYTHONMALLOC=malloc and -X dev.  Drawn afresh on every run it ranged
# from 0 to 39.
BACKTRACKING_EXAMPLES = 3


def test_random_traces_match_the_oracle(monkeypatch):
    backtracked = []
    assign = goals._assign_injectively

    def counting(trigger_options, requires):
        ok = assign(trigger_options, requires)
        if ok and not first_fit(trigger_options, requires):
            backtracked[-1] = True
        return ok

    monkeypatch.setattr(goals, "_assign_injectively", counting)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(runs, turns, event_draws, st.sets(st.sampled_from(SECRETS)),
           st.integers(0, 45))
    def check(valuations, order, draws, known, cut):
        # checked once on a prefix, which fills the trace's value buckets,
        # and again after the rest is appended to the same trace, which
        # must grow the buckets already filled
        backtracked.append(False)
        steps = [0, 0, 0]
        events = []
        order = [run for run in order if run < len(valuations)]
        for run, (pick, swap_pos, swap_term) in zip(order, draws):
            if pick < len(TAGS):
                tag = TAGS[pick]
            else:
                tag = SESSION[steps[run] % len(SESSION)]
                steps[run] += 1
            params = [valuations[run][v] for v in EVENT_FIELDS[tag]]
            if swap_pos < len(params):
                params[swap_pos] = swap_term
            events.append(event_of(tag, tuple(params)))
        knowledge = Knowledge(sorted(known, key=repr))
        trace = make_trace(*events[:cut])
        assert_same_verdicts(trace, knowledge)
        for e in events[cut:]:
            trace.append(e)
        assert_same_verdicts(trace, knowledge)

    check()
    assert sum(backtracked) >= BACKTRACKING_EXAMPLES, sum(backtracked)


# a pattern slot: a variable, a wildcard, or a literal built apart from the
# pool, so that it equals a pool term without being the same object
slots = st.one_of(
    st.sampled_from([Var("a"), Var("b"), OptVar("a"), OptVar("b"), W]),
    st.sampled_from([Nonce(1, "x"), Nonce(2, "x"), Atom("null"), Atom(ADVERSARY_USER)]))


@settings(max_examples=500, deadline=None)
@given(st.lists(slots, min_size=4, max_size=4),
       st.lists(st.sampled_from(POOL), min_size=4, max_size=4))
def test_trigger_kernel_matches_slot_by_slot(params, values):
    # the kernel refuses exactly the events the oracle does not match, and
    # the diagnosis of a missing witness shows the oracle's bindings
    pattern = EventPattern("U1", tuple(params))
    event = event_of("U1", tuple(values))
    missing = EventPattern("U0", (Var("a"), Var("b")))
    g = GoalSpec("slots", "auth", "client", "the trigger alone binds a and b",
                 pattern, (Requirement(missing, False),))
    want = goal_oracle.match(pattern, event, {})
    depth = g.kernel(make_trace(event), 0, event)
    assert (depth is None) == (want is None)
    if want is not None:
        assert goals._first_unmatchable(g, depth, event) == \
            f"no earlier U0 matches {goals._pattern_text(missing, want)}"


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
            event_of("S0", (SA, it(1), S, MNO, NULL)),
            event_of("U1", (U, SA, it(1), Atom("evil"))),
            event_of("S1", (U, SA, SA, it(1), MNO, NULL)))
        v = check_goal(t, Knowledge(), goal("B"))
        assert "no earlier U1 matches" in v.witness
        assert_same_verdicts(t, Knowledge())

    def test_injective_witness_exhausted(self):
        events = [event_of("OWNER", (USER, U)), event_of("INTENT", (USER, MNO, U, NULL)),
                  event_of("ORDER", (USER, MNO, S, U, P, NULL))]
        events += [event_of("S1", (U, SA, SA, it(n), MNO, NULL)) for n in (1, 2)]
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
            event_of("ORDER", (USER, Atom("mno0"), S, U, P, NULL)),
            event_of("ORDER", (USER, MNO, S, U, P, NULL)),
            event_of("INTENT", (USER, MNO, U, NULL)),
            event_of("S1", (U, SA, SA, it(1), MNO, NULL)))
        assert check_goal(t, Knowledge(), TWO_NEW).ok
        assert_same_verdicts(t, Knowledge())

    def test_excluded_triggers_are_skipped(self):
        # the adversary's own device accepts first (excluded), then the
        # victim's does without a session start: the witness names the second
        t = make_trace(
            event_of("OWNER", (ADV, ADV_EID)),
            event_of("OWNER", (USER, U)),
            event_of("U1", (ADV_EID, SA, it(1), S)),
            event_of("U1", (U, SA, it(2), S)))
        v = check_goal(t, Knowledge(), goal("A"))
        assert v.witness.startswith("trigger #3 ")
        assert_same_verdicts(t, Knowledge())

    def test_first_fit_backtracks(self):
        # the first accepted session may start from either U0, the second
        # only from the null one; first fit hands the first trigger that
        # earliest U0, so the goal holds only if the assignment takes it back
        s1, s2 = Atom("dl-1"), Atom("dl-2")
        events = [event_of("U0", (U, NULL)), event_of("U0", (U, s1)),
                  event_of("S0", (SA, it(1), s1, MNO, NULL)),
                  event_of("S0", (SA, it(2), s2, MNO, NULL)),
                  event_of("U1", (U, SA, it(1), s1)),
                  event_of("U1", (U, SA, it(2), s2))]
        t = make_trace(*events)
        g = goal("A")
        first = [g.kernel(t, i, t.entries[i]) for i in t.events_tagged("U1")]
        assert first == [[(0, 2), (1, 2)], [(0, 3)]]
        assert check_goal(t, Knowledge(), g).ok
        assert_same_verdicts(t, Knowledge())

        t = make_trace(*events[:1], *events[2:])
        v = check_goal(t, Knowledge(), g)
        assert "injective witness exhausted" in v.witness
        assert_same_verdicts(t, Knowledge())

    def test_secrecy_trigger_needs_its_literal_and_its_device_twice(self):
        # the adversary knows the key of all three accepted profiles, but
        # the first is for another operator and the second names another
        # device in its optional slot: only the third triggers the goal
        key = SECRETS[0]
        events = [event_of("U3", (U, SA, SA, it(1), key, P, MNO, NULL)),
                  event_of("U3", (U, SA, SA, it(2), key, P, ADV, ADV_EID)),
                  event_of("U3", (U, SA, SA, it(3), key, P, ADV, U))]
        known = Knowledge([key])
        t = make_trace(*events)
        assert check_goal(t, known, LITERAL_SECRET).witness.startswith("trigger #2 ")
        assert_same_verdicts(t, known)
        t = make_trace(*events[:2])
        assert check_goal(t, known, LITERAL_SECRET).ok
        assert_same_verdicts(t, known)


def test_only_a_secrecy_trigger_that_can_refuse_an_event_gets_a_kernel():
    # each catalog secrecy trigger names each field once, so every event of
    # its tag triggers the goal and there is nothing to compile or call
    assert [g.name for g in goal_catalog() if g.kernel is None] == ["W", "X", "Y", "Z"]
    assert LITERAL_SECRET.kernel is not None


# Not one of the fifteen: variable names no Python identifier can spell, a
# literal whose label holds a quote and a newline, an optional identity in
# the trigger that a later Var slot must bind when it is null, and a name
# bound twice within one conjunct.  None of it may reach the kernel source.
ODD = Atom('it\'s "odd"\nlabel')
CODEGEN = GoalSpec(
    "codegen", "auth", "client", "names and literals the kernel cannot spell",
    EventPattern("U1", (Var("u 1"), Var("class"), ODD, OptVar("S"))),
    (Requirement(EventPattern("U0", (Var("u 1"), OptVar("S"))), True),
     Requirement(EventPattern("S0", (Var("class"), ODD, Var("S"), W, W)), False),
     Requirement(EventPattern("INTENT", (Var("for"), W, Var("u 1"), Var("for"))),
                 False)))


def test_kernel_source_holds_no_pattern_data():
    x, y = Atom("x"), Atom("y")
    start, served = event_of("U0", (U, NULL)), event_of("S0", (SA, ODD, S, MNO, NULL))
    intent = event_of("INTENT", (x, MNO, U, x))
    accept = event_of("U1", (U, SA, ODD, NULL))
    traces = [
        (start, served, intent, accept),                        # pass
        (served, intent, accept),                               # no U0
        (event_of("U0", (U, Atom("dl-2"))), served, intent, accept),  # S differs
        (start, served, event_of("INTENT", (x, MNO, U, y)), accept),  # for != for
        (start, served, intent, accept, accept),                # one U0, two U1
        (start, served, intent, event_of("U1", (U, SA, Atom("odd"), NULL))),
    ]
    verdicts = []
    for events in traces:
        t = make_trace(*events)
        got = check_goal(t, Knowledge(), CODEGEN)
        want = goal_oracle.check_goal(t, Knowledge(), CODEGEN)
        assert (got.status, got.witness) == (want.status, want.witness)
        verdicts.append(got.witness)
    assert verdicts[0] is None and verdicts[5] is None
    for witness, detail in zip(verdicts[1:5], (
            "no earlier U0 ", "no earlier S0 ", "no earlier INTENT ",
            "injective witness exhausted")):
        assert witness.split("; ", 1)[1].startswith(detail)

    misses = goals._compile.cache_info().misses
    assert [g.kernel for g in goal_catalog()] == [g.kernel for g in CATALOGS["default"]]
    assert goals._compile.cache_info().misses == misses


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
    i = [i for i in w.trace.events_tagged("S3")
         if w.trace.entries[i].U == victim_eid][-1]
    s3 = w.trace.entries[i]
    bindings = goal_oracle.match(g.trigger, s3, {})
    events = goal_oracle._events(w.trace)
    assert len(goal_oracle.witness_tuples(events, i, g.requires, bindings)) == 14 * 14
    assert len(g.kernel(w.trace, i, s3)) == 1


def ds_orders(k: int, triggers: int) -> Trace:
    """One owner, k orders placed the ds way (each logs the same
    INTENT(uid, mno, U, null) and its own ORDER), then `triggers`
    authenticated clients."""
    events = [event_of("OWNER", (USER, U))]
    for n in range(k):
        events += [event_of("INTENT", (USER, MNO, U, NULL)),
                   event_of("ORDER", (USER, MNO, S, U, Atom(f"p{n}"), NULL))]
    events += [event_of("S1", (U, SA, SA, it(n), MNO, NULL)) for n in range(triggers)]
    return make_trace(*events)


def test_identical_intents_give_one_witness_tuple_per_order():
    # INTENT is a non-injective conjunct of Bp and, with uid bound by OWNER,
    # binds nothing new: one INTENT witness serves, not k of them
    k = 6
    t = ds_orders(k, k)
    g = goal("Bp")
    i = t.events_tagged("S1")[-1]
    s1 = t.entries[i]
    bindings = goal_oracle.match(g.trigger, s1, {})
    tuples = g.kernel(t, i, s1)
    orders = t.events_tagged("ORDER")
    assert [ix[2] for ix in tuples] == orders
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


def test_each_witness_lookup_reads_its_fresh_slot_first(monkeypatch):
    # the benchmark's sessions shape, smaller: each user places three
    # orders, then all nine are downloaded in the order placed, in each
    # approach.  A conjunct reads the bucket of its transaction, key,
    # profile or code first and narrows further only where that bucket
    # holds more events, as a ds INTENT's null code does.  Narrowing in
    # field order instead took 312 narrow calls and 980 bucket reads here
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for g in goals.CATALOG:
        if g.kernel:  # a secrecy goal has none
            monkeypatch.setitem(g.kernel.__globals__, "narrow",
                                counted("narrow", goals._narrow))
    users = (VICTIM, BYSTANDER, ADVERSARY_USER)
    worlds = []
    for approach in ("ds", "ac"):
        w = build_world(ScenarioConfig(approach, 1, False))
        codes = [(user, w.request_profile(user)) for _ in range(3) for user in users]
        for user, code in codes:
            assert w.start_download(user, code=code).completed
        trace = w.trace
        trace.with_value = counted("with_value", trace.with_value)
        assert all(v.ok for v in goals.check_all(trace, w.adversary.knowledge).values())
        del trace.with_value
        worlds.append(w)
    assert calls == {"narrow": 48, "with_value": 434}
    monkeypatch.undo()
    for w in worlds:
        assert_same_verdicts(w.trace, w.adversary.knowledge)
