import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dy_oracle import oracle_deduce, subterms
from term_gen import TermGen
from rsplab import terms
from rsplab.attacks import honest_script
from rsplab.events import Event
from rsplab.scenarios import ScenarioConfig, build_world
from rsplab.terms import (Atom, DhPriv, DhShared, FreshSource, Kdf, Knowledge,
                          Mac, NULL, Nonce, Pair, PrivKey, SEnc, SealError,
                          Sign, dh_pub, dh_shared, encode, kdf, pairs, pub,
                          seal, unpairs, unseal)


@pytest.fixture
def fresh():
    return FreshSource()


class TestFreshness:
    def test_fresh_values_never_repeat(self, fresh):
        seen = {make("x") for make in (fresh.nonce, fresh.privkey, fresh.dhpriv)
                for _ in range(50)}
        assert len(seen) == 150

    def test_two_sources_issue_identical_sequences(self):
        a, b = FreshSource(), FreshSource()
        for _ in range(20):
            assert a.nonce("n") == b.nonce("n")


class TestDh:
    def test_shared_secret_commutes(self, fresh):
        du, ds = fresh.dhpriv("du"), fresh.dhpriv("ds")
        assert dh_shared(du, dh_pub(ds)) == dh_shared(ds, dh_pub(du))

    def test_self_pairing_is_legal_and_distinct(self, fresh):
        du, ds = fresh.dhpriv("du"), fresh.dhpriv("ds")
        selfie = dh_shared(du, dh_pub(du))
        assert selfie != dh_shared(du, dh_pub(ds))

    def test_kdf_agrees_across_both_computations(self, fresh):
        du, ds = fresh.dhpriv("du"), fresh.dhpriv("ds")
        oid, eid = Atom("oid-1"), Atom("eid-7")
        assert kdf(dh_shared(du, dh_pub(ds)), oid, eid, "enc") \
            == kdf(dh_shared(ds, dh_pub(du)), oid, eid, "enc")


class TestSealing:
    def test_senc_round_trip(self, fresh):
        k, p = fresh.nonce("k"), Atom("payload")
        assert unseal("senc", k, seal("senc", k, p)) == p

    def test_senc_wrong_key_fails(self, fresh):
        k1, k2 = fresh.nonce("k1"), fresh.nonce("k2")
        with pytest.raises(SealError):
            unseal("senc", k2, seal("senc", k1, Atom("p")))

    def test_signature_round_trip_returns_body(self, fresh):
        sk = fresh.privkey("sk")
        assert unseal("sign", pub(sk), seal("sign", sk, Atom("m"))) == Atom("m")

    def test_signature_wrong_signer_fails(self, fresh):
        sk, other = fresh.privkey("a"), fresh.privkey("b")
        with pytest.raises(SealError):
            unseal("sign", pub(other), seal("sign", sk, Atom("m")))

    def test_mac_round_trip(self, fresh):
        k = fresh.nonce("k")
        assert unseal("mac", k, seal("mac", k, Atom("m"))) == Atom("m")

    def test_wrong_constructor_fails(self, fresh):
        k = fresh.nonce("k")
        with pytest.raises(SealError):
            unseal("senc", k, seal("mac", k, Atom("m")))


class TestTupleEncoding:
    def test_pairs_unpairs_inverse(self):
        items = [Atom("a"), Atom("b"), Atom("c"), Atom("d")]
        assert unpairs(pairs(items), 4) == items

    def test_unpairs_shape_mismatch(self):
        for _ in range(2):
            with pytest.raises(SealError):
                unpairs(Atom("a"), 3)

    def test_changing_a_returned_list_changes_no_later_result(self):
        items = [Atom("a"), Atom("b"), Atom("c")]
        t = pairs(items)
        first = unpairs(t, 3)
        first[0] = Atom("z")
        first.append(Atom("extra"))
        assert unpairs(t, 3) == items
        assert unpairs(t, 3) is not unpairs(t, 3)


class TestEncoding:
    def test_encoding_is_injective_over_a_sample(self, fresh):
        rng = random.Random(5)
        gen = TermGen(rng)
        terms = {gen.term(4) for _ in range(300)}
        encoded = {encode(t) for t in terms}
        assert len(encoded) == len(terms)

    def test_encoding_stable(self, fresh):
        n = fresh.nonce("n-u")
        assert encode(SEnc(n, Pair(Atom("x"), NULL))) \
            == f"(senc (nonce {n.id} n-u) (pair x null))"


class TestDeduce:
    def test_decryption_with_known_key(self, fresh):
        k, p = fresh.nonce("k"), Pair(Atom("profile"), fresh.nonce("ki"))
        kb = Knowledge([k, SEnc(k, p)])
        assert kb.deduce(p)

    def test_public_dh_components_do_not_open_traffic(self, fresh):
        du, ds = fresh.dhpriv("du"), fresh.dhpriv("ds")
        p = fresh.nonce("p")
        k = kdf(dh_shared(du, dh_pub(ds)), Atom("oid"), Atom("eid"), "enc")
        kb = Knowledge([SEnc(k, p), dh_pub(du), dh_pub(ds)])
        assert not kb.deduce(p)

    def test_own_private_half_opens_traffic(self, fresh):
        du, ds = fresh.dhpriv("du"), fresh.dhpriv("ds")
        p = fresh.nonce("p")
        k = kdf(dh_shared(du, dh_pub(ds)), Atom("oid"), Atom("eid"), "enc")
        kb = Knowledge([du, dh_pub(ds), SEnc(k, p)])
        assert kb.deduce(p)
        assert oracle_deduce(kb.base, p)  # agreed independently

    def test_signature_reveals_body_not_key(self, fresh):
        sk, m = fresh.privkey("sk"), fresh.nonce("m")
        kb = Knowledge([Sign(sk, m)])
        assert kb.deduce(m)
        assert not kb.deduce(sk)

    def test_retroactive_decryption(self, fresh):
        k, p = fresh.nonce("k"), fresh.nonce("p")
        kb = Knowledge([SEnc(k, p)])
        assert not kb.deduce(p)
        kb.learn(k)
        assert kb.deduce(p)

    def test_learn_is_monotone(self, fresh):
        rng = random.Random(11)
        gen = TermGen(rng)
        for _ in range(50):
            base = gen.base()
            kb = Knowledge(base)
            goal = gen.term(3)
            extra = gen.term(3)
            if kb.deduce(goal):
                kb.learn(extra)
                assert kb.deduce(goal)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=6))
def test_deduce_matches_brute_force_oracle(seed, goals_per_base):
    rng = random.Random(seed)
    gen = TermGen(rng)
    base = gen.base()
    kb = Knowledge(base)
    for _ in range(goals_per_base):
        goal = gen.term(rng.randrange(1, 5))
        assert kb.deduce(goal) == oracle_deduce(base, goal), \
            f"disagreement on {encode(goal)} from {[encode(t) for t in base]}"


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_learn_chain_matches_brute_force_oracle(seed):
    """One learn at a time on one object, deducing at random steps in
    between, so the closure grows by batches of varying size.  Each read
    takes both paths of ``deduce``: the term just learned is answered from
    the base with the queue left as it is, and the goals after it may need
    the queue drained first."""
    rng = random.Random(seed)
    gen = TermGen(rng)
    terms = sorted(gen.base(max_terms=12), key=encode)
    rng.shuffle(terms)
    k, seen = Knowledge(), []
    for t in terms:
        k.learn(t)
        seen.append(t)
        if rng.random() < 0.4:
            continue  # no read: the next learn queues behind this one
        queued = list(k._todo)
        assert k.deduce(t) == oracle_deduce(seen, t)
        assert k._todo == queued
        # goals: hidden parts of what was learned, plus fresh random terms
        inner = sorted({s for x in seen for s in subterms(x)}, key=encode)
        goals = rng.sample(inner, min(3, len(inner))) + [gen.term(3)]
        for goal in goals:
            assert k.deduce(goal) == oracle_deduce(seen, goal), \
                f"disagreement on {encode(goal)} after {[encode(x) for x in seen]}"
    assert k.closure() == Knowledge(k.base).closure()


class TestInterning:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=4))
    def test_identity_equality_and_encoding_agree(self, seed_a, seed_b, depth):
        # a pool of two per kind keeps structural collisions between the
        # two seeds frequent
        a = TermGen(random.Random(seed_a), pool_size=2).term(depth)
        b = TermGen(random.Random(seed_b), pool_size=2).term(depth)
        assert (a is b) == (a == b) == (encode(a) == encode(b))
        assert TermGen(random.Random(seed_a), pool_size=2).term(depth) is a

    def test_default_filled_arguments_give_the_same_object(self):
        for cls in (Nonce, PrivKey, DhPriv):
            assert cls(3) is cls(3, "") is cls(id=3) is cls(3, label="")
            assert cls(3) is not cls(3, "x")
        assert Atom(label="a") is Atom("a")

    def test_copies_and_pickles_return_the_interned_object(self):
        t = TermGen(random.Random(4)).term(5)
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.deepcopy([t, NULL])[0] is t

    def test_an_invalid_term_raises_and_enters_nothing(self, fresh):
        lo, hi = fresh.dhpriv(), fresh.dhpriv()
        shared = dh_shared(lo, dh_pub(hi))
        oid, eid = Atom("oid"), Atom("eid")
        before = dict(terms._TABLE)
        with pytest.raises(ValueError):
            DhShared(hi, lo)
        with pytest.raises(ValueError):
            Kdf(shared, oid, eid, "iv")
        with pytest.raises(ValueError):
            Kdf(shared, oid, eid, which="iv")
        assert terms._TABLE == before

    def test_a_lab_world_holds_one_object_per_term(self):
        world = build_world(ScenarioConfig("ac", 3, False))
        honest_script(world)
        by_encoding = {}
        for event in world.trace.entries:
            if not isinstance(event, Event):
                continue
            for param in event.params:
                for t in subterms(param):
                    by_encoding.setdefault(encode(t), set()).add(id(t))
        for t in world.adversary.knowledge.closure():
            by_encoding.setdefault(encode(t), set()).add(id(t))
        assert len(by_encoding) > 50
        assert all(len(ids) == 1 for ids in by_encoding.values())


class TestIncrementalClosure:
    def test_every_read_equals_a_closure_built_from_scratch(self):
        gen = TermGen(random.Random(3))
        k, learned = Knowledge(), set()
        live = k.closure()
        for i in range(40):
            t = gen.term(3)
            k.learn(t)
            learned.add(t)
            if i % 3 == 0:
                assert k.closure() is live  # one set, grown in place
                assert live == Knowledge(learned).closure()
        assert k.base == learned

    def test_a_read_answered_without_a_drain_leaves_later_reads_fresh(self, fresh):
        key, p = fresh.nonce("k"), fresh.nonce("p")
        c = SEnc(key, p)
        k = Knowledge()
        k.learn(c)
        assert k.deduce(c) and k._todo == [c]  # from the base, no drain
        assert not k.deduce(p)
        k.learn(key)
        assert k.deduce(p)

    def test_key_constructed_after_a_later_learn_opens_a_parked_ciphertext(self, fresh):
        du, ds, p = fresh.dhpriv("du"), fresh.dhpriv("ds"), fresh.nonce("p")
        key = kdf(dh_shared(du, dh_pub(ds)), Atom("oid"), Atom("eid"), "enc")
        k = Knowledge([SEnc(key, p), dh_pub(ds)])
        assert not k.deduce(p)
        k.learn(du)  # the key is now constructible, never learned
        assert k.deduce(p) and p in k.closure() and key not in k.base

    def test_learning_a_known_term_changes_nothing(self, fresh):
        n, key = fresh.nonce("n"), fresh.nonce("k")
        k = Knowledge([Pair(n, SEnc(key, NULL))])
        base, closure = set(k.base), set(k.closure())
        assert k.learn(*base) is None
        assert k.base == base and k.closure() == closure
        k.learn(n)  # derivable already: the base grows, the closure does not
        assert k.base == base | {n} and k.closure() == closure


def per_subterm_closure(base) -> set:
    """The destructor closure built one subterm at a time, each ciphertext
    parked until its key is derivable: the walk ``Knowledge.closure`` made
    before it took the keyless parts of each term from a memo."""
    known, todo, parked = set(), list(base), []
    while todo:
        size = len(known)
        while todo:
            t = todo.pop()
            if t in known:
                continue
            known.add(t)
            if isinstance(t, Pair):
                todo += (t.left, t.right)
            elif isinstance(t, (Sign, Mac)):
                todo.append(t.body)
            elif isinstance(t, SEnc):
                parked.append(t)
        if len(known) == size:
            break
        waiting = []
        for c in parked:
            if c.body in known:
                continue
            if terms._derivable(c.key, known):
                todo.append(c.body)
            else:
                waiting.append(c)
        parked = waiting
    return known


class TestMemoizedParts:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_closure_matches_the_per_subterm_walk(self, seed):
        rng = random.Random(seed)
        gen = TermGen(rng)
        base = sorted(gen.base(max_terms=12), key=encode)
        assert Knowledge(base).closure() == per_subterm_closure(base)
        # along a learn chain on one object, reading at random steps
        rng.shuffle(base)
        k, seen = Knowledge(), []
        for t in base + [gen.term(4) for _ in range(4)]:
            k.learn(t)
            seen.append(t)
            if rng.random() < 0.5:
                assert k.closure() == per_subterm_closure(seen), \
                    f"closure differs after {[encode(x) for x in seen]}"
        assert k.closure() == per_subterm_closure(seen)

    def test_a_key_learned_later_opens_a_ciphertext_inside_a_signature(self, fresh):
        key, sk, p, q = (fresh.nonce("k"), fresh.privkey("sk"), fresh.nonce("p"),
                         fresh.nonce("q"))
        inner = SEnc(key, Pair(p, Mac(key, q)))
        k, seen = Knowledge(), [Pair(NULL, Sign(sk, inner))]
        k.learn(*seen)
        assert inner in k.closure() and p not in k.closure()
        assert k.closure() == per_subterm_closure(seen)
        seen.append(Sign(sk, key))  # the key arrives signed, so in the clear
        k.learn(seen[-1])
        assert {key, p, q} <= k.closure()
        assert k.closure() == per_subterm_closure(seen)

    def test_a_term_first_learned_inside_a_larger_one(self, fresh):
        key, n, p = fresh.nonce("k"), fresh.nonce("n"), fresh.nonce("p")
        inner = Pair(SEnc(key, p), n)
        outer = Sign(fresh.privkey("sk"), Pair(NULL, inner))
        for order in ([outer, inner, key], [inner, outer, key]):
            k, seen = Knowledge(), []
            for t in order:
                k.learn(t)
                seen.append(t)
                assert k.closure() == per_subterm_closure(seen)
            assert p in k.closure()
        # the memo holds the keyless parts and the ciphertexts among them
        assert set(terms._open_parts(inner)[0]) == {inner, n, SEnc(key, p)}
        assert terms._open_parts(outer)[1] == (SEnc(key, p),)
