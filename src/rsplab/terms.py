"""
Symbolic message algebra and the attacker knowledge engine.

Every value that crosses a channel in the lab is a ``Term``: an immutable
tagged tree over atoms, nonces, asymmetric key pairs, Diffie-Hellman
components, pairs, signatures, symmetric encryptions, MACs, and derived
session keys.  Cryptography is symbolic: a signature verifies iff it was
built with the matching private key term, an encryption opens iff the exact
key term is supplied.  There are no probabilities and no bit strings.

Four design points matter for everything downstream:

  * Terms are hash-consed: building a term returns the one object already
    made for that structure, if there is one (Filliatre & Conchon,
    "Type-safe modular hash-consing", ML 2006).  Structural equality is
    therefore object identity, and ``==``, ``hash`` and every set or dict
    probe on terms are the object defaults, which run in C and never walk
    the tree.

  * So a pure function of a term can be computed once per distinct term,
    the payoff of hash-consing that paper names.  The keyless parts a
    closure takes out of a term (``_open_parts``) and its text
    (``encode``) here, ``Message.build``, ``Message.sign``,
    ``Message.decode`` and ``Message.open`` in ``roles.py`` and
    ``verify_cert`` in ``pki.py`` are memoized with
    ``functools.cache``, keyed by the interned objects.  A term never
    changes and the table never frees it, so a key never goes stale.  The
    cache stores only return values: a call that raises stores nothing and
    raises again on the next call.  Message decoding and opening hand each
    caller a new dict that it may change.  ``unpairs`` is not memoized: its
    callers are ``decode`` and certificate parsing, and both sit behind a
    memo.  Worlds are deterministic, so the memos stop growing when the
    table does.

  * DH shared secrets are stored in a canonical form (the two private
    components sorted by id), so the client-side and server-side
    computations of the same secret are the same term.  This gives
    exactly the commutativity the protocol needs without an equational
    rewriting engine.

  * ``Knowledge`` implements the network attacker's derivation rules:
    pairing/projection, signature and MAC bodies are readable (they
    authenticate, they do not hide), decryption requires a derivable key,
    DH secrets require one private and the matching public component, and
    constructors may be applied to anything derivable.  ``deduce`` is the
    single gate that decides what the adversary may send and what counts
    as a secrecy violation.  What the attacker can take apart only grows
    as it observes more (Paulson, "The inductive approach to verifying
    cryptographic protocols", JCS 1998), so each adversary holds one
    ``Knowledge`` that learns in place and one closure that grows with it.
    A term already learned or already taken apart stays derivable, so a
    read that asks for one, such as a replay of an observed message, is
    answered at once and leaves the queue of new terms for the next read
    that needs it; only a miss saturates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Union


class SealError(ValueError):
    """Raised when open/verify of a sealed term fails (wrong key or shape)."""


# ---------------------------------------------------------------------------
# Term constructors
# ---------------------------------------------------------------------------

# Every term ever built, keyed as in _Interned.  Held strongly: worlds are
# deterministic, so the table stops growing after one matrix run (1,243
# entries); a weak one drops each finished world's terms only to build them
# again for the next (0.39 s against 0.22 s per benchmark matrix iteration).
_TABLE: dict = {}


class _Interned(type):
    """Metaclass of the term classes: building a term returns the one
    existing object structurally equal to it, or enters the new one.

    Table keys are the class followed by every field, defaults filled in,
    so ``Nonce(3) is Nonce(3, "")``.  A call with one positional value per
    field and no keywords is looked up as it stands.  Every other call is
    bound by the dataclass ``__init__`` first (a short or long call matches
    no key, since every key holds all the fields).  Validation in
    ``__post_init__`` runs in that ``__init__``, before an object enters
    the table.
    """

    def __call__(cls, *args, **kwargs):
        t = _TABLE.get((cls, *args))
        if t is None or kwargs:
            made = super().__call__(*args, **kwargs)
            key = (cls, *(getattr(made, name) for name in cls.__match_args__))
            t = _TABLE.setdefault(key, made)
        return t


class _Term(metaclass=_Interned):
    """Base of the term classes."""

    def __reduce__(self):
        # rebuild through the class, so copy, deepcopy and pickle hand back
        # the interned object rather than a structurally equal new one
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _term(cls):
    """Frozen dataclass over ``_Term``.  ``eq=False``: interning makes
    structural equality identity, so equality and hashing stay the object
    defaults."""
    return dataclass(frozen=True, eq=False)(cls)


@_term
class Atom(_Term):
    """Public constant: identifiers, domain names, tags. Always derivable."""
    label: str

    def __repr__(self) -> str:
        return f"Atom({self.label})"


@_term
class Nonce(_Term):
    """Fresh unguessable value (challenges, session ids, activation codes)."""
    id: int
    label: str = ""


@_term
class PrivKey(_Term):
    id: int
    label: str = ""


@_term
class PubKey(_Term):
    of: PrivKey


@_term
class DhPriv(_Term):
    id: int
    label: str = ""


@_term
class DhPub(_Term):
    of: DhPriv


@_term
class DhShared(_Term):
    """Canonical DH shared secret: the two private components, id-sorted."""
    lo: DhPriv
    hi: DhPriv

    def __post_init__(self) -> None:
        if self.lo.id > self.hi.id:
            raise ValueError("DhShared must be built through dh_shared()")


@_term
class Pair(_Term):
    left: "Term"
    right: "Term"


@_term
class Sign(_Term):
    """Signature by `key` over `body`; reveals body, proves origin."""
    key: PrivKey
    body: "Term"


@_term
class SEnc(_Term):
    """Symmetric encryption; the only confidentiality-providing constructor."""
    key: "Term"
    body: "Term"


@_term
class Mac(_Term):
    key: "Term"
    body: "Term"


@_term
class Kdf(_Term):
    """Session key derived from a DH secret, the server OID and eUICC id."""
    shared: "Term"
    oid: "Term"
    eid: "Term"
    which: str  # "enc" or "mac"

    def __post_init__(self) -> None:
        if self.which not in ("enc", "mac"):
            raise ValueError(f"bad kdf tag {self.which!r}")


Term = Union[Atom, Nonce, PrivKey, PubKey, DhPriv, DhPub, DhShared,
             Pair, Sign, SEnc, Mac, Kdf]

NULL = Atom("null")


# ---------------------------------------------------------------------------
# Freshness
# ---------------------------------------------------------------------------

class FreshSource:
    """World-scoped counter; two worlds built the same way issue the same ids."""

    def __init__(self) -> None:
        self._next = 0

    def fork(self) -> "FreshSource":
        """A source that continues from this one's next id, independently."""
        forked = FreshSource()
        forked._next = self._next
        return forked

    def _take(self) -> int:
        n = self._next
        self._next += 1
        return n

    def nonce(self, label: str = "") -> Nonce:
        return Nonce(self._take(), label)

    def privkey(self, label: str = "") -> PrivKey:
        return PrivKey(self._take(), label)

    def dhpriv(self, label: str = "") -> DhPriv:
        return DhPriv(self._take(), label)


# ---------------------------------------------------------------------------
# Operations on terms
# ---------------------------------------------------------------------------

def pub(sk: PrivKey) -> PubKey:
    return PubKey(sk)


def dh_pub(d: DhPriv) -> DhPub:
    return DhPub(d)


def dh_shared(d: DhPriv, q: DhPub) -> DhShared:
    """Shared secret; dh_shared(a, pub(b)) == dh_shared(b, pub(a))."""
    a, b = d, q.of
    if a.id <= b.id:
        return DhShared(a, b)
    return DhShared(b, a)


def kdf(shared: Term, oid: Term, eid: Term, which: str) -> Kdf:
    return Kdf(shared, oid, eid, which)


def pairs(items: Iterable[Term]) -> Term:
    """Right-nested pair encoding of a non-empty sequence."""
    items = list(items)
    if not items:
        raise ValueError("cannot encode empty sequence")
    out = items[-1]
    for t in reversed(items[:-1]):
        out = Pair(t, out)
    return out


def unpairs(t: Term, n: int) -> list[Term]:
    """Inverse of pairs() for a known arity; raises SealError on shape mismatch."""
    out: list[Term] = []
    for _ in range(n - 1):
        if not isinstance(t, Pair):
            raise SealError(f"expected {n}-tuple, ran out at {len(out)}")
        out.append(t.left)
        t = t.right
    out.append(t)
    return out


def seal(kind: str, key: Term, body: Term) -> Term:
    if kind == "sign":
        if not isinstance(key, PrivKey):
            raise ValueError("sign needs a PrivKey")
        return Sign(key, body)
    if kind == "senc":
        return SEnc(key, body)
    if kind == "mac":
        return Mac(key, body)
    raise ValueError(f"unknown seal kind {kind!r}")


def unseal(kind: str, key: Term, sealed: Term) -> Term:
    """Open a sealed term; SealError on any mismatch (receiver must abort).

    For signatures the key is the signer's PubKey and the signed body is
    returned on success, i.e. verification doubles as extraction.
    """
    if kind == "sign":
        if not isinstance(sealed, Sign):
            raise SealError("not a signature")
        if not isinstance(key, PubKey) or key.of is not sealed.key:
            raise SealError("signature key mismatch")
        return sealed.body
    if kind == "senc":
        if not isinstance(sealed, SEnc):
            raise SealError("not a ciphertext")
        if sealed.key != key:
            raise SealError("decryption key mismatch")
        return sealed.body
    if kind == "mac":
        if not isinstance(sealed, Mac):
            raise SealError("not a mac")
        if sealed.key != key:
            raise SealError("mac key mismatch")
        return sealed.body
    raise ValueError(f"unknown seal kind {kind!r}")


# ---------------------------------------------------------------------------
# Canonical textual encoding (trace dumps, counterexample slices)
# ---------------------------------------------------------------------------

@functools.cache
def encode(t: Term) -> str:
    """Injective s-expression encoding; stable across runs with one seed.
    Memoized by the interned term."""
    if isinstance(t, Atom):
        return t.label
    if isinstance(t, Nonce):
        return f"(nonce {t.id} {t.label})" if t.label else f"(nonce {t.id})"
    if isinstance(t, PrivKey):
        return f"(priv {t.id} {t.label})" if t.label else f"(priv {t.id})"
    if isinstance(t, PubKey):
        return f"(pub {encode(t.of)})"
    if isinstance(t, DhPriv):
        return f"(dpriv {t.id} {t.label})" if t.label else f"(dpriv {t.id})"
    if isinstance(t, DhPub):
        return f"(dpub {encode(t.of)})"
    if isinstance(t, DhShared):
        return f"(dh {t.lo.id} {t.hi.id})"
    if isinstance(t, Pair):
        return f"(pair {encode(t.left)} {encode(t.right)})"
    if isinstance(t, Sign):
        return f"(sign {encode(t.key)} {encode(t.body)})"
    if isinstance(t, SEnc):
        return f"(senc {encode(t.key)} {encode(t.body)})"
    if isinstance(t, Mac):
        return f"(mac {encode(t.key)} {encode(t.body)})"
    if isinstance(t, Kdf):
        return f"(kdf {encode(t.shared)} {encode(t.oid)} {encode(t.eid)} {t.which})"
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Attacker knowledge and deduction
# ---------------------------------------------------------------------------

class Knowledge:
    """The terms an adversary has observed, their destructor closure, and
    the derivation rules.

    ``deduce`` is sound and complete for the rule set described in the
    module docstring: the closure saturates the base under destructors
    (projection, body extraction, conditional decryption), and goal-directed
    constructor queries are answered against it.

    Knowledge is monotone and mutable: ``learn`` adds to ``base`` in place
    and returns None.  Learned terms wait in a queue; ``closure`` pushes
    them through the rules into the one closure set and returns that live
    set, which callers read and never change.  A pair, signature or MAC
    adds its memoized keyless parts in one update, so each term is taken
    apart once per process; only its ciphertexts are parked for a key.
    ``deduce`` answers a goal that is in the base or in the closure built
    so far at once, since both only grow and lie inside the full closure,
    and leaves the queue for the next read that needs it; only a miss
    drains it.  A caller that wants the knowledge of a hypothetical run
    (say, after a key leak) builds a new ``Knowledge`` from a base of its
    own.
    """

    __slots__ = ("base", "_todo", "_closure", "_parked")

    def __init__(self, base: Iterable[Term] = ()) -> None:
        self.base: set = set(base)
        # learned terms not yet pushed through the rules
        self._todo: list = list(self.base)
        self._closure: set = set()
        # ciphertexts in the closure whose key is not derivable (yet)
        self._parked: list = []

    def learn(self, *ts: Term) -> None:
        for t in ts:
            if t not in self.base:
                self.base.add(t)
                self._todo.append(t)

    # -- destructor saturation ---------------------------------------------

    def closure(self) -> set:
        known, todo, parked = self._closure, self._todo, self._parked
        while todo:
            size = len(known)
            while todo:
                t = todo.pop()
                if t in known:
                    continue
                if isinstance(t, (Pair, Sign, Mac)):
                    parts, ciphertexts = _open_parts(t)
                    parked += [c for c in ciphertexts if c not in known]
                    known.update(parts)
                else:
                    known.add(t)
                    if isinstance(t, SEnc):
                        parked.append(t)
            if len(known) == size:
                break
            # the growth may have made a parked key derivable, by learning
            # it or by letting the attacker construct it (Kdf, DhShared)
            waiting = []
            for c in parked:
                if c.body in known:
                    continue
                if _derivable(c.key, known):
                    todo.append(c.body)
                else:
                    waiting.append(c)
            parked = self._parked = waiting
        return known

    def deduce(self, goal: Term) -> bool:
        if goal in self.base or goal in self._closure:
            return True
        return _derivable(goal, self.closure())


@functools.cache
def _open_parts(t: Term) -> tuple[tuple[Term, ...], tuple[Term, ...]]:
    """Every term that projection and body extraction take out of the
    ``Pair``, ``Sign`` or ``Mac`` t, t included, and the ciphertexts among
    them: what a closure gains from t before any key is needed."""
    parts: dict = {}
    todo = [t]
    while todo:
        u = todo.pop()
        if u in parts:
            continue
        parts[u] = None
        if isinstance(u, Pair):
            todo += (u.left, u.right)
        elif isinstance(u, (Sign, Mac)):
            todo.append(u.body)
    return tuple(parts), tuple(u for u in parts if isinstance(u, SEnc))


def _derivable(goal: Term, known: set) -> bool:
    """Goal-directed constructor check over a destructor-saturated set.
    Each call goes to a strictly smaller term or to ``DhPub`` of a leaf,
    and terms are finite, so the recursion ends without a cycle guard."""
    if goal in known:
        return True
    if isinstance(goal, Atom):
        return True
    if isinstance(goal, (Nonce, PrivKey, DhPriv)):
        return False  # fresh values are never guessable
    if isinstance(goal, Pair):
        return _derivable(goal.left, known) and _derivable(goal.right, known)
    if isinstance(goal, (Sign, SEnc, Mac)):
        return _derivable(goal.key, known) and _derivable(goal.body, known)
    if isinstance(goal, (PubKey, DhPub)):
        return _derivable(goal.of, known)
    if isinstance(goal, DhShared):
        lo, hi = goal.lo, goal.hi
        if _derivable(lo, known) and _derivable(DhPub(hi), known):
            return True
        return _derivable(hi, known) and _derivable(DhPub(lo), known)
    if isinstance(goal, Kdf):
        return (_derivable(goal.shared, known) and _derivable(goal.oid, known)
                and _derivable(goal.eid, known))
    raise TypeError(f"not a term: {goal!r}")
