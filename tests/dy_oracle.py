"""Independent brute-force derivability oracle.

Deliberately a different algorithm from the engine under test: forward
saturation over a closed finite term universe, applying every destructor
and constructor rule until fixpoint, then a membership lookup.  Complete
for any goal inside the universe, which is all the random tests generate.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

from rsplab.terms import (Atom, DhPriv, DhPub, DhShared, Kdf, Mac, Nonce,
                          Pair, PrivKey, PubKey, SEnc, Sign, Term, dh_shared)


def subterms(t: Term) -> Iterator[Term]:
    """All subterms including t itself (pre-order)."""
    yield t
    if isinstance(t, Pair):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, Sign):
        yield from subterms(t.key)
        yield from subterms(t.body)
    elif isinstance(t, (SEnc, Mac)):
        yield from subterms(t.key)
        yield from subterms(t.body)
    elif isinstance(t, PubKey):
        yield from subterms(t.of)
    elif isinstance(t, DhPub):
        yield from subterms(t.of)
    elif isinstance(t, DhShared):
        yield from subterms(t.lo)
        yield from subterms(t.hi)
    elif isinstance(t, Kdf):
        yield from subterms(t.shared)
        yield from subterms(t.oid)
        yield from subterms(t.eid)


def term_universe(roots) -> set:
    """All subterms of the roots, closed under the public-key and DH
    constructors over the private material that appears."""
    uni = set()
    for t in roots:
        uni.update(subterms(t))
    privs = [t for t in uni if isinstance(t, DhPriv)]
    for d in privs:
        uni.add(DhPub(d))
    for a, b in combinations_with_replacement(sorted(privs, key=lambda d: d.id), 2):
        uni.add(dh_shared(a, DhPub(b)))
    for k in [t for t in uni if isinstance(t, PrivKey)]:
        uni.add(PubKey(k))
    return uni


def _one_step_constructible(t: Term, known: set) -> bool:
    if isinstance(t, Atom):
        return True
    if isinstance(t, Pair):
        return t.left in known and t.right in known
    if isinstance(t, Sign):
        return t.key in known and t.body in known
    if isinstance(t, (SEnc, Mac)):
        return t.key in known and t.body in known
    if isinstance(t, PubKey):
        return t.of in known
    if isinstance(t, DhPub):
        return t.of in known
    if isinstance(t, DhShared):
        return ((t.lo in known and DhPub(t.hi) in known)
                or (t.hi in known and DhPub(t.lo) in known))
    if isinstance(t, Kdf):
        return (t.shared in known and t.oid in known and t.eid in known)
    return False  # Nonce/PrivKey/DhPriv: never constructed


def saturate(base, universe) -> set:
    known = set(base)
    changed = True
    while changed:
        changed = False
        for t in list(known):
            parts = []
            if isinstance(t, Pair):
                parts = [t.left, t.right]
            elif isinstance(t, (Sign, Mac)):
                parts = [t.body]
            elif isinstance(t, SEnc) and t.key in known:
                parts = [t.body]
            for p in parts:
                if p not in known:
                    known.add(p)
                    changed = True
        for t in universe:
            if t not in known and _one_step_constructible(t, known):
                known.add(t)
                changed = True
    return known


def oracle_deduce(base, goal: Term) -> bool:
    universe = term_universe(list(base) + [goal])
    return goal in saturate(base, universe)
