"""The metacyclic groups C(p^s) x| G(p^r): elements, group law, conjugacy.

An element is a pair (i, u): i is a residue mod p^s (the cyclic part,
written multiplicatively as z^i) and u a unit mod p^r acting on the cyclic
part through its reduction mod p^s.  The law is

    (i, u) * (j, t) = (i + u*j mod p^s, u*t mod p^r).

Conjugacy is completely controlled by two depths:

    alpha = min(v_p(u - 1), r)          -- how deep the unit part sits,
    beta  = min(v_p(i), alpha, s)       -- how deep the cyclic part sits,

and the class of (i, u) is {(j, u) : v_p(j) = beta} when beta < min(alpha, s)
(size p^{s-beta} - p^{s-beta-1}), or {(j, u) : v_p(j) >= beta} when
beta = min(alpha, s) (size p^{s-beta}).  The sigma-part u is itself a class
invariant, so (u, beta) keys the class.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .arith import ensure, is_prime, vp


class GroupDesc(namedtuple("GroupDesc", "p r s")):
    __slots__ = ()

    def __new__(cls, p, r, s):
        if p == 2 or not is_prime(p):
            raise ValueError(f"GroupDesc: p = {p} must be an odd prime")
        if not 0 <= s <= r or r < 1:
            raise ValueError(f"GroupDesc: need r >= 1 and 0 <= s <= r (got r={r}, s={s})")
        return super().__new__(cls, p, r, s)

    @classmethod
    def _make(cls, iterable):
        """Through __new__, so that _replace validates too."""
        return cls(*iterable)

    @property
    def order(self):
        p, r, s = self.p, self.r, self.s
        return p**s * p ** (r - 1) * (p - 1)

    @property
    def ps(self):
        return self.p**self.s

    @property
    def pr(self):
        return self.p**self.r


HolomorphElement = namedtuple("HolomorphElement", "i u")


def element(G, i, u):
    i %= G.ps
    u %= G.pr
    if u % G.p == 0:
        raise ValueError(f"({i},{u}) is not an element: unit part not a unit mod {G.p}^{G.r}")
    return HolomorphElement(i, u)


class ConjClass(namedtuple("ConjClass", "alpha beta representative size")):
    __slots__ = ()

    @property
    def key(self):
        """(u, beta) determines the class; alpha is a function of u."""
        return (self.representative.u, self.beta)


def _alpha_of(u, G):
    if u == 1:
        return G.r
    return min(vp(u - 1, G.p), G.r)


def conj_class_of(g, G):
    """The conjugacy class of g, by the closed-form depth invariants."""
    p, s = G.p, G.s
    alpha = _alpha_of(g.u, G)
    cap = min(alpha, s)
    beta = cap if g.i == 0 else min(vp(g.i, p), cap)
    if beta < cap:
        size = p ** (s - beta) - p ** (s - beta - 1)
    else:
        size = p ** (s - beta)
    rep = HolomorphElement(pow(p, beta) % G.ps, g.u)
    return ConjClass(alpha, beta, rep, size)


@lru_cache(maxsize=None)
def all_classes(G):
    """Complete duplicate-free class list, sorted by (alpha, beta, u).

    Cached per group; callers must treat the list as read-only."""
    p, r, s = G.p, G.r, G.s
    out = []
    for u in range(G.pr):
        if u % p == 0:
            continue
        alpha = _alpha_of(u, G)
        cap = min(alpha, s)
        for beta in range(cap + 1):
            out.append(conj_class_of(HolomorphElement(pow(p, beta) % G.ps, u), G))
    out.sort(key=lambda c: (c.alpha, c.beta, c.representative.u))
    ensure(sum(c.size for c in out) == G.order)
    return out


def class_count(G):
    """p^{r-1}(p-1) + p^{r-s}(p^s - 1)/(p-1) — one class per unit plus one
    more for each extra depth the cyclic part can take under that unit."""
    p, r, s = G.p, G.r, G.s
    extra = (p**s - 1) // (p - 1)
    return p ** (r - 1) * (p - 1) + p ** (r - s) * extra
