"""Orbit-closure kernel.

Conjugation by a fixed element permutes the group; orbits are connected
components of the graph whose edges are those permutations.  orbit_roots
labels each element with the minimal element index of its component by
permutation doubling: each generator g alone takes every label to the
minimum over its g-cycle in logarithmically many steps, and rounds over
the generators repeat until a whole round changes nothing.

The input is an int64 array of shape (n_perms, n) where row g maps
element index e to its conjugate under generator g.
"""

from __future__ import annotations

import numpy as np


def orbit_roots(perms):
    """Component label (minimal member index) for each element.

    For one generator, starting from q = g, each step is
    labels = min(labels, labels[q]) and then q = q[q].  After step k a
    label is the minimum over the window of the 2^(k+1) elements that
    follow it along its g-cycle, so once a window covers the cycle, in
    about log2 of the cycle's length steps, a step changes nothing.  A
    step that changes nothing proves the same earlier: the labels, each a
    minimum over a window of w = 2^k, are then constant along every walk
    by q = g^w, which visits d = gcd(w, length) residues' worth of the
    cycle; the w windows that hold the cycle's minimum start at w >= d
    consecutive places, one on every such walk, so every label is the
    cycle's minimum.  Forward windows cover a cycle, so no inverse
    permutation is needed.  A round over the generators that changes
    nothing leaves every label constant on every generator's cycles, and
    so on each component, whose least index keeps its own label."""
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    labels = np.arange(perms.shape[1], dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for q in perms:
            while True:
                pulled = np.minimum(labels, labels[q])
                if np.array_equal(pulled, labels):
                    break
                labels = pulled
                changed = True
                q = q[q]
    return labels
