"""Orbit-closure kernel.

Conjugation by a fixed element permutes the group; orbits are connected
components of the graph whose edges are those permutations.  orbit_roots
labels each element with the minimal element index of its component by
a numpy label-propagation sweep: every element repeatedly pulls the
smaller label across each permutation and its inverse until nothing
changes, so the result does not depend on the order of the sweep.

The input is an int64 array of shape (n_perms, n) where row g maps
element index e to its conjugate under generator g.
"""

from __future__ import annotations

import numpy as np


def orbit_roots(perms):
    """Component label (minimal member index) for each element."""
    perms = np.ascontiguousarray(perms, dtype=np.int64)
    labels = np.arange(perms.shape[1], dtype=np.int64)
    # include inverse permutations so min-labels flow both ways along edges
    directed = list(perms)
    directed += [np.argsort(p, kind="stable") for p in directed]
    changed = True
    while changed:
        changed = False
        for p in directed:
            pulled = np.minimum(labels, labels[p])
            if not np.array_equal(pulled, labels):
                labels = pulled
                changed = True
    return labels
