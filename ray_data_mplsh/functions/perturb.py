"""Score-ordered perturbation-set generation — the reference's namesake
algorithm ([MPLSH §4.4, Algorithm 1]; /root/reference/README.md:1 names the
repo "Multi-Probe-LSH-in-C", i.e. Lv et al., VLDB 2007).

Given per-unit scores (for E2LSH: x_i(δ)^2, the squared distance of the
query to the slot boundary in direction δ; for SimHash: per-bit margins),
emit perturbation sets in non-decreasing total-score order WITHOUT
enumerating the 3^M universe: sort units by score, represent a candidate
as a set of indices into the sorted order, and grow best-first with a
min-heap and two moves —

* shift(A):  replace max(A) = j with j+1
* expand(A): add j+1

starting from {0}. Each heap pop yields the globally next-cheapest set
(the paper's Theorem: shift/expand generate every set exactly once, in
score order). Validity: with paired units (the (i,-1)/(i,+1) columns of
E2LSH) a set may not contain both members of a pair; out-of-range sets are
skipped.
"""

from __future__ import annotations

import heapq

import numpy as np


def perturbation_sets(scores: np.ndarray, max_sets: int,
                      pair_of: np.ndarray | None = None) -> list[np.ndarray]:
    """First ``max_sets`` valid perturbation sets in non-decreasing
    total-score order.

    ``scores``: per-unit scores (length U). ``pair_of``: optional length-U
    array where pair_of[u] is the unit that conflicts with u (e.g. the
    opposite-direction perturbation of the same coordinate); -1 = no pair.
    Returns index arrays into the ORIGINAL unit numbering.
    """
    U = len(scores)
    if U == 0 or max_sets <= 0:
        return []
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    # position of each unit in sorted order, for validity checks
    inv = np.empty(U, dtype=np.int64)
    inv[order] = np.arange(U)

    def valid(idx: tuple[int, ...]) -> bool:
        if pair_of is None:
            return True
        units = order[list(idx)]
        taken = set(units.tolist())
        for u in units.tolist():
            p = int(pair_of[u])
            if p >= 0 and p in taken:
                return False
        return True

    out: list[np.ndarray] = []
    # heap entries: (total_score, sorted-index tuple)
    heap: list[tuple[float, tuple[int, ...]]] = [(float(s[0]), (0,))]
    seen = {(0,)}
    while heap and len(out) < max_sets:
        total, idx = heapq.heappop(heap)
        if valid(idx):
            out.append(np.sort(order[list(idx)]))
        j = idx[-1]
        if j + 1 < U:
            shift = idx[:-1] + (j + 1,)
            if shift not in seen:
                seen.add(shift)
                heapq.heappush(heap, (total - float(s[j]) + float(s[j + 1]),
                                      shift))
            expand = idx + (j + 1,)
            if expand not in seen:
                seen.add(expand)
                heapq.heappush(heap, (total + float(s[j + 1]), expand))
    return out
