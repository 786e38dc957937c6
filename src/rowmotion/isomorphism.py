"""Isomorphism testing for the small graded posets handled here.

Invariant refinement on the cover graph narrows candidate pairings, then a
backtracking search settles the question exactly.  Intended for posets of at
most a few hundred elements.
"""

from __future__ import annotations

from .poset import Poset


def _stable_colors(poset: Poset) -> list[int]:
    """Refine (rank, up-degree, down-degree) by neighbour multisets until the
    partition stops splitting."""
    ups, downs = poset.upper, poset.lower
    n = poset.n_elements
    initial = [
        (poset.rank[i], len(ups[i]), len(downs[i])) for i in range(n)
    ]
    relabel = {s: k for k, s in enumerate(sorted(set(initial)))}
    colors = [relabel[s] for s in initial]
    while True:
        sig = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in ups[i])),
                tuple(sorted(colors[j] for j in downs[i])),
            )
            for i in range(n)
        ]
        fresh = {s: k for k, s in enumerate(sorted(set(sig)))}
        new = [fresh[s] for s in sig]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def are_isomorphic(p: Poset, q: Poset) -> bool:
    if p.n_elements != q.n_elements:
        return False
    if p.max_rank != q.max_rank:
        return False
    if sorted(p.rank) != sorted(q.rank):
        return False
    if len(p.covers) != len(q.covers):
        return False
    n = p.n_elements
    if n == 0:
        return True

    cp = _stable_colors(p)
    cq = _stable_colors(q)
    if sorted(cp) != sorted(cq):
        return False

    ups_p, downs_p = p.upper, p.lower
    ups_q, downs_q = q.upper, q.lower
    by_color: dict[int, list[int]] = {}
    for j in range(n):
        by_color.setdefault(cq[j], []).append(j)
    # most constrained elements first
    order = sorted(range(n), key=lambda i: (len(by_color[cp[i]]), p.rank[i]))
    match = [-1] * n
    used = [False] * n
    up_sets_q = [set(u) for u in ups_q]
    down_sets_q = [set(d) for d in downs_q]

    def ok(i: int, j: int) -> bool:
        if len(downs_p[i]) != len(downs_q[j]) or len(ups_p[i]) != len(ups_q[j]):
            return False
        for a in downs_p[i]:
            if match[a] != -1 and match[a] not in down_sets_q[j]:
                return False
        for a in ups_p[i]:
            if match[a] != -1 and match[a] not in up_sets_q[j]:
                return False
        return True

    # backtrack without recursion: tries[k] is order[k]'s next candidate
    tries = [0] * n
    k = 0
    while 0 <= k < n:
        i = order[k]
        if match[i] != -1:
            used[match[i]] = False
        candidates = by_color[cp[i]]
        for t in range(tries[k], len(candidates)):
            j = candidates[t]
            if not used[j] and ok(i, j):
                match[i], used[j], tries[k] = j, True, t + 1
                k += 1
                break
        else:
            match[i], tries[k] = -1, 0
            k -= 1
    return k == n
