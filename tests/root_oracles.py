"""The coefficient-one layers built from the whole root system, as oracles.

rowmotion.roots.layer generates a layer from its pivot alone and takes its
involution from the opposition involution of the Levi diagram.  The oracle
here filters root_system() for the roots of pivot coefficient 1, finds the
covers by the all-pairs rule, and maps every member through the longest
element of the parabolic subgroup, computed by reflecting the simple roots
until every image other than the pivot's is negative.
"""

from __future__ import annotations

from rowmotion.roots import root_system


def parabolic_longest_images(
    cartan: tuple[tuple[int, ...], ...], pivot: int
) -> list[tuple[int, ...]]:
    """Images of the simple roots under the longest element of the subgroup
    generated by the reflections other than the pivot (1-based)."""
    l = len(cartan)
    images = [tuple(1 if k == j else 0 for k in range(l)) for j in range(l)]
    others = [j for j in range(l) if j != pivot - 1]
    while True:
        j = next(
            (j for j in others if any(c > 0 for c in images[j])), None
        )
        if j is None:
            return images
        col = images[j]
        images = [
            tuple(
                images[k][t] - cartan[j][k] * col[t] for t in range(l)
            )
            for k in range(l)
        ]


def oracle_layer(family: str, rank: int, pivot: int) -> dict:
    """Keys, ranks, labels, covers (index pairs) and star (index
    permutation) of a layer, with members indexed by (height, coefficients)
    as Poset.from_cover_data indexes them."""
    system = root_system(family, rank)
    keys = [v for v in system.positive_roots if v[pivot - 1] == 1]
    index = {v: i for i, v in enumerate(keys)}
    images = parabolic_longest_images(system.cartan, pivot)
    star = [
        index[tuple(sum(v[k] * images[k][t] for k in range(rank))
                    for t in range(rank))]
        for v in keys
    ]
    # w covers v when it is one higher and componentwise at least v
    covers = [
        (i, j) for i, v in enumerate(keys) for j, w in enumerate(keys)
        if sum(w) == sum(v) + 1 and all(a <= b for a, b in zip(v, w))
    ]
    return {
        "keys": tuple(keys),
        "ranks": tuple(sum(v) for v in keys),
        "labels": tuple(",".join(str(c) for c in v) for v in keys),
        "covers": tuple(covers),
        "star": tuple(star),
    }
