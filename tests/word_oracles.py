"""Reference implementations that the tests compare the library against.

psi_bar_cases is the five-case block table for the starred step.  It reads
the plain form of the word, unlike the run shift that rowmotion.words.psi_bar
uses, so the two agree only if both descriptions of the step are right.
"""

from rowmotion.words import (
    parse_blocks,
    plain_to_starred,
    psi,
    starred_to_plain,
    validate_starred,
)


def psi_bar_cases(sword: str) -> str:
    """One starred step through the five-case table."""
    _, n = validate_starred(sword)
    return plain_to_starred(_cases(starred_to_plain(sword), n))


def _cases(word: str, n: int) -> str:
    """Five-case table on the plain form of a starred word."""
    blocks = parse_blocks(word)
    s = len(blocks)
    if s < 2:
        raise ValueError("starred words have at least two block pairs")
    total = 0
    i = 0
    for j, (a, _) in enumerate(blocks, start=1):
        total += a
        if total == n:
            i = j
            break
    if not 1 <= i <= s - 1:
        raise ValueError("no block boundary at the middle one")
    out = list(blocks)
    a_i = blocks[i - 1][0]
    if i == 1 and s == 2:
        (a1, b1), (a2, b2) = blocks
        parts = ["0" * (b1 - 1) + "1" * a1, "0" * (b2 + 1) + "1" * a2]
        return "".join(parts)
    if i == 1:
        parts = ["0" * (blocks[0][1] - 1) + "1" * blocks[0][0]]
        parts.append("0" * blocks[1][1] + "1" * (blocks[1][0] + 1))
        for j in range(2, s - 1):
            parts.append("0" * blocks[j][1] + "1" * blocks[j][0])
        parts.append("0" * (blocks[-1][1] + 1) + "1" * (blocks[-1][0] - 1))
        return "".join(parts)
    if a_i == 1:
        return psi(word)
    if i < s - 1:
        parts = ["0" * (blocks[0][1] - 1) + "1" * (blocks[0][0] + 1)]
        for j in range(1, s - 1):
            a, b = blocks[j]
            if j == i - 1:
                a -= 1
            elif j == i:
                a += 1
            parts.append("0" * b + "1" * a)
        parts.append("0" * (blocks[-1][1] + 1) + "1" * (blocks[-1][0] - 1))
        return "".join(parts)
    # i == s-1 with a_i > 1: the last ones count survives intact
    parts = ["0" * (blocks[0][1] - 1) + "1" * (blocks[0][0] + 1)]
    for j in range(1, s - 1):
        a, b = blocks[j]
        if j == i - 1:
            a -= 1
        parts.append("0" * b + "1" * a)
    parts.append("0" * (blocks[-1][1] + 1) + "1" * blocks[-1][0])
    return "".join(parts)
