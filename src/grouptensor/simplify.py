"""Conservative Tietze simplification of presentations.

Only two semantics-preserving moves are applied, repeatedly, until
nothing changes:

* a relator of length 1 makes its generator the identity;
* a relator of length 2 in distinct generators identifies one generator
  with the other (or its inverse), tracked by a signed union-find;
  a length-2 relator g g makes g an involution and is kept.

Relators are then rewritten through the substitution, freely and
cyclically reduced, and deduplicated up to rotation and inversion.  The
group presented is unchanged; only the presentation shrinks.  This is
worth running before enumerating tensor presentations, whose relator
families contain huge numbers of such redundancies.

The work is done on the presentation's stored rows of letter codes
(2g for g, 2g + 1 for g^-1), already freely reduced, and each pass
applies every move found in them at once; only the generator images
become words.  Each pass reduces its rows once, freely and cyclically
together (`fp._reduce_rows`), and re-reduces only the rows its
substitution un-reduced: rows already freely and cyclically reduced are
copied unchanged.  The final deduplication keys each distinct row once;
it is the only one on the way to an enumeration, which takes relators
as stored.

The tensor presentations have hundreds of thousands of rows only three
codes wide, so the passes follow the row rule of `fp`: per-row tests
and counts go one column at a time (`_row_lengths`), rows are selected
with np.take and np.compress, and rows are compared through one int64
key per row (`_row_keys`), never by reducing along a row or by boolean
or fancy row selection.  At most two generations of the rows are alive
at once: a pass moves its kept rows up and substitutes them in place,
one column at a time, and rebinds `rows` after the reduction.
"""

from __future__ import annotations

import numpy as np

from ._engine import _row_lengths
from .fp import FpPresentation, _cyclic_class_firsts, _decode_rows, _distinct_rows, _reduce_rows, _stack_rows

__all__ = ["tietze_reduce"]


def tietze_reduce(presentation: FpPresentation) -> tuple:
    """Shrink a presentation; returns (reduced, gen_images).

    ``gen_images[g]`` is a word in the reduced presentation's
    generators equal to the image of original generator g (the empty
    word when g became the identity).

    >>> p = FpPresentation(("a", "b", "c"), (((0, 1), (1, -1)), ((2, 1),), ((0, 1),) * 4))
    >>> q, images = tietze_reduce(p)
    >>> q.generator_names, images
    (('a',), (((0, 1),), ((0, 1),), ()))
    """
    names = presentation.generator_names
    n = len(names)
    image = np.arange(2 * n, dtype=np.int32)
    rows = _reduce_rows(presentation.codes, cyclic=True)
    while True:
        length = _row_lengths(rows)
        single = length == 1
        pair = length == 2
        if rows.shape[1] >= 2:
            pair &= (rows[:, 0] >> 1) != (rows[:, 1] >> 1)
        if not (single.any() or pair.any()):
            rows = _keep_rows(rows, length > 0)
            break
        kills = np.compress(single, rows[:, 0]) >> 1
        step, involutions = _merge(n, kills, _distinct_rows(np.compress(pair, rows[:, :2], axis=0)))
        step = np.append(step, -1)
        image = step[image]
        rows = _keep_rows(rows, (length > 1) & ~pair)
        del length, single, pair  # freed before the reductions allocate
        for j in range(rows.shape[1]):
            rows[:, j] = step[rows[:, j]]
        if involutions.size:
            rows = _stack_rows(rows, np.repeat(step[involutions, None], 2, axis=1))
        rows = _reduce_rows(rows, cyclic=True)

    live = np.flatnonzero(image[0::2] == 2 * np.arange(n))
    renumber = np.full(2 * n + 1, -1, dtype=np.int32)
    renumber[2 * live] = 2 * np.arange(live.size)
    renumber[2 * live + 1] = 2 * np.arange(live.size) + 1
    # renumbering keeps the order of the live codes, so classes can be picked first
    rows = renumber[rows.take(_cyclic_class_firsts(rows), axis=0)]
    reduced = FpPresentation(tuple(names[g] for g in live), rows)
    return reduced, _decode_rows(renumber[image[0::2, None]])


def _keep_rows(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows where `keep` is set, moved up in place one column at a
    time; `rows` must be the caller's own array, and the result is a
    view of it."""
    count = int(np.count_nonzero(keep))
    for j in range(rows.shape[1]):
        rows[:count, j] = rows[:, j][keep]
    return rows[:count]


def _merge(n: int, kills: np.ndarray, pairs: np.ndarray) -> tuple:
    """One pass of moves on generators 0..n-1; returns (step, involutions).

    `kills` are generators equal to 1 and each row (c, d) of `pairs`
    says that the letters with codes c and d multiply to 1.  `step` maps
    every letter code to its image code, or to -1 when the letter
    became the identity; `involutions` are codes r with r^2 = 1 forced
    by pairs whose signs conflict.  Each class is represented by its
    least generator, and a kill anywhere in a class kills the class.
    """
    parent = list(range(n))
    sign = [1] * n

    def find(g):
        path = []
        while parent[g] != g:
            path.append(g)
            g = parent[g]
        s = 1
        for x in reversed(path):
            s *= sign[x]
            parent[x], sign[x] = g, s
        return g, s

    involutions = []
    for c, d in pairs.tolist():
        # a^sa b^sb = 1 with a = ra^xa, b = rb^xb gives ra^(sa xa) = rb^(-sb xb)
        ra, xa = find(c >> 1)
        rb, xb = find(d >> 1)
        rel = -(1 - 2 * (c & 1)) * xa * (1 - 2 * (d & 1)) * xb
        if ra == rb:
            if rel == -1:
                involutions.append(2 * ra)
            continue
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        sign[rb] = rel
    root = np.array(parent, dtype=np.intp)
    flip = np.array(sign) < 0
    while True:
        up = root[root]
        if np.array_equal(up, root):
            break
        flip ^= flip[root]
        root = up
    dead = np.zeros(n, dtype=bool)
    dead[root[kills]] = True
    forward = np.where(dead[root], -1, 2 * root + flip)
    step = np.empty(2 * n, dtype=np.int32)
    step[0::2] = forward
    step[1::2] = np.where(forward < 0, -1, forward ^ 1)
    return step, np.array(involutions, dtype=np.int32)
