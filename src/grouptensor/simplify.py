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
"""

from __future__ import annotations

from .fp import FpPresentation, _cyclic_key, cyclic_reduce, free_reduce

__all__ = ["tietze_reduce"]


class _SignedUnionFind:
    """Union-find over generators with a sign relating child to root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = [1] * n

    def find(self, g: int) -> tuple:
        if self.parent[g] == g:
            return g, self.sign[g]
        root, s = self.find(self.parent[g])
        self.parent[g] = root
        self.sign[g] = self.sign[g] * s
        return root, self.sign[g]

    def union(self, a: int, sa: int, b: int, sb: int):
        """Record a^sa = b^sb; returns an extra relator root or None.

        When a and b are already identified and the signs conflict the
        identification forces root^2 = 1, reported to the caller as an
        extra relator.
        """
        ra, xa = self.find(a)
        rb, xb = self.find(b)
        # a^sa = b^sb with a = ra^xa, b = rb^xb: ra^(sa xa) = rb^(sb xb)
        rel = sa * xa * sb * xb
        if ra == rb:
            return ra if rel == -1 else None
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.sign[rb] = rel
        return None


def _rewrite(word, uf: _SignedUnionFind, killed) -> tuple:
    out = []
    for g, s in word:
        root, sign = uf.find(g)
        if killed[root]:
            continue
        out.append((root, s * sign))
    return cyclic_reduce(free_reduce(out))


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
    n = presentation.num_generators
    uf = _SignedUnionFind(n)
    killed = [False] * n
    pending = [cyclic_reduce(w) for w in presentation.relators]
    survivors = []
    while True:
        changed = False
        next_pending = []
        for w in pending:
            w = _rewrite(w, uf, killed)
            if not w:
                continue
            if len(w) == 1:
                root, _ = uf.find(w[0][0])
                if not killed[root]:
                    killed[root] = True
                    changed = True
                continue
            if len(w) == 2 and w[0][0] != w[1][0]:
                (a, sa), (b, sb) = w
                # a^sa b^sb = 1, so a^sa = b^-sb
                extra = uf.union(a, sa, b, -sb)
                changed = True
                if extra is not None:
                    next_pending.append(((extra, 1), (extra, 1)))
                continue
            next_pending.append(w)
        if changed:
            pending = next_pending + survivors
            survivors = []
        else:
            survivors = next_pending
            break

    live = sorted(
        {uf.find(g)[0] for g in range(n) if not killed[uf.find(g)[0]]}
    )
    new_index = {root: i for i, root in enumerate(live)}
    names = tuple(presentation.generator_names[root] for root in live)

    seen = set()
    relators = []
    for w in survivors:
        w = _rewrite(w, uf, killed)
        if not w:
            continue
        w = tuple((new_index[g], s) for g, s in w)
        key = _cyclic_key(w)
        if key not in seen:
            seen.add(key)
            relators.append(w)

    gen_images = []
    for g in range(n):
        root, sign = uf.find(g)
        if killed[root]:
            gen_images.append(())
        else:
            gen_images.append(((new_index[root], sign),))
    return FpPresentation(names, tuple(relators)), tuple(gen_images)
