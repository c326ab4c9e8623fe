"""Non-abelian tensor and exterior squares, and the Peiffer product.

Given a compatible pair of finite groups acting on each other, the
tensor product G (x) H is presented on |G|*|H| generators t{g}_{h},
one per pair of elements, subject to two relation families

    (g g1) (x) h  =  (g^g1 (x) h^g1) (g1 (x) h)
    g (x) (h h1)  =  (g (x) h1) (g^h1 (x) h^h1)

where each group acts on itself by conjugation and on the other group
through the pair's actions.  The relators, one array of letter-code
rows handed to `FpPresentation` as it is, are Tietze-reduced and
enumerated with :mod:`grouptensor.fp`.  Every claimed property of
the construction is re-checked on the finished multiplication table:
both relation families, the derived map kappa, its image, and the
centrality of its kernel.

The exterior square additionally kills the diagonal generators g (x) g,
and the Peiffer product quotients the free product G * H by the
Peiffer commutation relators instead.  That one is presented on
generating sets X of G and Y of H: the Cayley-graph presentations of
G and H, plus the Peiffer relators for x in X and y in Y only, which
imply them for all element pairs.  Both presentations go one way,
through `_realize_reduced`: Tietze reduction, realization, and then the
element of each original generator.  The enumerated group is still
checked elementwise over the full multiplication tables.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._engine import VERIFY_BLOCK
from .actions import CompatiblePair, conjugation_pair, derived_subgroup_dh
from .errors import InternalInvariantError, _check_index
from .fp import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_BYTES,
    FiniteGroupRealization,
    FpPresentation,
    _check_bytes,
    _index_array,
    invert_word,
    realize,
)
from .simplify import tietze_reduce

__all__ = [
    "TensorGroup",
    "PeifferGroup",
    "tensor_presentation",
    "tensor_product",
    "tensor_square",
    "exterior_square",
    "peiffer_presentation",
    "peiffer_product",
]


def tensor_presentation(pair: CompatiblePair) -> FpPresentation:
    """Presentation of G (x) H on one generator per element pair.

    Both relation families are instantiated over all triples in
    row-major order and freely reduced.  Nothing else is removed: the
    generators 1 (x) h and g (x) 1 are present, and their triviality in
    the enumerated group is a consequence of the relations.

    >>> from .catalog import catalog_group
    >>> from .actions import trivial_pair
    >>> z2 = catalog_group("Z2")
    >>> p = tensor_presentation(trivial_pair(z2, z2))
    >>> p.num_generators, len(p.relators)
    (4, 16)
    """
    return FpPresentation(*_tensor_relators(pair))


# Peak bytes per tensor relator, for the memory guard.  Tracemalloc peaks
# over whole tensor / exterior squares, per relator row: A5 38.9 / 39.4,
# S5 55.7 / 38.5, PSL(2,7) 56.3 / 56.2 (9,483,264 rows, 534 MB).  The
# estimate is 80, about 40% above the largest reading, so the default
# 1 GiB cap admits PSL(2,7) and refuses A6 (93.3M rows).  Squares of a
# few thousand rows (A4, D4) read 50-350, where fixed costs outweigh the
# rows, but they stay far below any cap.
_CODE_ROW_BYTES = 80


def _tensor_relators(pair: CompatiblePair, *, diagonal: bool = False, max_bytes: int = DEFAULT_MAX_BYTES) -> tuple:
    """Generator names and the relators of G (x) H as letter-code rows.

    Row r is one relator of width 3 (codes 2t for t, 2t + 1 for t^-1,
    t = g * |H| + h for the generator g (x) h), in the row-major triple
    order of the two relation families; with `diagonal`, the rows g (x) g
    of the exterior square follow, padded with -1.  Before anything is
    allocated the peak bytes are estimated from |G| and |H|; above
    `max_bytes` this raises BudgetExceeded.
    """
    g, h = pair.g, pair.h
    ng, nh = g.order, h.order
    n1, n2 = ng * ng * nh, ng * nh * nh
    count = n1 + n2 + (ng if diagonal else 0)
    _check_bytes(count * _CODE_ROW_BYTES, max_bytes, f"{count} tensor relators")
    names = tuple(f"t{a}_{b}" for a in range(ng) for b in range(nh))
    ag = pair.act_h_on_g.table
    ah = pair.act_g_on_h.table
    a = np.arange(ng, dtype=np.int32)[:, None, None]
    b = np.arange(nh, dtype=np.int32)
    rows = np.empty((count, 3), dtype=np.int32)

    def family(out, t0, t1, t2):
        """Rows t0^-1 t1 t2 of generator indices, one per triple, written
        column by column into `out`."""
        for k, t in enumerate((t0, t1, t2)):
            np.multiply(t, 2, out=out[..., k])
        out[..., 0] += 1

    # over (g, g1, h): (g g1) (x) h = (g^g1 (x) h^g1) (g1 (x) h)
    family(
        rows[:n1].reshape(ng, ng, nh, 3), g.mul[:, :, None] * nh + b, g.conj[:, :, None] * nh + ah.T, a[:, :, 0] * nh + b
    )
    # over (g, h, h1): g (x) (h h1) = (g (x) h1) (g^h1 (x) h^h1)
    family(rows[n1 : n1 + n2].reshape(ng, nh, nh, 3), a * nh + h.mul, a * nh + b, ag[:, None, :] * nh + h.conj)
    if diagonal:
        rows[n1 + n2 :] = -1
        rows[n1 + n2 :, 0] = 2 * (nh + 1) * np.arange(ng)
    return names, rows


def _extend_homomorphism(
    source: FiniteGroupRealization, gens, images, target_mul: np.ndarray
) -> np.ndarray:
    """The homomorphism on `source` sending each ``gens[k]`` to ``images[k]``.

    `gens` and `images` are equally shaped arrays of source and target
    elements.  The map is built breadth-first from the identity over
    the distinct generator elements by img[x s] = img[x] img[s], then
    checked to reach every element, to agree with every given image and
    to be a homomorphism into the group with table `target_mul`: that
    img[x s] = img[x] img[s] for every x and every s in
    `source.generating_set`, a few s at a time so that each block holds
    at most VERIFY_BLOCK entries.  The s that pass are closed under
    products, so the law holds for all s.
    """
    gens = np.asarray(gens, dtype=np.intp).ravel()
    images = np.asarray(images, dtype=np.intp).ravel()
    steps, first = np.unique(gens, return_index=True)
    step_images = images[first]
    img = np.full(source.order, -1, dtype=np.int32)
    img[0] = 0
    frontier = np.zeros(1, dtype=np.int32)
    while frontier.size:
        reached = source.mul[frontier[:, None], steps[None, :]].ravel()
        values = target_mul[img[frontier][:, None], step_images[None, :]].ravel()
        new = img[reached] < 0
        frontier, at = np.unique(reached[new], return_index=True)
        img[frontier] = values[new][at]
    if (img < 0).any():
        raise InternalInvariantError("generators do not reach every element")
    if not np.array_equal(img[gens], images):
        raise InternalInvariantError("extended map disagrees with a generator image")
    checked = np.asarray(source.generating_set, dtype=np.intp)
    step = max(VERIFY_BLOCK // source.order, 1)
    for k in range(0, checked.size, step):
        s = checked[k : k + step]
        if not np.array_equal(target_mul[img[:, None], img[s]], img[source.mul[:, s]]):
            raise InternalInvariantError("extended map is not a homomorphism")
    return img


def _element_array(values, shape: tuple, realization: FiniteGroupRealization, what: str) -> np.ndarray:
    """A copy of `values` as an array of elements of `realization`;
    ValueError unless it has `shape` and integer entries in 0 .. order - 1."""
    array = np.array(_index_array(values, realization.order, what))
    if array.shape != shape:
        raise ValueError(f"{what} has shape {array.shape}, not {shape}")
    return array


class TensorGroup:
    """An enumerated tensor or exterior square/product with its maps.

    Built from the realization and the |G| x |H| array of generator
    elements alone, of which it keeps its own copy; ValueError unless
    that array has this shape and holds elements of the realization.
    Attributes of interest: ``realization`` (the multiplication table),
    and the read-only arrays ``gen_elements[g, h]`` (the realization
    element of g (x) h), ``kappa_images[g, h]`` (the element g^-1 g^h of
    G, int32) and ``kappa_elements[x]`` (the image in G of each
    realization element under the derived map).
    """

    def __init__(
        self,
        realization: FiniteGroupRealization,
        pair: CompatiblePair,
        gen_elements: np.ndarray,
        *,
        diagonal_collapsed: bool = False,
    ):
        self.realization = realization
        self.pair = pair
        shape = (pair.g.order, pair.h.order)
        self.gen_elements = _element_array(gen_elements, shape, realization, "gen_elements")
        self.diagonal_collapsed = diagonal_collapsed
        self.is_square = pair.g is pair.h and np.array_equal(
            pair.act_h_on_g.table, pair.g.conj
        ) and np.array_equal(pair.act_g_on_h.table, pair.g.conj)
        self._check_relation_families()
        self.kappa_images = pair.g.mul[pair.g.inv[:, None], pair.act_h_on_g.table]
        self.kappa_images.flags.writeable = False
        self.kappa_elements = self._build_kappa(self.kappa_images)
        self.gen_elements.flags.writeable = False
        self.kappa_elements.flags.writeable = False

    @property
    def order(self) -> int:
        return self.realization.order

    def generator_element(self, g: int, h: int) -> int:
        """Realization element of the generator g (x) h."""
        _check_index(g, self.pair.g.order, "element of G")
        _check_index(h, self.pair.h.order, "element of H")
        return int(self.gen_elements[g, h])

    def _check_relation_families(self):
        """Both relation families hold for the generator elements, checked
        for a few g at a time so that each block holds at most VERIFY_BLOCK
        triples."""
        e = self.gen_elements
        g, h = self.pair.g, self.pair.h
        mul = self.realization.mul
        cg, ch = g.conj, h.conj
        ag = self.pair.act_h_on_g.table
        ah = self.pair.act_g_on_h.table
        step = max(VERIFY_BLOCK // (max(g.order, h.order) * h.order), 1)
        blocks = [slice(a, a + step) for a in range(0, g.order, step)]
        for s in blocks:
            # over (g, g1, h): (g g1) (x) h = (g^g1 (x) h^g1) (g1 (x) h)
            if not np.array_equal(e[g.mul[s]], mul[e[cg[s, :, None], ah.T], e]):
                raise InternalInvariantError(
                    "first tensor relation family fails in the realization"
                )
        for s in blocks:
            # over (g, h, h1): g (x) (h h1) = (g (x) h1) (g^h1 (x) h^h1)
            if not np.array_equal(e[s, h.mul], mul[e[s, None, :], e[ag[s, None, :], ch]]):
                raise InternalInvariantError(
                    "second tensor relation family fails in the realization"
                )
        if self.diagonal_collapsed and not np.all(np.diagonal(e) == 0):
            raise InternalInvariantError("a diagonal generator survived collapsing")

    def _build_kappa(self, kappa_table: np.ndarray) -> np.ndarray:
        """Element-level derived map, rebuilt and fully verified.

        kappa sends g (x) h to g^-1 g^h; it extends to a homomorphism
        from the whole realization onto the derived subgroup D_H(G),
        whose image and kernel are compared against their
        characterisations.
        """
        r = self.realization
        out = _extend_homomorphism(r, self.gen_elements, kappa_table, self.pair.g.mul)
        if set(out.tolist()) != set(derived_subgroup_dh(self.pair)):
            raise InternalInvariantError("kappa image differs from D_H(G)")
        if not np.isin(np.flatnonzero(out == 0), r.center()).all():
            raise InternalInvariantError("kernel of kappa is not central")
        return out

    def kappa_of(self, x: int) -> int:
        """Image in G of a realization element under the derived map."""
        _check_index(x, self.order, "element")
        return int(self.kappa_elements[x])

    def _require_square(self, what: str):
        if not self.is_square:
            raise ValueError(f"{what} is only defined for conjugation squares")

    def j2(self) -> tuple:
        self._require_square("J2")
        return tuple(int(x) for x in np.flatnonzero(self.kappa_elements == 0))

    def psi(self, g: int) -> int:
        self._require_square("psi")
        _check_index(g, self.pair.g.order, "element of G")
        return int(self.gen_elements[g, g])

    def act(self, x: int, y: int) -> int:
        """Image of tensor element y under the action of x in G."""
        self._require_square("the G-action")
        _check_index(x, self.pair.g.order, "element of G")
        _check_index(y, self.order, "element")
        return int(self._action_table[y, x])

    @cached_property
    def _action_table(self) -> np.ndarray:
        """Action of G on the tensor square, one verified column per x,
        built on first use.

        On generators x sends g1 (x) g2 to g1^x (x) g2^x; each column
        is extended to an endomorphism of the realization and then
        checked to be a bijection.
        """
        r = self.realization
        cg = self.pair.g.conj
        n, ng = r.order, self.pair.g.order
        e = self.gen_elements
        table = np.empty((n, ng), dtype=np.int32)
        idx = np.arange(n)
        for x in range(ng):
            col = _extend_homomorphism(r, e, e[cg[:, x, None], cg[None, :, x]], r.mul)
            if not np.array_equal(np.sort(col), idx):
                raise InternalInvariantError("tensor action column is not a bijection")
            table[:, x] = col
        if not np.array_equal(table[:, 0], idx):
            raise InternalInvariantError("identity must act trivially on the tensor")
        table.flags.writeable = False
        return table

    def __repr__(self):
        kind = "exterior" if self.diagonal_collapsed else "tensor"
        return f"TensorGroup({kind}, order={self.order})"


def _realize_reduced(presentation: FpPresentation, **options) -> tuple:
    """Tietze-reduce a presentation, realize the reduced one (`options`
    go to `realize`), and locate each original generator: returns the
    realization and an int32 array of the generators' elements."""
    # rebinding drops the caller's rows before enumeration, when the
    # caller passed the presentation without keeping it
    presentation, images = tietze_reduce(presentation)
    r = realize(presentation, **options)
    return r, np.array([r.evaluate_word(w) for w in images], dtype=np.int32)


def _enumerate_tensor(
    pair: CompatiblePair,
    *,
    diagonal_collapsed: bool,
    budget: int,
    strategy: str,
    max_bytes: int,
    simplify: bool,
) -> TensorGroup:
    """Tietze-reduce the all-triples presentation, enumerate, and verify."""
    if simplify is not True:
        raise ValueError("tensor squares are always Tietze-reduced; simplify must be True")
    r, e = _realize_reduced(FpPresentation(*_tensor_relators(pair, diagonal=diagonal_collapsed, max_bytes=max_bytes)),
                            strategy=strategy, budget=budget, max_bytes=max_bytes)
    return TensorGroup(r, pair, e.reshape(pair.g.order, pair.h.order), diagonal_collapsed=diagonal_collapsed)


def tensor_product(
    pair: CompatiblePair,
    *,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "hlt",
    max_bytes: int = DEFAULT_MAX_BYTES,
    simplify: bool = True,
) -> TensorGroup:
    """Enumerate G (x) H for a compatible pair and verify it.

    `simplify` (here and in `tensor_square`, `exterior_square`) accepts
    only True: the presentation is always Tietze-reduced.  It can be
    removed once the benchmark workloads stop passing it.

    >>> from .catalog import catalog_group
    >>> from .actions import trivial_pair
    >>> z2 = catalog_group("Z2")
    >>> tensor_product(trivial_pair(z2, z2)).order
    2
    """
    return _enumerate_tensor(
        pair,
        diagonal_collapsed=False,
        budget=budget,
        strategy=strategy,
        max_bytes=max_bytes,
        simplify=simplify,
    )


def tensor_square(
    g: FiniteGroupRealization,
    *,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "hlt",
    max_bytes: int = DEFAULT_MAX_BYTES,
    simplify: bool = True,
) -> TensorGroup:
    """G (x) G with both actions by conjugation."""
    return tensor_product(
        conjugation_pair(g),
        budget=budget,
        strategy=strategy,
        max_bytes=max_bytes,
        simplify=simplify,
    )


def exterior_square(
    g: FiniteGroupRealization,
    *,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "hlt",
    max_bytes: int = DEFAULT_MAX_BYTES,
    simplify: bool = True,
) -> TensorGroup:
    """G wedge G: the tensor square with the diagonal collapsed.

    >>> from .catalog import catalog_group
    >>> exterior_square(catalog_group("Z2")).order
    1
    """
    return _enumerate_tensor(
        conjugation_pair(g),
        diagonal_collapsed=True,
        budget=budget,
        strategy=strategy,
        max_bytes=max_bytes,
        simplify=simplify,
    )


def _cayley_presentation(g: FiniteGroupRealization, gens: tuple, first: int) -> tuple:
    """Words of G over `gens` (letters first, first + 1, ...) and relators.

    ``words[a]`` is the word of element a from a breadth-first search
    of the Cayley graph (a -> a x for x in `gens`).  The relators are
    w(a) x w(a x)^-1 for the edges off the search tree: the Schreier
    generators of the kernel of the free group on `gens` onto G, hence
    a presentation of G.
    """
    words = [None] * g.order
    words[0] = ()
    relators = []
    frontier = [0]
    while frontier:
        reached = []
        for a in frontier:
            for k, x in enumerate(gens, start=first):
                b = int(g.mul[a, x])
                step = words[a] + ((k, 1),)
                if words[b] is None:
                    words[b] = step
                    reached.append(b)
                else:
                    relators.append(step + invert_word(words[b]))
        frontier = reached
    return words, relators


def peiffer_presentation(pair: CompatiblePair) -> FpPresentation:
    """Free product of G and H modulo the Peiffer commutation relators.

    The generators are X and Y (named g{x} and h{y} after their
    elements), the `generating_set` of G and of H; the trivial group
    has none.  The relators are the Cayley presentations of G over X
    and of H over Y (`_cayley_presentation`), and for x in X, y in Y
    only

        y^-1 x^-1 y w(x^y)      and      x^-1 y^-1 x w(y^x).

    That is enough.  For fixed y, both g -> g^y and g -> y^-1 g y are
    homomorphisms from G, so they agree on G once they agree on X.  The
    set of h that satisfy h^-1 g h = g^h for every g is closed under
    products, since the action is a right action, so it holds all of
    the finite group H once it holds Y.  The other family is symmetric.
    """
    g, h = pair.g, pair.h
    xs, ys = g.generating_set, h.generating_set
    names = tuple(f"g{x}" for x in xs) + tuple(f"h{y}" for y in ys)
    gw, g_relators = _cayley_presentation(g, xs, 0)
    hw, h_relators = _cayley_presentation(h, ys, len(xs))
    ag = pair.act_h_on_g.table
    ah = pair.act_g_on_h.table
    relators = g_relators + h_relators
    for a, x in enumerate(xs):
        for b, y in enumerate(ys, start=len(xs)):
            relators.append(((b, -1), (a, -1), (b, 1)) + gw[ag[x, y]])
            relators.append(((a, -1), (b, -1), (a, 1)) + hw[ah[y, x]])
    return FpPresentation(names, tuple(relators))


class PeifferGroup:
    """The enumerated Peiffer product G |><| H.

    ``g_images[a]`` and ``h_images[b]`` give the realization elements
    of the images of G and H; both maps are re-checked to be
    homomorphisms and the Peiffer relators to hold elementwise.  Both
    arrays are the product's own copies, read-only once checked;
    ValueError unless they have |G| and |H| entries, each an element of
    the realization.
    """

    def __init__(
        self,
        realization: FiniteGroupRealization,
        pair: CompatiblePair,
        g_images: np.ndarray,
        h_images: np.ndarray,
    ):
        self.realization = realization
        self.pair = pair
        self.g_images = gi = _element_array(g_images, (pair.g.order,), realization, "g_images")
        self.h_images = hi = _element_array(h_images, (pair.h.order,), realization, "h_images")
        mul, inv = realization.mul, realization.inv
        g, h = pair.g, pair.h
        if not np.array_equal(mul[gi[:, None], gi[None, :]], gi[g.mul]):
            raise InternalInvariantError("G does not map homomorphically")
        if not np.array_equal(mul[hi[:, None], hi[None, :]], hi[h.mul]):
            raise InternalInvariantError("H does not map homomorphically")
        ag = pair.act_h_on_g.table
        ah = pair.act_g_on_h.table
        lhs = mul[inv[hi[None, :]], mul[inv[gi[:, None]], mul[hi[None, :], gi[ag]]]]
        if not np.all(lhs == 0):
            raise InternalInvariantError("a Peiffer relator fails (G side)")
        lhs = mul[inv[gi[:, None]], mul[inv[hi[None, :]], mul[gi[:, None], hi[ah.T]]]]
        if not np.all(lhs == 0):
            raise InternalInvariantError("a Peiffer relator fails (H side)")
        gi.flags.writeable = hi.flags.writeable = False

    @property
    def order(self) -> int:
        return self.realization.order

    def __repr__(self):
        return f"PeifferGroup(order={self.order})"


def peiffer_product(
    pair: CompatiblePair,
    *,
    budget: int = DEFAULT_BUDGET,
    strategy: str = "hlt",
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> PeifferGroup:
    """Enumerate the Peiffer product of a compatible pair.

    >>> from .catalog import catalog_group
    >>> from .actions import conjugation_pair
    >>> peiffer_product(conjugation_pair(catalog_group("S3"))).order
    12
    """
    r, images = _realize_reduced(peiffer_presentation(pair), strategy=strategy, budget=budget, max_bytes=max_bytes)
    g, h = pair.g, pair.h
    xs, ys = g.generating_set, h.generating_set
    gi = _extend_homomorphism(g, xs, images[: len(xs)], r.mul)
    hi = _extend_homomorphism(h, ys, images[len(xs) :], r.mul)
    return PeifferGroup(r, pair, gi, hi)
