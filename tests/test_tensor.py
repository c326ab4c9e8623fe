import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import tensor as tensor_module
from grouptensor._engine import VERIFY_BLOCK
from grouptensor.abelian import gamma, iso_eq, tensor_z
from grouptensor.actions import conjugation_action, conjugation_pair, trivial_pair
from grouptensor.catalog import CATALOG_ORDERS, catalog_group, catalog_presentation
from grouptensor.errors import BudgetExceeded, InternalInvariantError
from grouptensor.fp import (
    DEFAULT_MAX_BYTES,
    FiniteGroupRealization,
    FpPresentation,
    coset_enumerate,
    invert_word,
    realize,
)
from grouptensor.simplify import tietze_reduce
from grouptensor.tensor import (
    TensorGroup,
    _extend_homomorphism,
    _tensor_relators,
    exterior_square,
    peiffer_presentation,
    peiffer_product,
    tensor_presentation,
    tensor_product,
    tensor_square,
)

from test_fp import SMALL_GROUPS, _sympy_order

Z2 = catalog_group("Z2")
Z3 = catalog_group("Z3")
V4 = catalog_group("Z2xZ2")
S3 = catalog_group("S3")


def test_presentation_shape_smallest():
    p = tensor_presentation(trivial_pair(Z2, Z2))
    assert p.num_generators == 4
    assert len(p.relators) == 16
    assert p.generator_names == ("t0_0", "t0_1", "t1_0", "t1_1")


@pytest.mark.parametrize(
    "a,b", [("Z2", "Z3"), ("Z4", "Z2"), ("S3", "Z2")]
)
def test_presentation_relator_count_formula(a, b):
    ga, gb = catalog_group(a), catalog_group(b)
    p = tensor_presentation(trivial_pair(ga, gb))
    n, m = ga.order, gb.order
    assert p.num_generators == n * m
    assert len(p.relators) == n * n * m + n * m * m


def test_z2_trivial_action_is_z2():
    t = tensor_product(trivial_pair(Z2, Z2))
    assert t.order == 2
    assert t.realization.is_abelian()


def test_z3_square_matches_abelian_tensor():
    t = tensor_square(Z3)
    expected = tensor_z(Z3.abelian_invariants(), Z3.abelian_invariants())
    assert t.order == expected.order()
    assert t.realization.is_abelian()
    assert iso_eq(t.realization.abelian_invariants(), expected)


def test_v4_square_order_16():
    t = tensor_square(V4)
    assert t.order == 16
    assert t.realization.is_abelian()
    assert t.realization.abelian_invariants().invariant_factors == (2, 2, 2, 2)


# Trivial-action tensor products of abelian groups must agree with the
# Kronecker tensor of their abelianizations, computed independently by
# the integer-matrix route.
ABELIAN_PAIRS = [
    ("Z2", "Z2"),
    ("Z2", "Z4"),
    ("Z3", "Z5"),
    ("Z4", "Z6"),
    ("Z6", "Z6"),
    ("Z2xZ2", "Z4"),
    ("Z2xZ2", "Z2xZ2"),
    ("Z12", "Z8"),
]


@pytest.mark.parametrize("a,b", ABELIAN_PAIRS)
def test_trivial_action_collapse(a, b):
    ga, gb = catalog_group(a), catalog_group(b)
    t = tensor_product(trivial_pair(ga, gb))
    expected = tensor_z(ga.abelian_invariants(), gb.abelian_invariants())
    assert t.realization.is_abelian()
    assert t.order == expected.order()
    assert iso_eq(t.realization.abelian_invariants(), expected)


@pytest.mark.parametrize("name", ["D4", "Q8"])
def test_square_strategies_agree(name):
    g = catalog_group(name)
    th = tensor_square(g, strategy="hlt")
    tf = tensor_square(g, strategy="felsch")
    assert np.array_equal(th.realization.mul, tf.realization.mul)
    assert np.array_equal(th.gen_elements, tf.gen_elements)


def _tensor_rows_by_loop(pair, diagonal):
    """Both relation families as letter-code rows, one triple at a time."""
    g, h = pair.g, pair.h
    nh = h.order
    ag, ah = pair.act_h_on_g.table, pair.act_g_on_h.table
    rows = []
    for a in range(g.order):
        for a1 in range(g.order):
            for b in range(nh):
                t0 = g.mul_elements(a, a1) * nh + b
                t1 = g.conjugate(a, a1) * nh + ah[b, a1]
                rows.append((2 * t0 + 1, 2 * t1, 2 * (a1 * nh + b)))
    for a in range(g.order):
        for b in range(nh):
            for b1 in range(nh):
                t2 = ag[a, b1] * nh + h.conjugate(b, b1)
                rows.append((2 * (a * nh + h.mul_elements(b, b1)) + 1, 2 * (a * nh + b1), 2 * t2))
    if diagonal:
        rows += [(2 * (a * nh + a), -1, -1) for a in range(g.order)]
    return np.array(rows, dtype=np.int32)


@pytest.mark.parametrize(
    "pair,diagonal",
    [
        (conjugation_pair(catalog_group("S3")), False),
        (conjugation_pair(catalog_group("S3")), True),
        (conjugation_pair(catalog_group("D4")), True),
        (trivial_pair(catalog_group("S3"), catalog_group("Z4")), False),
        (trivial_pair(catalog_group("Z4"), catalog_group("S3")), False),
    ],
)
def test_tensor_relator_rows_match_loop(pair, diagonal):
    names, rows = _tensor_relators(pair, diagonal=diagonal)
    assert rows.dtype == np.int32
    assert np.array_equal(rows, _tensor_rows_by_loop(pair, diagonal))
    assert len(names) == pair.g.order * pair.h.order


def _unreduced_oracle(pair, diagonal):
    """The all-triples presentation enumerated as it is, without Tietze
    reduction, wrapped in TensorGroup so that every check runs on it."""
    names, codes = _tensor_relators(pair, diagonal=diagonal)
    r = realize(FpPresentation(names, codes))
    e = np.array(r.generator_map, dtype=np.int32).reshape(pair.g.order, pair.h.order)
    return TensorGroup(r, pair, e, diagonal_collapsed=diagonal)


ORACLE_CASES = [
    (kind, (name,)) for name, o in CATALOG_ORDERS.items() if o <= 16
    for kind in ("tensor", "exterior")
] + [("trivial", ab) for ab in (("S3", "Z2"), ("Z2xZ2", "Z4"), ("Z6", "Z6"))]


@pytest.mark.parametrize(
    "kind,names", ORACLE_CASES, ids=[f"{k}-{'-'.join(n)}" for k, n in ORACLE_CASES]
)
def test_tensor_matches_unreduced_oracle(kind, names):
    gs = [catalog_group(n) for n in names]
    if kind == "trivial":
        pair = trivial_pair(*gs)
        t = tensor_product(pair)
    else:
        pair = conjugation_pair(gs[0])
        t = (tensor_square if kind == "tensor" else exterior_square)(gs[0])
    oracle = _unreduced_oracle(pair, kind == "exterior")
    assert t.order == oracle.order
    assert t.realization.abelian_invariants() == oracle.realization.abelian_invariants()
    assert np.array_equal(np.sort(t.kappa_elements), np.sort(oracle.kappa_elements))
    assert np.array_equal(t.kappa_images, oracle.kappa_images)
    assert t.kappa_images.dtype == np.int32 and not t.kappa_images.flags.writeable
    assert t.is_square == oracle.is_square
    if t.is_square:
        assert len(t.j2()) == len(oracle.j2())


def test_verified_arrays_are_read_only():
    # gen_elements[1, 1] = 0 used to make psi(1) 0, and kappa_elements[:] = 0
    # made J2 the whole group
    t = tensor_square(S3)
    p = peiffer_product(conjugation_pair(S3))
    for array in (t.gen_elements, t.kappa_elements, t.kappa_images, t._action_table, p.g_images, p.h_images):
        with pytest.raises(ValueError):
            array[0] = 1
    assert t.psi(1) == 1 and t.j2() == (0, 1)
    # a caller's generator array is copied, not frozen
    e = np.array(t.gen_elements)
    copy = TensorGroup(t.realization, t.pair, e)
    assert e.flags.writeable
    e[1, 1] = 0
    assert copy.psi(1) == 1


def test_simplify_false_is_refused():
    for call in (
        lambda: tensor_square(S3, simplify=False),
        lambda: exterior_square(S3, simplify=False),
        lambda: tensor_product(trivial_pair(Z2, Z3), simplify=False),
    ):
        with pytest.raises(ValueError, match="Tietze"):
            call()


def test_s3_square_exactness():
    t = tensor_square(S3)
    d = S3.commutator_subgroup()
    assert len(d) == 3
    assert len(t.j2()) * len(d) == t.order


@pytest.mark.parametrize("name", ["Z1", "Z2", "Z6", "Z2xZ2", "S3", "D4", "Q8", "A4"])
def test_exactness_and_centrality(name):
    g = catalog_group(name)
    t = tensor_square(g)
    ker = t.j2()
    image = {t.kappa_of(x) for x in range(t.order)}
    assert image == set(g.commutator_subgroup())
    assert len(ker) * len(image) == t.order
    center = set(t.realization.center())
    assert set(ker) <= center


def test_kappa_on_generators_is_commutator():
    t = tensor_square(S3)
    for a in range(S3.order):
        for b in range(S3.order):
            x = t.generator_element(a, b)
            assert t.kappa_of(x) == S3.commutator(a, b)
            assert t.kappa_images[(a, b)] == S3.commutator(a, b)


# Every accessor that takes an element, coset or generator index, called
# with i in one index slot and valid indices elsewhere, as (id, call, n):
# i ranges over 0 .. n - 1.  `o` holds S3, its tensor square, its coset
# table over the trivial subgroup and its conjugation action.
INDEX_CALLS = [
    ("mul_elements-left", lambda o, i: o.g.mul_elements(i, 0), 6),
    ("mul_elements-right", lambda o, i: o.g.mul_elements(0, i), 6),
    ("inverse", lambda o, i: o.g.inverse(i), 6),
    ("conjugate-left", lambda o, i: o.g.conjugate(i, 0), 6),
    ("conjugate-right", lambda o, i: o.g.conjugate(0, i), 6),
    ("commutator-left", lambda o, i: o.g.commutator(i, 0), 6),
    ("commutator-right", lambda o, i: o.g.commutator(0, i), 6),
    ("power", lambda o, i: o.g.power(i, 2), 6),
    ("element_order", lambda o, i: o.g.element_order(i), 6),
    ("subgroup_closure", lambda o, i: o.g.subgroup_closure([1, i]), 6),
    ("is_normal", lambda o, i: o.g.is_normal([0, i]), 6),
    ("kappa_of", lambda o, i: o.t.kappa_of(i), 6),
    ("generator_element-left", lambda o, i: o.t.generator_element(i, 0), 6),
    ("generator_element-right", lambda o, i: o.t.generator_element(0, i), 6),
    ("psi", lambda o, i: o.t.psi(i), 6),
    ("act-actor", lambda o, i: o.t.act(i, 0), 6),
    ("act-acted", lambda o, i: o.t.act(0, i), 6),
    ("apply-acted", lambda o, i: o.action.apply(i, 0), 6),
    ("apply-actor", lambda o, i: o.action.apply(0, i), 6),
    ("trace", lambda o, i: o.table.trace(i, ()), 6),
    ("permutation", lambda o, i: o.table.permutation(i), 2),
]


@pytest.fixture(scope="module")
def s3_objects():
    return SimpleNamespace(
        g=S3, t=tensor_square(S3), table=coset_enumerate(catalog_presentation("S3")), action=conjugation_action(S3)
    )


@pytest.mark.parametrize("call, n", [c[1:] for c in INDEX_CALLS], ids=[c[0] for c in INDEX_CALLS])
def test_index_accessors_refuse_indices_out_of_range(s3_objects, call, n):
    # -1 used to wrap round to the last element and n to raise a bare IndexError
    assert S3.order == s3_objects.t.order == s3_objects.table.num_cosets == 6
    for i in (-1, n):
        with pytest.raises(ValueError, match=rf"{i} is not in 0 \.\. {n - 1}"):
            call(s3_objects, i)
    call(s3_objects, n - 1)


def test_action_table_is_built_once(monkeypatch):
    t = tensor_square(S3)
    calls = []
    real = tensor_module._extend_homomorphism

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tensor_module, "_extend_homomorphism", counted)
    for x in range(S3.order):
        for y in range(t.order):
            t.act(x, y)
    # one extension per column, all on the first call
    assert len(calls) == S3.order


def test_kappa_trivial_for_trivial_actions():
    t = tensor_product(trivial_pair(S3, Z2))
    assert all(t.kappa_of(x) == 0 for x in range(t.order))


def test_extend_homomorphism_checks_its_result():
    z6, z3, z2 = catalog_group("Z6"), catalog_group("Z3"), catalog_group("Z2")
    a, b, c = z6.generator_map[0], z3.generator_map[0], z2.generator_map[0]
    img = _extend_homomorphism(z6, [a], [b], z3.mul)
    assert all(img[z6.power(a, k)] == z3.power(b, k) for k in range(6))
    # A repeated generator whose second image differs from the first.
    with pytest.raises(InternalInvariantError, match="disagrees"):
        _extend_homomorphism(z6, [a, a], [b, 0], z3.mul)
    # a^2 generates only the subgroup of order 3.
    with pytest.raises(InternalInvariantError, match="reach"):
        _extend_homomorphism(z6, [z6.power(a, 2)], [b], z3.mul)
    with pytest.raises(InternalInvariantError, match="not a homomorphism"):
        _extend_homomorphism(z3, [b], [c], z2.mul)
    # No generators: the trivial group, mapped to the identity.
    z1 = catalog_group("Z1")
    assert _extend_homomorphism(z1, [], [], z3.mul).tolist() == [0]


def _extend_homomorphism_by_table(source, gens, images, target_mul):
    """The replaced routine: the same breadth-first map, tested to be a
    homomorphism on all n x n products of `source`."""
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
    if not np.array_equal(target_mul[img[:, None], img[None, :]], img[source.mul]):
        raise InternalInvariantError("extended map is not a homomorphism")
    return img


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_GROUPS), st.sampled_from(SMALL_GROUPS), st.data())
def test_homomorphism_check_on_generators_agrees_with_every_product(src, dst, data):
    # random images of the generator map, and of up to two more elements
    source, target = catalog_group(src), catalog_group(dst)
    gens = list(source.generator_map) + data.draw(st.lists(st.integers(0, source.order - 1), max_size=2))
    images = [data.draw(st.integers(0, target.order - 1)) for _ in gens]

    def outcome(extend):
        try:
            return extend(source, gens, images, target.mul).tolist()
        except InternalInvariantError as exc:
            return str(exc)

    assert outcome(_extend_homomorphism) == outcome(_extend_homomorphism_by_table)


def test_z2_tensor_z2_generator_classes_collapse():
    # 1(x)h and g(x)1 are honest generators of the presentation; the
    # relations alone must make them trivial in the realization.
    t = tensor_product(trivial_pair(Z2, Z2))
    assert t.generator_element(0, 0) == 0
    assert t.generator_element(0, 1) == 0
    assert t.generator_element(1, 0) == 0
    assert t.generator_element(1, 1) != 0


def test_exterior_z2_is_trivial():
    e = exterior_square(Z2)
    assert e.order == 1
    assert e.diagonal_collapsed


# Classical values: (|M(G)|, |G wedge G| = |M(G)| |G'|).
SCHUR_AND_EXTERIOR_ORDERS = {
    "Z2": (1, 1),
    "Z6": (1, 1),
    "Z16": (1, 1),
    "Z2xZ2": (2, 2),
    "S3": (1, 3),
    "D4": (2, 4),
    "Q8": (1, 2),
    "A4": (2, 8),
}


@pytest.mark.parametrize("name", sorted(SCHUR_AND_EXTERIOR_ORDERS))
def test_exterior_schur_bookkeeping(name):
    g = catalog_group(name)
    e = exterior_square(g)
    derived = g.commutator_subgroup()
    # Kernel of the derived map on the exterior square, recomputed by
    # enumeration; times |G'| it must recover |G wedge G|, and it is
    # the Schur multiplier M(G).
    h2 = e.j2()
    assert len(h2) * len(derived) == e.order
    assert (len(h2), e.order) == SCHUR_AND_EXTERIOR_ORDERS[name]


@pytest.mark.parametrize("name", ["Z2", "Z6", "Z2xZ2", "S3", "D4", "Q8"])
def test_exterior_is_quotient_of_tensor(name):
    g = catalog_group(name)
    t = tensor_square(g)
    e = exterior_square(g)
    assert t.order % e.order == 0
    diag = {t.psi(a) for a in range(g.order)}
    # psi images are central, so their closure is already normal.
    killed = t.realization.subgroup_closure(diag)
    assert t.order == e.order * len(killed)


@pytest.mark.parametrize("name", ["Z2", "Z4", "Z2xZ2", "S3", "D4", "Q8"])
def test_psi_properties(name):
    g = catalog_group(name)
    t = tensor_square(g)
    assert t.psi(0) == 0
    for a in range(g.order):
        p = t.psi(a)
        for x in range(g.order):
            assert t.act(x, p) == p
    closure = t.realization.subgroup_closure(
        t.psi(a) for a in range(g.order)
    )
    whitehead = gamma(g.abelian_invariants())
    assert whitehead.order() % len(closure) == 0


def test_action_axioms_on_s3_square():
    t = tensor_square(S3)
    n = t.order
    for y in range(n):
        assert t.act(0, y) == y
    for x in range(S3.order):
        xi = S3.inverse(x)
        for y in range(n):
            assert t.act(xi, t.act(x, y)) == y
    for a in range(S3.order):
        for b in range(S3.order):
            for x in range(S3.order):
                lhs = t.act(x, t.generator_element(a, b))
                rhs = t.generator_element(S3.conjugate(a, x), S3.conjugate(b, x))
                assert lhs == rhs


def test_square_only_operations_rejected_on_general_pair():
    t = tensor_product(trivial_pair(S3, Z2))
    assert not t.is_square
    with pytest.raises(ValueError):
        t.j2()
    with pytest.raises(ValueError):
        t.psi(1)
    with pytest.raises(ValueError):
        t.act(1, 0)


def test_tensor_square_detected_as_square():
    t = tensor_square(Z3)
    assert t.is_square


# ---------------------------------------------------------------- peiffer


def test_peiffer_trivial_actions_direct_product():
    z4 = catalog_group("Z4")
    p = peiffer_product(trivial_pair(S3, z4))
    assert p.order == 24
    mul = p.realization.mul
    for a in p.g_images:
        for b in p.h_images:
            assert mul[a, b] == mul[b, a]
    union = set(int(x) for x in p.g_images) | set(int(x) for x in p.h_images)
    assert len(p.realization.subgroup_closure(union)) == 24


# The conjugation Peiffer square is G x G^ab: g_x -> (x, x G'),
# h_x -> (x, 1) kills every relator, and the fold map onto G (identify
# the two copies) is its first coordinate.  So G embeds, the order is
# |G| * |G^ab|, and the abelianization is G^ab x G^ab.
def test_peiffer_s3_conjugation():
    p = peiffer_product(conjugation_pair(S3))
    assert p.order == 12
    assert not p.realization.is_abelian()
    assert p.realization.abelian_invariants().invariant_factors == (2, 2)


def test_peiffer_q8_conjugation():
    p = peiffer_product(conjugation_pair(catalog_group("Q8")))
    assert p.order == 32
    assert p.realization.abelian_invariants().invariant_factors == (2, 2, 2, 2)


def test_peiffer_a4_conjugation():
    p = peiffer_product(conjugation_pair(catalog_group("A4")))
    assert p.order == 36
    assert p.realization.abelian_invariants().invariant_factors == (3, 3)


def test_peiffer_conjugation_square_retracts_onto_g():
    for name in ["S3", "D4", "Q8"]:
        g = catalog_group(name)
        p = peiffer_product(conjugation_pair(g))
        images = set(int(x) for x in p.g_images)
        assert len(images) == g.order
        assert len(p.realization.subgroup_closure(images)) == g.order
        assert p.order == g.order * g.abelian_invariants().order()


@pytest.mark.parametrize(
    "name", [n for n, size in CATALOG_ORDERS.items() if size <= 16]
)
def test_peiffer_square_abelianization(name):
    g = catalog_group(name)
    p = peiffer_product(conjugation_pair(g))
    ab = g.abelian_invariants()
    assert iso_eq(p.realization.abelian_invariants(), ab.direct_sum(ab))
    if g.is_abelian():
        # trivial conjugation: the Peiffer square is G x G on the nose
        assert p.realization.is_abelian()
        assert p.order == ab.order() ** 2


def test_peiffer_presentation_shape():
    # S3 is generated by its two involutions 1 and 2: 6 * 2 - 5 Cayley
    # relators per copy, and 2 * 2 Peiffer relators of each family.
    pres = peiffer_presentation(conjugation_pair(S3))
    assert pres.generator_names == ("g1", "g2", "h1", "h2")
    assert len(pres.relators) == 2 * 7 + 2 * 4


def test_peiffer_trivial_group():
    z1 = catalog_group("Z1")
    assert peiffer_presentation(conjugation_pair(z1)).num_generators == 0
    assert peiffer_product(conjugation_pair(z1)).order == 1
    p = peiffer_product(trivial_pair(z1, S3))
    assert p.order == 6
    assert p.g_images.tolist() == [0]


def _generating_set_by_greedy_completion(g):
    """The generating set Peiffer presentations were built on before
    `FiniteGroupRealization.generating_set`: the distinct non-identity
    elements of the generator map, completed from the elements in order
    until they generate G."""
    gens = list(dict.fromkeys(x for x in g.generator_map if x != 0))
    reached = set(g.subgroup_closure(gens))
    for x in range(g.order):
        if len(reached) == g.order:
            break
        if x not in reached:
            gens.append(x)
            reached = set(g.subgroup_closure(gens))
    return tuple(gens)


@pytest.mark.parametrize(
    "make_group",
    [
        *(pytest.param(lambda n=n: catalog_group(n), id=n) for n in sorted(CATALOG_ORDERS)),
        pytest.param(lambda: FiniteGroupRealization(catalog_group("D4").mul), id="D4-bare"),
    ],
)
def test_generating_set_pins_peiffer_presentations(make_group):
    # Peiffer presentations are named and built on the generating set,
    # so an equal set keeps every catalog presentation as it was.
    g = make_group()
    assert g.generating_set == _generating_set_by_greedy_completion(g)


def _all_elements_peiffer_presentation(pair) -> FpPresentation:
    """Oracle: one generator per non-identity element of G and of H,
    both multiplication tables, and the Peiffer relators
    h^-1 g^-1 h g^h and g^-1 h^-1 g h^g for every element pair."""
    g, h = pair.g, pair.h
    ng, nh = g.order, h.order
    names = tuple(f"g{a}" for a in range(1, ng)) + tuple(
        f"h{b}" for b in range(1, nh)
    )

    def gw(a, sign=1):
        return () if a == 0 else ((int(a) - 1, sign),)

    def hw(b, sign=1):
        return () if b == 0 else ((ng - 1 + int(b) - 1, sign),)

    relators = []
    for a in range(1, ng):
        for a1 in range(1, ng):
            relators.append(gw(a) + gw(a1) + gw(g.mul[a, a1], -1))
    for b in range(1, nh):
        for b1 in range(1, nh):
            relators.append(hw(b) + hw(b1) + hw(h.mul[b, b1], -1))
    ag = pair.act_h_on_g.table
    ah = pair.act_g_on_h.table
    for a in range(ng):
        for b in range(nh):
            relators.append(hw(b, -1) + gw(a, -1) + hw(b) + gw(ag[a, b]))
            relators.append(gw(a, -1) + hw(b, -1) + gw(a) + hw(ah[b, a]))
    return FpPresentation(names, tuple(relators))


ORACLE_PAIRS = [
    *(
        pytest.param(lambda n=n: conjugation_pair(catalog_group(n)), id=n)
        for n, size in CATALOG_ORDERS.items()
        if size <= 16 or n == "A5"
    ),
    *(
        pytest.param(
            lambda a=a, b=b: trivial_pair(catalog_group(a), catalog_group(b)),
            id=f"{a}-{b}-trivial",
        )
        for a, b in (("Z3", "Z4"), ("S3", "Z4"))
    ),
    # No generator_map: the generating set comes from greedy completion.
    pytest.param(
        lambda: conjugation_pair(FiniteGroupRealization(catalog_group("D4").mul)),
        id="D4-bare",
    ),
]


@pytest.mark.parametrize("make_pair", ORACLE_PAIRS)
def test_peiffer_generating_sets_match_all_elements_oracle(make_pair):
    pair = make_pair()
    p = peiffer_product(pair)
    oracle = realize(_all_elements_peiffer_presentation(pair))
    assert p.order == oracle.order
    assert iso_eq(p.realization.abelian_invariants(), oracle.abelian_invariants())


@pytest.mark.parametrize("make_pair", ORACLE_PAIRS)
def test_peiffer_tietze_reduction_keeps_the_table(make_pair):
    # Tietze reduction removes no Peiffer generator, so the product's
    # table is the unreduced presentation's, entry for entry
    pair = make_pair()
    assert np.array_equal(peiffer_product(pair).realization.mul, realize(peiffer_presentation(pair)).mul)


# ---------------------------------------------------------------- tietze


def test_tietze_folds_chain():
    p = FpPresentation(
        ("a", "b", "c"),
        (((0, 1), (1, -1)), ((1, 1), (2, 1)), ((0, 1),) * 6),
    )
    q, images = tietze_reduce(p)
    assert q.generator_names == ("a",)
    assert q.relators == (((0, 1),) * 6,)
    assert images[0] == ((0, 1),)
    assert images[1] == ((0, 1),)
    assert images[2] == ((0, -1),)


def test_tietze_involution_from_conflicting_merge():
    # a = b and a = b^-1 force a^2 = 1.
    p = FpPresentation(
        ("a", "b"), (((0, 1), (1, -1)), ((0, 1), (1, 1)), ((0, 1),) * 4)
    )
    q, images = tietze_reduce(p)
    assert q.generator_names == ("a",)
    assert ((0, 1), (0, 1)) in q.relators


def test_tietze_kills_identity_generators():
    p = FpPresentation(("a", "b"), (((0, 1),), ((1, 1), (0, 1), (1, 1))))
    q, images = tietze_reduce(p)
    assert images[0] == ()
    assert q.generator_names == ("b",)
    assert q.relators == (((0, 1), (0, 1)),)


@pytest.mark.parametrize("name", ["Z6", "S3", "D4", "Q8", "A4"])
def test_tietze_preserves_group(name):
    pres = catalog_presentation(name)
    reduced, images = tietze_reduce(pres)
    r_orig = realize(pres)
    r_new = realize(reduced)
    assert r_orig.order == r_new.order
    assert iso_eq(r_orig.abelian_invariants(), r_new.abelian_invariants())
    # Every original relator must die under the substitution.
    for w in pres.relators:
        value = 0
        for g, s in w:
            piece = r_new.evaluate_word(images[g])
            if s < 0:
                piece = r_new.inverse(piece)
            value = r_new.mul_elements(value, piece)
        assert value == 0


def test_tietze_on_tensor_presentation_shrinks():
    pres = tensor_presentation(conjugation_pair(S3))
    reduced, _ = tietze_reduce(pres)
    assert reduced.num_generators < pres.num_generators
    assert realize(reduced).order == realize(pres).order


@pytest.mark.parametrize(
    "relators",
    [
        # b = 1 and a = b in one pass: the kill must reach the class root a
        (((1, 1),), ((0, 1), (1, -1)), ((2, 1),) * 3),
        # a = 1 and b = a^-1 in one pass
        (((0, 1),), ((0, 1), (1, 1)), ((2, 1),) * 3),
    ],
)
def test_tietze_kill_and_merge_in_one_pass(relators):
    q, images = tietze_reduce(FpPresentation(("a", "b", "c"), relators))
    assert q.generator_names == ("c",)
    assert q.relators == (((0, 1),) * 3,)
    assert images == ((), (), ((0, 1),))


def test_tietze_involution_from_a_chain_in_one_pass():
    # a = b, b = c and a = c^-1 together force a^2 = 1.
    p = FpPresentation(
        ("a", "b", "c"),
        (((0, 1), (1, -1)), ((1, 1), (2, -1)), ((0, 1), (2, 1)), ((0, 1),) * 4),
    )
    q, images = tietze_reduce(p)
    assert q.generator_names == ("a",)
    assert ((0, 1), (0, 1)) in q.relators
    assert images[1] == ((0, 1),)
    assert realize(q).order == 2


def test_tietze_reduces_a5_tensor_relators():
    names, codes = _tensor_relators(conjugation_pair(catalog_group("A5")))
    assert codes.shape == (432_000, 3)
    q, _ = tietze_reduce(FpPresentation(names, codes))
    assert (q.num_generators, len(q.relators)) == (64, 2383)


# sha256 of tietze_reduce's (generator_names, codes, images) on the tensor
# and exterior square rows of each small catalog group, recorded when every
# row went through the row helpers as the `*_by_loop` references in
# test_fp.py still do.
TIETZE_DIGESTS = {
    'Z1': (
        "e0a9bf949058a0239627e5c3127d82be8ef5fc4318802ed72ac6b65c265d688e",
        "e0a9bf949058a0239627e5c3127d82be8ef5fc4318802ed72ac6b65c265d688e",
    ),
    'Z2': (
        "eba362858a3d051782d00a06ec780e767006386bd5f72bc493a8816a6f356c45",
        "bc2ef3e1839da74751a24a76e8cb0f739a72989cb4b9ad8b7603668875d2f08f",
    ),
    'Z3': (
        "7581b4603fcba1b8a629f713a85852a57a353e911a92336f52d33e47c62b8eea",
        "2e117775eb22a75c6a0181f94f9f3f36de6d7190dce364ed6a9d769bf8c34630",
    ),
    'Z4': (
        "3420df723e1c712b564f5d41abafa4f3af6d9bb9018008e6c76f1ba9d95cf5c5",
        "00087bb8b6949b2800795f68a86244fde964e9db58f9a73cbbd16562612eed2c",
    ),
    'Z5': (
        "bab7c159698ddb2e0c0300e092734cef40f422d24cd78b0294ab749ad5db1203",
        "28faba94fb555324131b44b1f014f8111f821861a87e2ac4837fb5e2db23553f",
    ),
    'Z6': (
        "c48b434cb35a407d4e43ff13857c75cfd412068decd73b6348e22a00499e91ae",
        "f877c68af0c16f5d529647015f518b9cf22b840479b7e8c37300edc6485a3e91",
    ),
    'Z7': (
        "9de192b78a11f309df3795b09889d62ac69c0c1e63e3337f3aea1f9498377ef8",
        "e5a5b6f3a54e879d11146e028277b5656b535a096aac5679783367dd600818a3",
    ),
    'Z8': (
        "21b2198a86db884faf4ba9f9d01d481eb2206308b21ec7729efc846513aa0619",
        "89ef714d80040263c5e35f6f25a6eb6f0022dd2b241de2348ca2b8b9221cc758",
    ),
    'Z9': (
        "27005fafd71a4426218af07df1afb5a9ba66f23a40d65a24fb3ca9f190fb2fde",
        "7111ab009e65c418e9f3b1a9e25fe40c332a60d3edd2af66d29f18267846a08f",
    ),
    'Z10': (
        "2eda04dcf20739ad1099b40275a34d0c25539a3d0f66b2856cb8db28e3e7f63c",
        "7454b4ab7be538048b33ec13f6eeb68c27ea44d4c06a26153c66cd201eda016e",
    ),
    'Z11': (
        "2eb1397c43c28d47df51ef6c1e28e2738f36f48343bc19d2e545d540e26bc437",
        "a821e317f95253000d0e665bff9b72b590c2077eb0bd5e58c60471e1a7a59c22",
    ),
    'Z12': (
        "99107038f551f0728ba3edd9f0dbb8ed1cc4f89550429d3755127195cd291f09",
        "90f45632a3e84654f03779e5c99cd64ce435e1b33cc443ed41a11049bf5369e3",
    ),
    'Z13': (
        "67eb31bdb9af54fe4a74313849bf84cdfc7abec74c4265c9ca4af7e261b9092a",
        "97adc409497abe3c51c3a2bba68f676cacffc9d29e977c5ac13fbb21441aa3be",
    ),
    'Z14': (
        "a4a7c51b2a59452b3f62e335f9fbd8b847dd4945ca8101b5b27861b11dfd7249",
        "01f2ff802eed87475278acd397861a590d3eaca68f8457664d18bb1e1789d340",
    ),
    'Z15': (
        "5315b7549d697ce90a7270f3b92c8a1cce28851375061847aa649584181aaaf4",
        "a33ab6d19ccf0b840a767c0c5a6fe137ef7276f4abedde367df3fb3afa79a13a",
    ),
    'Z16': (
        "1fa1b4e700d25b3b683d9fb2ec0e739cf47b37904c1ebba2a8460042d62c219c",
        "f192ded58b9235bb1a8052dd389f898efb776f7a4d8cc4023867f4e3057c8ecf",
    ),
    'Z2xZ2': (
        "9f4eddeb275e9117523de70125cfa6fd7f8363138b8204dfc6fa11a30fd99bee",
        "ac09facee7ce09a46946b9a4c70f933675eb038894c7c9d4e806b2fc95594188",
    ),
    'D4': (
        "a063ec6b8e148811861402ac18a60fc87e3ffdbf74f642c12c326390afb4fc70",
        "70d869688f4900b6964653ff511937b319965baed6300fe1f4f02ab88df2c435",
    ),
    'Q8': (
        "9faa5879ab044886c5789c1d34c99d7b3dc66efde747b5213deb7fefbb0f315e",
        "a82799d09127f2b790952b1a6e25eb996e9568d532958be9261ee58789db3e52",
    ),
    'S3': (
        "03a2300d3783c75539250a445035b17831d2f5d19462babfe1cf1422af8b6eee",
        "4b89e10eb8023f5bb82c25918c4d9ba1b8424e9190f7bc2da9c281e18db934a9",
    ),
    'A4': (
        "1f5def5a5898e8c06120eed501320333c1cad1b18bb8c0570aeb0a1f273b24f7",
        "fb2141fa08a8f5c765b3245fd751b2588b0292ae32850976c613e5ad5e4da6f2",
    ),
}


def _tietze_digest(pair, diagonal):
    q, images = tietze_reduce(FpPresentation(*_tensor_relators(pair, diagonal=diagonal)))
    h = hashlib.sha256(repr((q.generator_names, q.codes.shape, images)).encode())
    h.update(q.codes.astype("<i4").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", TIETZE_DIGESTS)
def test_tietze_outputs_are_pinned(name):
    pair = conjugation_pair(catalog_group(name))
    assert (_tietze_digest(pair, False), _tietze_digest(pair, True)) == TIETZE_DIGESTS[name]


@pytest.mark.parametrize("exterior", [False, True])
def test_relator_memory_guard(exterior):
    a4 = catalog_group("A4")
    square = exterior_square if exterior else tensor_square
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="tensor relators"):
            square(a4, max_bytes=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # refused before the thousands of relator rows exist
    assert peak < 100_000
    capped = square(a4, max_bytes=4_000_000)
    assert capped.order == square(a4).order


def test_tietze_row_memory():
    # Built before tracing starts, the 432,000 all-triples rows of the A5
    # square take 12 bytes each.  The Tietze pass keeps at most two
    # generations of them alive at once and peaks at about 28 bytes per
    # row; one more generation would add 12 (three took about 67).
    p = FpPresentation(*_tensor_relators(conjugation_pair(catalog_group("A5"))))
    tracemalloc.start()
    try:
        tietze_reduce(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 36 * len(p.codes)


@pytest.mark.parametrize("square", [tensor_square, exterior_square])
def test_square_peak_per_row_is_under_the_estimate(square):
    # The whole A5 square, from relator rows to the verified TensorGroup,
    # peaks at about 39 bytes per all-triples row under tracemalloc.
    a5 = catalog_group("A5")
    rows = 2 * 60**3 + (60 if square is exterior_square else 0)
    tracemalloc.start()
    try:
        square(a5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tensor_module._CODE_ROW_BYTES * rows
    # the default cap admits PSL(2,7) (order 168) and refuses A6 (order 360)
    assert (2 * 168**3 + 168) * tensor_module._CODE_ROW_BYTES <= DEFAULT_MAX_BYTES
    assert 2 * 360**3 * tensor_module._CODE_ROW_BYTES > DEFAULT_MAX_BYTES


def test_relation_family_check_reads_the_last_block():
    # Z2 (x) Z200 under trivial actions is Z2, with g (x) h = g h mod 2.
    # At |H| = 200 each block of the check holds one g.  Changing
    # e[1, 7] keeps the first family (every square in Z2 is 1) and first
    # breaks the second at g = 1, the last block.
    z2, z200 = (FiniteGroupRealization(np.add.outer(np.arange(n), np.arange(n)) % n) for n in (2, 200))
    pair = trivial_pair(z2, z200)
    e = (np.outer(np.arange(2), np.arange(200)) % 2).astype(np.int32)
    assert TensorGroup(z2, pair, e).order == 2
    assert VERIFY_BLOCK // (200 * 200) == 1
    e[1, 7] ^= 1
    with pytest.raises(InternalInvariantError, match="second tensor relation family"):
        TensorGroup(z2, pair, e)


ORACLE_GROUPS = sorted(n for n, o in CATALOG_ORDERS.items() if o <= 24)
signs = st.sampled_from([1, -1])


@st.composite
def disguised_presentations(draw):
    """A catalog presentation with alias generators and moved relators.

    Each added generator x is killed (relator x^s) or made an alias of
    an earlier generator y (relator x^s y^t), so aliases form chains.
    The letters of the catalog relators are replaced by random aliases
    of their generators, every relator is rotated and may be inverted,
    and the relators and generators are shuffled.
    """
    name = draw(st.sampled_from(ORACLE_GROUPS))
    base = catalog_presentation(name)
    n = base.num_generators
    # value[x] = (g, e) when x = g^e for a catalog generator g, None when x = 1
    value = [(g, 1) for g in range(n)]
    relators = []
    for x in range(n, n + draw(st.integers(0, 8))):
        s = draw(signs)
        if draw(st.integers(0, 3)) == 0:
            relators.append(((x, s),))
            value.append(None)
            continue
        y, t = draw(st.integers(0, x - 1)), draw(signs)
        relators.append(((x, s), (y, t)))
        value.append(None if value[y] is None else (value[y][0], -s * t * value[y][1]))
    aliases = [[(x, v[1]) for x, v in enumerate(value) if v and v[0] == g] for g in range(n)]
    for w in base.relators:
        w = tuple((x, s * e) for g, s in w for x, e in [draw(st.sampled_from(aliases[g]))])
        k = draw(st.integers(0, len(w)))
        w = w[k:] + w[:k]
        relators.append(invert_word(w) if draw(st.booleans()) else w)
    # renumber all generators, so that any of them can be a class's least
    perm = draw(st.permutations(range(len(value))))
    names = [None] * len(value)
    for x, name_x in enumerate(base.generator_names + tuple(f"x{x}" for x in range(n, len(value)))):
        names[perm[x]] = name_x
    relators = [tuple((perm[x], s) for x, s in w) for w in draw(st.permutations(relators))]
    return name, FpPresentation(tuple(names), tuple(relators))


@settings(max_examples=40, deadline=None)
@given(disguised_presentations())
def test_tietze_oracle(case):
    name, p = case
    q, images = tietze_reduce(p)
    r = realize(q, budget=10_000)
    assert r.order == CATALOG_ORDERS[name]
    for w in p.relators:
        image = [x for g, s in w for x in (images[g] if s > 0 else invert_word(images[g]))]
        assert r.evaluate_word(image) == 0
    if CATALOG_ORDERS[name] <= 6:
        # sympy's coset enumeration is an independent check on small orders
        assert _sympy_order(q) == CATALOG_ORDERS[name]
