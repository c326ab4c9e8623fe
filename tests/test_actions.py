import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor.actions import (
    CompatibilityViolation,
    CompatiblePair,
    GroupAction,
    _violation_one_side,
    check_compatible,
    conjugation_action,
    conjugation_pair,
    derived_subgroup_dh,
    trivial_action,
    trivial_pair,
)
from grouptensor.catalog import CATALOG_ORDERS, catalog_group
from grouptensor.errors import IncompatibleActions
from test_fp import _closure_by_dfs, _conjugation_table_by_columns

SMALL_CATALOG = [name for name, order in CATALOG_ORDERS.items() if order <= 16]


def test_conjugation_action_matches_definition():
    g = catalog_group("S3")
    act = conjugation_action(g)
    for x in range(g.order):
        for y in range(g.order):
            assert act.apply(x, y) == g.conjugate(x, y)


@pytest.mark.parametrize("name", sorted(CATALOG_ORDERS))
def test_conjugation_action_is_the_conjugation_table(name):
    g = catalog_group(name)
    table = conjugation_action(g).table
    assert table is g.conj
    assert np.array_equal(table, _conjugation_table_by_columns(g))


def test_trivial_action_is_trivial():
    g = catalog_group("D4")
    h = catalog_group("Z3")
    assert trivial_action(g, h).is_trivial()
    assert not conjugation_action(g).is_trivial()
    assert conjugation_action(catalog_group("Z6")).is_trivial()


def test_action_validation():
    g = catalog_group("Z4")
    h = catalog_group("Z2")
    with pytest.raises(ValueError):
        GroupAction(g, h, np.zeros((3, 2), dtype=np.int32))
    # identity actor must fix everything
    bad = np.repeat(np.arange(4, dtype=np.int32)[:, None], 2, axis=1)
    bad[:, 0] = [1, 0, 2, 3]
    with pytest.raises(ValueError):
        GroupAction(g, h, bad)
    # inversion is an automorphism of Z4 of order 2: this one is fine
    good = np.stack([np.arange(4, dtype=np.int32), g.inv], axis=1)
    act = GroupAction(g, h, good)
    gen = g.generator_map[0]
    assert act.apply(gen, 1) == g.inverse(gen)
    # exchanging the generator with the order-2 element is no automorphism
    swap = np.arange(4, dtype=np.int32)
    sq = g.mul_elements(gen, gen)
    swap[gen], swap[sq] = sq, gen
    bad2 = np.stack([np.arange(4, dtype=np.int32), swap], axis=1)
    with pytest.raises(ValueError):
        GroupAction(g, h, bad2)
    # squaring the exponent is an automorphism of Z5, but its square is
    # not the identity, so it cannot be a Z2-action
    z5 = catalog_group("Z5")
    square = np.array([z5.mul_elements(x, x) for x in range(5)], dtype=np.int32)
    bad3 = np.stack([np.arange(5, dtype=np.int32), square], axis=1)
    with pytest.raises(ValueError):
        GroupAction(z5, h, bad3)


@pytest.mark.parametrize("name", SMALL_CATALOG)
def test_conjugation_is_compatible_small_catalog(name):
    g = catalog_group(name)
    act = conjugation_action(g)
    assert check_compatible(g, g, act, act) is None


def test_trivial_actions_are_compatible():
    g = catalog_group("D4")
    h = catalog_group("S3")
    assert check_compatible(g, h, trivial_action(g, h), trivial_action(h, g)) is None
    assert isinstance(trivial_pair(g, h), CompatiblePair)


def _v4_swap_column(g):
    """The automorphism of Z2xZ2 that exchanges the two generators."""
    a, b = g.generator_map
    ab = g.mul_elements(a, b)
    col = np.arange(4, dtype=np.int32)
    col[a], col[b] = b, a
    assert col[ab] == ab
    return col


def test_swap_with_trivial_is_compatible():
    """One side swapping factors, the other trivial, passes both equations.

    Verified here against a direct brute-force evaluation of both
    equations, since the conclusion is easy to get wrong by hand.
    """
    g = catalog_group("Z2xZ2")
    h = catalog_group("Z2xZ2")
    swap = _v4_swap_column(g)
    ident = np.arange(4, dtype=np.int32)
    a, b = h.generator_map
    ab = h.mul_elements(a, b)
    cols = {0: ident, a: swap, b: ident, ab: swap}
    table = np.stack([cols[j] for j in range(4)], axis=1)
    act_h_on_g = GroupAction(g, h, table)
    act_g_on_h = trivial_action(h, g)
    assert _brute_force_violations(g, h, act_h_on_g, act_g_on_h) == []
    assert check_compatible(g, h, act_h_on_g, act_g_on_h) is None


def _brute_force_violations(g, h, act_h_on_g, act_g_on_h):
    """All violating triples (side, triple) by direct evaluation."""
    out = []
    for x in range(g.order):
        for g1 in range(g.order):
            for y in range(h.order):
                lhs = act_h_on_g.apply(x, act_g_on_h.apply(y, g1))
                rhs = g.conjugate(act_h_on_g.apply(g.conjugate(x, g.inverse(g1)), y), g1)
                if lhs != rhs:
                    out.append(("g", (x, g1, y)))
    for y in range(h.order):
        for h1 in range(h.order):
            for x in range(g.order):
                lhs = act_g_on_h.apply(y, act_h_on_g.apply(x, h1))
                rhs = h.conjugate(act_g_on_h.apply(h.conjugate(y, h.inverse(h1)), x), h1)
                if lhs != rhs:
                    out.append(("h", (y, h1, x)))
    return out


def _twisted_swap_actions():
    """Z2xZ2 acting on Z2xZ2 by the swap from both sides."""
    g = catalog_group("Z2xZ2")
    h = catalog_group("Z2xZ2")
    swap_g = _v4_swap_column(g)
    swap_h = _v4_swap_column(h)
    a_g, b_g = g.generator_map
    ab_g = g.mul_elements(a_g, b_g)
    a_h, b_h = h.generator_map
    ab_h = h.mul_elements(a_h, b_h)
    table_hg = np.stack(
        [{0: np.arange(4, dtype=np.int32), a_h: swap_g, b_h: np.arange(4, dtype=np.int32), ab_h: swap_g}[j] for j in range(4)],
        axis=1,
    )
    table_gh = np.stack(
        [{0: np.arange(4, dtype=np.int32), a_g: swap_h, b_g: np.arange(4, dtype=np.int32), ab_g: swap_h}[j] for j in range(4)],
        axis=1,
    )
    return g, h, GroupAction(g, h, table_hg), GroupAction(h, g, table_gh)


def test_incompatible_pair_detected_and_reported():
    """Both groups twisting each other by the swap is not compatible."""
    g, h, act_h_on_g, act_g_on_h = _twisted_swap_actions()
    brute = _brute_force_violations(g, h, act_h_on_g, act_g_on_h)
    assert brute, "expected this twisted pair to violate compatibility"
    report = check_compatible(g, h, act_h_on_g, act_g_on_h)
    assert report is not None
    assert (report.side, report.triple) == brute[0]
    # the reported lhs/rhs differ and match direct evaluation
    assert report.lhs != report.rhs
    with pytest.raises(IncompatibleActions) as ei:
        CompatiblePair(g, h, act_h_on_g, act_g_on_h)
    assert ei.value.report == report


def _violation_one_side_by_loop(g, act_h_on_g, act_g_on_h, side):
    """Reference: one numpy step per (g1, h), keeping the least triple."""
    conj_g = conjugation_action(g).table
    best = None
    for g1 in range(g.order):
        g1i = int(g.inv[g1])
        for h in range(act_g_on_h.acted.order):
            lhs = act_h_on_g.table[:, act_g_on_h.table[h, g1]]
            rhs = conj_g[act_h_on_g.table[conj_g[:, g1i], h], g1]
            bad = np.flatnonzero(lhs != rhs)
            if bad.size:
                a = int(bad[0])
                cand = (a, g1, h)
                if best is None or cand < best[0]:
                    best = (cand, int(lhs[a]), int(rhs[a]))
    if best is None:
        return None
    return CompatibilityViolation(side, *best)


def _automorphisms(g):
    """Every automorphism of a small group, as a permutation of its elements."""
    perms = np.array(list(itertools.permutations(range(g.order))), dtype=np.int32)
    return [q for q in perms if np.array_equal(q[g.mul], g.mul[np.ix_(q, q)])]


def _automorphism_actions(g, h):
    """Every action of h on g: each choice of automorphisms of g for the
    generators of h that extends to an action."""
    gens = list(h.generator_map)
    out = []
    for images in itertools.product(_automorphisms(g), repeat=len(gens)):
        cols = {0: np.arange(g.order, dtype=np.int32)}
        frontier = [0]
        while frontier:
            y = frontier.pop()
            for s, image in zip(gens, images):
                z = int(h.mul[y, s])
                if z not in cols:
                    cols[z] = image[cols[y]]
                    frontier.append(z)
        try:
            out.append(GroupAction(g, h, np.stack([cols[y] for y in range(h.order)], axis=1)))
        except ValueError:
            pass
    return out


def _valid_action_pairs():
    """(g, h, act_h_on_g, act_g_on_h) for all mutual actions by
    automorphisms of three small pairs, and conjugation against trivial
    on two nonabelian groups.  Most are incompatible."""
    out = []
    for a, b in (("Z2xZ2", "Z2xZ2"), ("Z2xZ2", "S3"), ("Z2xZ2", "Z3")):
        g, h = catalog_group(a), catalog_group(b)
        out += [(g, h, x, y) for x in _automorphism_actions(g, h) for y in _automorphism_actions(h, g)]
    for name in ("S3", "A4"):
        g = catalog_group(name)
        conj, triv = conjugation_action(g), trivial_action(g, g)
        out += [(g, g, x, y) for x in (conj, triv) for y in (conj, triv)]
    return out


def test_violation_matches_loop():
    found = set()
    for g, h, act_h_on_g, act_g_on_h in _valid_action_pairs():
        for side, args in (("g", (g, act_h_on_g, act_g_on_h)), ("h", (h, act_g_on_h, act_h_on_g))):
            got = _violation_one_side(*args, side)
            assert got == _violation_one_side_by_loop(*args, side)
            found.add(got is None)
    assert found == {True, False}


def test_check_compatible_argument_validation():
    g = catalog_group("Z2")
    h = catalog_group("Z3")
    with pytest.raises(ValueError):
        check_compatible(g, h, trivial_action(h, g), trivial_action(g, h))


def _is_action_at_every_actor(acted, actor, table):
    """The replaced check: the homomorphism and automorphism laws at
    every actor, not only at the generators."""
    for h in range(actor.order):
        col = table[:, h]
        if not np.array_equal(table[col, :], table[:, actor.mul[h, :]]):
            return False
        if not np.array_equal(acted.mul[col[:, None], col[None, :]], col[acted.mul]):
            return False
    return True


@functools.cache
def _sample_actions():
    """Every action in `_valid_action_pairs` whose actor is nontrivial."""
    actions = {}
    for _, _, x, y in _valid_action_pairs():
        for act in (x, y):
            if act.actor.order > 1:
                actions[act.acted.order, act.actor.order, act.table.tobytes()] = act
    return list(actions.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_action_laws_on_generators_agree_with_every_actor(data):
    act = data.draw(st.sampled_from(_sample_actions()))
    table = np.array(act.table)
    n, m = table.shape
    # change up to two entries or copy one column over another, off the
    # identity actor's column
    for _ in range(data.draw(st.integers(0, 2))):
        h = data.draw(st.integers(1, m - 1))
        if data.draw(st.booleans()):
            table[data.draw(st.integers(0, n - 1)), h] = data.draw(st.integers(0, n - 1))
        else:
            table[:, h] = table[:, data.draw(st.integers(0, m - 1))]
    try:
        GroupAction(act.acted, act.actor, table)
    except ValueError:
        accepted = False
    else:
        accepted = True
    assert accepted == _is_action_at_every_actor(act.acted, act.actor, table)


def test_derived_subgroup_trivial_actions():
    pair = trivial_pair(catalog_group("S3"), catalog_group("Z4"))
    assert derived_subgroup_dh(pair) == (0,)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "Z6"])
def test_derived_subgroup_conjugation_is_commutator_subgroup(name):
    g = catalog_group(name)
    pair = conjugation_pair(g)
    assert derived_subgroup_dh(pair) == g.commutator_subgroup()


def test_derived_subgroup_d4_in_center():
    g = catalog_group("D4")
    d = derived_subgroup_dh(conjugation_pair(g))
    assert len(d) == 2
    assert set(d) <= set(g.center())


def _derived_subgroup_by_loop(pair):
    g = pair.g
    gens = set()
    for a in range(g.order):
        for h in range(pair.h.order):
            gens.add(int(g.mul[g.inv[a], pair.act_h_on_g.table[a, h]]))
    return _closure_by_dfs(g, gens)


def _catalog_pairs():
    """The conjugation pair of every catalog group, trivial pairs of
    each with S3 and Z4, and the compatible pairs among all mutual
    actions by automorphisms of three small pairs."""
    out = []
    for name in sorted(CATALOG_ORDERS):
        g = catalog_group(name)
        out += [conjugation_pair(g), trivial_pair(g, catalog_group("S3")), trivial_pair(catalog_group("Z4"), g)]
    for g, h, act_h_on_g, act_g_on_h in _valid_action_pairs():
        if check_compatible(g, h, act_h_on_g, act_g_on_h) is None:
            out.append(CompatiblePair(g, h, act_h_on_g, act_g_on_h))
    return out


def test_derived_subgroup_matches_loop():
    nontrivial = 0
    for pair in _catalog_pairs():
        d = derived_subgroup_dh(pair)
        assert d == _derived_subgroup_by_loop(pair)
        nontrivial += len(d) > 1
    assert nontrivial > 0
