"""Group actions, compatibility checking, and the derivative subgroup.

Actions are right actions stored as full tables: ``table[g, h]`` is the
image of element g of the acted group under actor h.  Conjugation is
``x^y = y^-1 x y`` throughout, read from each group's one conjugation
table ``FiniteGroupRealization.conj``, which is also the table of the
conjugation action.

A pair of groups acting on each other is *compatible* when

    g^(h^g1) = ((g^(g1^-1))^h)^g1    and    h^(g^h1) = ((h^(h1^-1))^g)^h1

hold for all choices, where exponents inside a single group mean
conjugation there.  ``check_compatible`` reports the lexicographically
first violating triple instead of raising, so callers can inspect it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IncompatibleActions, _check_index
from .fp import FiniteGroupRealization, _frozen_table

__all__ = [
    "GroupAction",
    "CompatibilityViolation",
    "check_compatible",
    "CompatiblePair",
    "conjugation_action",
    "trivial_action",
    "conjugation_pair",
    "trivial_pair",
    "derived_subgroup_dh",
]


class GroupAction:
    """A validated right action of `actor` on the set of `acted`.

    Construction checks the action axioms: the identity actor fixes
    everything, acting by h1 then h2 equals acting by h1*h2, and every
    actor permutes `acted` by an automorphism.  The last two are checked
    for the actors in `actor.generating_set`: the actors that satisfy
    both are closed under products, so both hold for every actor.
    """

    def __init__(self, acted: FiniteGroupRealization, actor: FiniteGroupRealization, table):
        n, m = acted.order, actor.order
        if np.shape(table) != (n, m):
            raise ValueError(f"action table must be {n}x{m}, got {np.shape(table)}")
        table = _frozen_table(table, n, "action table")
        idx = np.arange(n)
        if not np.array_equal(table[:, 0], idx):
            raise ValueError("identity actor must fix every element")
        for h in actor.generating_set:
            col = table[:, h]
            if not np.array_equal(table[col, :], table[:, actor.mul[h, :]]):
                raise ValueError(f"action is not a homomorphism at actor {h}")
            if not np.array_equal(acted.mul[col[:, None], col[None, :]], col[acted.mul]):
                raise ValueError(f"actor {h} does not act by an automorphism")
        self.acted = acted
        self.actor = actor
        self.table = table

    def apply(self, g: int, h: int) -> int:
        """g^h."""
        _check_index(g, self.acted.order, "acted element")
        _check_index(h, self.actor.order, "actor element")
        return int(self.table[g, h])

    def is_trivial(self) -> bool:
        fixed = np.repeat(np.arange(self.acted.order, dtype=np.int32)[:, None], self.actor.order, axis=1)
        return bool(np.array_equal(self.table, fixed))

    def __repr__(self):
        return f"GroupAction(acted order {self.acted.order}, actor order {self.actor.order})"


def conjugation_action(g: FiniteGroupRealization) -> GroupAction:
    """The action of a group on itself by conjugation, x^y = y^-1 x y."""
    return GroupAction(g, g, g.conj)


def trivial_action(acted: FiniteGroupRealization, actor: FiniteGroupRealization) -> GroupAction:
    table = np.repeat(np.arange(acted.order, dtype=np.int32)[:, None], actor.order, axis=1)
    table.flags.writeable = False
    return GroupAction(acted, actor, table)


@dataclass(frozen=True)
class CompatibilityViolation:
    """First failing instance of one compatibility equation.

    ``side`` is "g" when the equation acted on G (triple = (g, g1, h))
    and "h" for the mirror (triple = (h, h1, g)).  ``lhs`` and ``rhs``
    are the differing element indices.
    """

    side: str
    triple: tuple
    lhs: int
    rhs: int

    def __str__(self):
        a, b, c = self.triple
        if self.side == "g":
            return (
                f"g^(h^g1) != ((g^(g1^-1))^h)^g1 at g={a}, g1={b}, h={c}:"
                f" {self.lhs} vs {self.rhs}"
            )
        return (
            f"h^(g^h1) != ((h^(h1^-1))^g)^h1 at h={a}, h1={b}, g={c}:"
            f" {self.lhs} vs {self.rhs}"
        )


def _violation_one_side(
    g: FiniteGroupRealization,
    act_h_on_g: GroupAction,
    act_g_on_h: GroupAction,
    side: str,
):
    """Lexicographically first (a, b, c) violating one equation, or None.

    One numpy step per g1 compares both sides over every acted element
    a (rows) and every h (columns) at once.
    """
    conj_g = g.conj
    act, back = act_h_on_g.table, act_g_on_h.table
    best = None
    for g1 in range(g.order):
        lhs = act[:, back[:, g1]]
        rhs = conj_g[act[conj_g[:, g.inv[g1]], :], g1]
        bad = lhs != rhs
        rows = np.flatnonzero(bad.any(axis=1))
        # a later g1 wins only with a smaller a
        if rows.size and (best is None or rows[0] < best[0]):
            a = int(rows[0])
            h = int(bad[a].argmax())
            best = (a, g1, h, int(lhs[a, h]), int(rhs[a, h]))
    if best is None:
        return None
    a, b, c, lhs_v, rhs_v = best
    return CompatibilityViolation(side, (a, b, c), lhs_v, rhs_v)


def check_compatible(
    g: FiniteGroupRealization,
    h: FiniteGroupRealization,
    act_h_on_g: GroupAction,
    act_g_on_h: GroupAction,
):
    """None when the mutual actions are compatible, else the first violation.

    The scan is exhaustive over all triples; "first" means the
    lexicographically smallest triple, G-side equation checked before
    the mirror.
    """
    if act_h_on_g.acted is not g or act_h_on_g.actor is not h:
        raise ValueError("act_h_on_g must act on g with actor h")
    if act_g_on_h.acted is not h or act_g_on_h.actor is not g:
        raise ValueError("act_g_on_h must act on h with actor g")
    v = _violation_one_side(g, act_h_on_g, act_g_on_h, "g")
    if v is not None:
        return v
    return _violation_one_side(h, act_g_on_h, act_h_on_g, "h")


class CompatiblePair:
    """Two groups with mutual actions, validated compatible on construction."""

    def __init__(
        self,
        g: FiniteGroupRealization,
        h: FiniteGroupRealization,
        act_h_on_g: GroupAction,
        act_g_on_h: GroupAction,
    ):
        violation = check_compatible(g, h, act_h_on_g, act_g_on_h)
        if violation is not None:
            raise IncompatibleActions(str(violation), report=violation)
        self.g = g
        self.h = h
        self.act_h_on_g = act_h_on_g
        self.act_g_on_h = act_g_on_h

    def __repr__(self):
        return f"CompatiblePair(|G|={self.g.order}, |H|={self.h.order})"


def conjugation_pair(g: FiniteGroupRealization) -> CompatiblePair:
    """G acting on itself by conjugation on both sides."""
    act = conjugation_action(g)
    return CompatiblePair(g, g, act, act)


def trivial_pair(g: FiniteGroupRealization, h: FiniteGroupRealization) -> CompatiblePair:
    return CompatiblePair(g, h, trivial_action(g, h), trivial_action(h, g))


def derived_subgroup_dh(pair: CompatiblePair) -> tuple:
    """The subgroup of G generated by all g^-1 * g^h, sorted.

    For the conjugation pair this is the commutator subgroup of G.
    """
    g = pair.g
    return g.subgroup_closure(g.mul[g.inv[:, None], pair.act_h_on_g.table])
