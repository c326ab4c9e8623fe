"""Acceptance suite: eleven numbered criteria, one summary line each.

Each criterion test pins its own runtime bound (RUNTIME_BOUNDS) and
asserts the mathematical contract it covers.  The conftest hook prints
one PASS/FAIL/SKIPPED-LONG line per criterion after the run.

Criterion 6 pins the conjugation Peiffer square as G x G^ab: the fold
map sending both free-product copies identically onto G kills every
defining relator, so the square is never abelian for nonabelian G.
See README "Acceptance suite".
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from grouptensor import (
    CATALOG_ORDERS,
    FinGenAbelian,
    INFINITE,
    BudgetExceeded,
    TorsionDescriptor,
    braid3_presentation,
    button_family,
    button_three_abelianization_descriptor,
    button_two_abelianization_descriptor,
    catalog_group,
    conjugation_pair,
    coset_enumerate,
    exterior_square,
    free_embedding,
    gamma,
    iso_eq,
    k2_rationals_descriptor,
    left_normed_commutator,
    malcev_char0,
    malcev_charp,
    parse_presentation,
    peiffer_product,
    pure_braid3_words,
    random_reduced_words,
    sanov_f2,
    tensor_product,
    tensor_square,
    tensor_square_rep_nilpotent,
    tensor_z,
    trivial_pair,
    unitriangular_nilpotent_rep,
)

RUNTIME_BOUNDS = {
    1: 1.0,
    2: 120.0,
    3: 600.0,
    4: 600.0,
    5: 1800.0,
    6: 300.0,
    7: 1.0,
    8: 1.0,
    9: 1.0,
    10: 30.0,
    11: 1.0,
}

SMALL_GROUPS = [n for n, o in CATALOG_ORDERS.items() if o <= 16]
ABELIAN_SMALL = [n for n in SMALL_GROUPS if catalog_group(n).is_abelian()]


@contextmanager
def runtime_bound(number):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < RUNTIME_BOUNDS[number], (
        f"criterion {number} took {elapsed:.1f}s,"
        f" bound {RUNTIME_BOUNDS[number]:.0f}s"
    )


@pytest.fixture(scope="module", autouse=True)
def warm_enumeration_engine():
    """Compile the enumeration kernels before any timed criterion."""
    s3 = catalog_group("S3")
    tensor_square(s3, strategy="hlt")
    tensor_square(s3, strategy="felsch")
    coset_enumerate(
        parse_presentation("< a, b | a^4, b^2, (a b)^2 >"), ["a"]
    )


def test_criterion_01_gamma_table():
    """Quadratic functor on cyclic groups and free abelian groups."""
    with runtime_bound(1):
        for n in range(1, 13):
            zn = FinGenAbelian.from_divisors([n])
            expected = FinGenAbelian.from_divisors([n if n % 2 else 2 * n])
            assert gamma(zn) == expected, f"gamma(Z_{n})"
        for n in range(1, 9):
            out = gamma(FinGenAbelian(free_rank=n))
            assert out == FinGenAbelian(free_rank=n * (n + 1) // 2)


def test_criterion_02_trivial_action_collapse():
    """Trivial-action tensor products match the abelian tensor product."""
    with runtime_bound(2):
        for a, b in itertools.product(ABELIAN_SMALL, repeat=2):
            ga, gb = catalog_group(a), catalog_group(b)
            t = tensor_product(trivial_pair(ga, gb))
            expected = tensor_z(
                ga.abelian_invariants(), gb.abelian_invariants()
            )
            assert t.order == expected.order(), (a, b)
            assert t.realization.abelian_invariants() == expected, (a, b)


def test_criterion_03_exactness_centrality_suite():
    """Order factorization, central kernel, derived image, diagonal fixity."""
    with runtime_bound(3):
        for name in SMALL_GROUPS:
            g = catalog_group(name)
            t = tensor_square(g)
            t._check_relation_families()
            derived = set(g.commutator_subgroup())
            image = set(int(v) for v in t.kappa_elements)
            assert image == derived, name
            assert t.order == len(t.j2()) * len(derived), name
            center = set(t.realization.center())
            assert set(t.j2()) <= center, name
            for x in range(g.order):
                for e in range(g.order):
                    assert t.act(x, t.psi(e)) == t.psi(e), name


def test_criterion_04_dual_engine_agreement():
    """Two independent enumeration strategies agree on the squares."""
    with runtime_bound(4):
        for name in ("D4", "Q8", "S3", "A4"):
            g = catalog_group(name)
            by_strategy = [
                tensor_square(g, strategy=s) for s in ("hlt", "felsch")
            ]
            assert by_strategy[0].order == by_strategy[1].order, name
            assert (
                by_strategy[0].realization.abelian_invariants()
                == by_strategy[1].realization.abelian_invariants()
            ), name


def test_criterion_05_perfect_group_identity():
    """|A5 (x) A5| = |A5 ^ A5| = |A5| * |ker kappa|, kernel central."""
    with runtime_bound(5):
        budget = 2_000_000
        try:
            t = tensor_square(catalog_group("A5"), budget=budget)
            e = exterior_square(catalog_group("A5"), budget=budget)
        except BudgetExceeded:
            for name in SMALL_GROUPS:
                g = catalog_group(name)
                ts = tensor_square(g)
                es = exterior_square(g)
                diag = ts.realization.subgroup_closure(
                    [ts.psi(x) for x in range(g.order)]
                )
                assert es.order * len(diag) == ts.order, name
            pytest.skip(
                "SKIPPED-LONG: stress enumeration exceeded its coset"
                " budget; quotient identity verified on the small-group"
                " suite instead"
            )
        assert t.order == e.order
        assert t.order == 60 * len(t.j2())
        assert e.order == 60 * len(e.j2())
        assert len(e.j2()) == 2  # M(A5) = Z_2
        assert set(t.j2()) <= set(t.realization.center())
        assert set(e.j2()) <= set(e.realization.center())


def test_criterion_06_peiffer_squares():
    """Peiffer squares: direct-product collapse, abelianization formula,
    and the decomposition G |><| G = H2 x K with H2 = G and K = G^ab.

    Under the conjugation actions, g_x -> (x, x G'), h_x -> (x, 1) maps
    the Peiffer square onto G x G^ab and kills every relator; composing
    with the projection to G gives the fold map, so the square is not
    abelian when G is not.  H2 is the image of the second copy of G and
    K is generated by the elements g_x h_x^-1, which map to (1, x G').
    """
    with runtime_bound(6):
        for name, expected_order in (("Z3", 12), ("Z4", 12)):
            other = {"Z3": "Z4", "Z4": "Z3"}[name]
            pair = trivial_pair(catalog_group(name), catalog_group(other))
            p = peiffer_product(pair)
            assert p.order == expected_order, name
            assert p.realization.is_abelian(), name
        failures = []
        for name in ("S3", "D4", "Q8", "A4", "A5"):
            g = catalog_group(name)
            p = peiffer_product(conjugation_pair(g))
            ab = g.abelian_invariants()
            assert iso_eq(
                p.realization.abelian_invariants(), ab.direct_sum(ab)
            ), name
            r = p.realization
            h2 = set(r.subgroup_closure(p.h_images))
            k = set(r.subgroup_closure(
                r.mul[p.g_images[x], r.inv[p.h_images[x]]]
                for x in range(g.order)
            ))
            checks = (
                ("|H2| = |G|", len(h2) == g.order),
                ("H2 normal", r.is_normal(tuple(h2))),
                ("K central", k <= set(r.center())),
                ("|K| = |G^ab|", len(k) == ab.order()),
                ("K meets H2 trivially", k & h2 == {r.identity}),
                ("|P| = |H2| * |K|", p.order == len(h2) * len(k)),
                ("P nonabelian", not r.is_abelian()),
            )
            failures += [
                f"{name}: {part} fails (|P|={p.order}, |H2|={len(h2)},"
                f" |K|={len(k)})"
                for part, ok in checks if not ok
            ]
        assert not failures, (
            "Peiffer squares are not G x G^ab: " + "; ".join(failures)
        )


def test_criterion_07_pure_braid_index():
    """Index of the pure braid subgroup in the three-strand braid group."""
    with runtime_bound(7):
        table = coset_enumerate(braid3_presentation(), pure_braid3_words())
        assert table.num_cosets == 6


def test_criterion_08_malcev_verdicts():
    """The three tagged linearity verdicts."""
    with runtime_bound(8):
        for n in (1, 2, 5):
            assert malcev_char0(TorsionDescriptor(0), n)
            assert malcev_char0(TorsionDescriptor(INFINITE), n)
        g2 = button_two_abelianization_descriptor()
        for n in (1, 2, 10):
            assert not malcev_char0(g2, n)
            assert not malcev_charp(g2, 3, n)
            assert not malcev_charp(g2, 5, n)
        assert not malcev_charp(g2, 2, 1)
        assert malcev_charp(g2, 2, 2)
        g3 = button_three_abelianization_descriptor()
        assert not malcev_charp(g3, 3, 1)
        assert malcev_charp(g3, 3, 2)
        assert not malcev_charp(g3, 2, 2)
        k2 = k2_rationals_descriptor()
        for n in (1, 2, 7):
            assert not malcev_char0(k2, n)
            for p in (2, 3, 5, 7):
                assert not malcev_charp(k2, p, n)


def test_criterion_09_button_identities():
    """Both variants, family size five, all identities exact."""
    with runtime_bound(9):
        for variant, power in (("two", 3), ("three", 4)):
            fam = button_family(variant, 5)
            assert len(fam.report) == 1 + 25 + 5
            assert fam.power == power
            for a in fam.generators:
                assert (
                    fam.conjugator * a * fam.conjugator_inverse == a ** power
                )
                for b in fam.generators:
                    assert a * b == b * a


def test_criterion_10_representation_sampling():
    """Free-image sampling plus the nilpotency-class window."""
    with runtime_bound(10):
        for pkg in (sanov_f2(), free_embedding(3)):
            words = random_reduced_words(
                len(pkg.generators), 10_000, 20, seed=0
            )
            for word in words:
                assert not pkg.evaluate(word).is_identity()
        for n, c in itertools.product((1, 2, 3), repeat=2):
            pkg = unitriangular_nilpotent_rep(n, c)
            for combo in itertools.product(range(n), repeat=c + 2):
                mats = [pkg.generators[i] for i in combo]
                assert left_normed_commutator(mats).is_identity(), (n, c)
            if n >= 2:
                witnesses = (
                    not left_normed_commutator(
                        [pkg.generators[i] for i in combo]
                    ).is_identity()
                    for combo in itertools.product(range(n), repeat=c + 1)
                )
                assert any(witnesses), (n, c)


def test_criterion_11_rank_cross_check():
    """Nilpotent tensor-square rank equals the abelian tensor rank."""
    with runtime_bound(11):
        pkg = tensor_square_rep_nilpotent(2, 1)
        total = pkg.metadata["scalar_rank"] + pkg.metadata["derived_free_rank"]
        z2 = FinGenAbelian(free_rank=2)
        abelian_route = tensor_z(z2, z2)
        assert abelian_route == FinGenAbelian(free_rank=4)
        assert total == abelian_route.free_rank == 4
