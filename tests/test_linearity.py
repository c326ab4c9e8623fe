"""Torsion descriptors, the Malcev verdicts, and the matrix families."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    INFINITE,
    UNBOUNDED,
    ButtonVariant,
    ParseError,
    PolyMatrix,
    PrimeTorsion,
    TorsionDescriptor,
    bryukhanov_sum_descriptor,
    button_family,
    button_three_abelianization_descriptor,
    button_two_abelianization_descriptor,
    format_torsion_descriptor,
    k2_rationals_descriptor,
    malcev_char0,
    malcev_charp,
    parse_torsion_descriptor,
)
from grouptensor.polymat import poly_matrix_inv_special


def test_sentinels_are_singletons():
    assert INFINITE is type(INFINITE)()
    assert UNBOUNDED is type(UNBOUNDED)()
    assert repr(INFINITE) == "INFINITE"
    assert repr(UNBOUNDED) == "UNBOUNDED"


def test_prime_record_validation():
    with pytest.raises(ValueError):
        PrimeTorsion(4, 1, 1)
    with pytest.raises(ValueError):
        PrimeTorsion(2, 0, 1)
    with pytest.raises(ValueError):
        PrimeTorsion(2, 1, 0)
    PrimeTorsion(97, INFINITE, UNBOUNDED)


def test_descriptor_validation_and_sorting():
    with pytest.raises(ValueError):
        TorsionDescriptor(-1)
    with pytest.raises(ValueError):
        TorsionDescriptor(0, (PrimeTorsion(2, 1, 1), PrimeTorsion(2, 2, 1)))
    d = TorsionDescriptor(0, (PrimeTorsion(5, 1, 1), PrimeTorsion(2, 1, 1)))
    assert [r.prime for r in d.primes] == [2, 5]
    assert d.rank_at(3) == 0
    assert d.exponent_at(3) == 0


def test_char0_torsion_free_always_linear():
    assert malcev_char0(TorsionDescriptor(0), 1)
    assert malcev_char0(TorsionDescriptor(INFINITE), 1)
    assert malcev_char0(TorsionDescriptor(7), 3)


def test_char0_infinite_rank_never_linear():
    d = TorsionDescriptor(0, (PrimeTorsion(2, INFINITE, 1),))
    for n in (1, 2, 10, 100):
        assert not malcev_char0(d, n)


def test_char0_threshold_rank_three_at_five():
    d = TorsionDescriptor(0, (PrimeTorsion(5, 3, 1),))
    assert not malcev_char0(d, 2)
    assert malcev_char0(d, 3)


def test_char0_rank_is_max_not_sum_over_primes():
    # Z_6 = Z_2 + Z_3 is cyclic: it embeds in GL_1 over the complexes.
    d = TorsionDescriptor(0, (PrimeTorsion(2, 1, 1), PrimeTorsion(3, 1, 1)))
    assert malcev_char0(d, 1)
    d2 = TorsionDescriptor(
        0, (PrimeTorsion(2, 2, 1), PrimeTorsion(3, 1, 1), PrimeTorsion(5, 1, 1))
    )
    assert not malcev_char0(d2, 1)
    assert malcev_char0(d2, 2)


def test_charp_threshold_example():
    d = TorsionDescriptor(0, (PrimeTorsion(2, 1, 1), PrimeTorsion(3, 5, 1)))
    assert not malcev_charp(d, 3, 1)
    assert malcev_charp(d, 3, 2)


def test_charp_no_p_torsion_uses_fractional_lead():
    d = TorsionDescriptor(0, (PrimeTorsion(3, 1, 1),))
    # lead 1/2 plus rank 1 stays under n + 1 already at n = 1
    assert malcev_charp(d, 2, 1)


def test_charp_rank_at_p_is_irrelevant():
    d = TorsionDescriptor(0, (PrimeTorsion(2, INFINITE, 1),))
    assert malcev_charp(d, 2, 2)
    assert not malcev_charp(d, 2, 1)


def test_charp_unbounded_exponent_fails():
    d = TorsionDescriptor(0, (PrimeTorsion(2, 1, UNBOUNDED),))
    for n in (1, 5, 50):
        assert not malcev_charp(d, 2, n)


def test_two_variant_descriptor_verdicts():
    d = button_two_abelianization_descriptor()
    for n in (1, 2, 10):
        assert not malcev_char0(d, n)
        assert not malcev_charp(d, 3, n)
        assert not malcev_charp(d, 5, n)
    assert not malcev_charp(d, 2, 1)
    assert malcev_charp(d, 2, 2)
    assert malcev_charp(d, 2, 10)


def test_three_variant_descriptor_verdicts():
    d = button_three_abelianization_descriptor()
    for n in (1, 2, 10):
        assert not malcev_char0(d, n)
        assert not malcev_charp(d, 2, n)
    assert not malcev_charp(d, 3, 1)
    assert malcev_charp(d, 3, 2)


def test_k2_descriptor_universally_nonlinear():
    d = k2_rationals_descriptor()
    for n in (1, 2, 7):
        assert not malcev_char0(d, n)
        for p in (2, 3, 5, 7):
            assert not malcev_charp(d, p, n)


def test_bryukhanov_descriptor_universally_nonlinear():
    d = bryukhanov_sum_descriptor()
    for n in (1, 3):
        assert not malcev_char0(d, n)
        for p in (2, 3, 5):
            assert not malcev_charp(d, p, n)


def test_degree_and_prime_validation():
    d = TorsionDescriptor(0)
    with pytest.raises(ValueError):
        malcev_char0(d, 0)
    with pytest.raises(ValueError):
        malcev_charp(d, 4, 1)
    with pytest.raises(ValueError):
        malcev_charp(d, 3, 0)
    # characteristic 0 is not a prime, and the degree is checked first
    with pytest.raises(ValueError, match="^0 is not a prime$"):
        malcev_charp(d, 0, 1)
    with pytest.raises(ValueError, match="^degree must be"):
        malcev_charp(d, 0, 0)
    with pytest.raises(ValueError, match="^4 is not a prime$"):
        malcev_charp(d, 4, 1)


_SMALL_PRIMES = (2, 3, 5, 7)


@st.composite
def finite_descriptors(draw):
    chosen = draw(st.lists(st.sampled_from(_SMALL_PRIMES), unique=True,
                           max_size=3))
    records = tuple(
        PrimeTorsion(p, draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        for p in sorted(chosen)
    )
    return TorsionDescriptor(draw(st.integers(0, 2)), records)


@given(finite_descriptors(), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_char0_monotone_in_degree(d, n):
    if malcev_char0(d, n):
        assert malcev_char0(d, n + 1)


@given(finite_descriptors(), st.sampled_from(_SMALL_PRIMES), st.integers(1, 8))
@settings(max_examples=80, deadline=None)
def test_charp_monotone_in_degree(d, p, n):
    if malcev_charp(d, p, n):
        assert malcev_charp(d, p, n + 1)


@given(finite_descriptors(), st.sampled_from(_SMALL_PRIMES), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_charp_matches_direct_inequality(d, p, n):
    ranks = [rec.rank for rec in d.primes if rec.prime != p]
    r = max(ranks, default=0)
    e = next((rec.exponent for rec in d.primes if rec.prime == p), 0)
    expected = Fraction(p) ** (e - 1) + max(1, r) < n + 1
    assert malcev_charp(d, p, n) == expected


def test_descriptor_text_round_trip():
    for d in (
        TorsionDescriptor(0),
        k2_rationals_descriptor(),
        button_two_abelianization_descriptor(),
        button_three_abelianization_descriptor(),
        bryukhanov_sum_descriptor(),
        TorsionDescriptor(INFINITE, (PrimeTorsion(7, 2, 4),)),
    ):
        assert parse_torsion_descriptor(format_torsion_descriptor(d)) == d


def test_parse_accepts_comments_and_flexible_spacing():
    text = """
    # an abelianization table
    torsion_free_rank: 1

    prime:2 rank:inf exponent:1  # the 2-part
    """
    assert parse_torsion_descriptor(text) == button_two_abelianization_descriptor()


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_torsion_descriptor("prime: 2 rank: 1 exponent: 1\n")
    with pytest.raises(ParseError):
        parse_torsion_descriptor("torsion_free_rank: 1\ntorsion_free_rank: 2\n")
    with pytest.raises(ParseError):
        parse_torsion_descriptor("torsion_free_rank: banana\n")
    with pytest.raises(ParseError):
        parse_torsion_descriptor("torsion_free_rank: 0\nprime: 4 rank: 1 exponent: 1\n")
    with pytest.raises(ParseError) as exc:
        parse_torsion_descriptor("torsion_free_rank: 0\nwat\n")
    assert exc.value.position == len("torsion_free_rank: 0\n")


def test_button_two_conjugation_is_cubing():
    fam = button_family(ButtonVariant.TWO, 3)
    ring = fam.ring
    x = ring.variable("x")
    a1 = fam.generators[0]
    lhs = fam.conjugator * a1 * fam.conjugator_inverse
    assert lhs == PolyMatrix(ring, [[1, 3 * x], [0, 1]])
    assert lhs == a1 ** 3
    assert fam.power == 3


def test_button_three_conjugation_is_fourth_power():
    fam = button_family("three", 2)
    ring = fam.ring
    y = ring.variable("y")
    c2 = fam.generators[1]
    lhs = fam.conjugator * c2 * fam.conjugator_inverse
    assert lhs == PolyMatrix(ring, [[1, 4 * (y ** 2)], [0, 1]])
    assert lhs == c2 ** 4
    assert fam.power == 4


def test_button_generators_commute_and_are_unitriangular():
    fam = button_family(ButtonVariant.TWO, 4)
    for a in fam.generators:
        assert a.is_unitriangular()
        for b in fam.generators:
            assert a * b == b * a


def test_button_report_is_complete():
    m = 3
    fam = button_family(ButtonVariant.TWO, m)
    assert len(fam.report) == 1 + m * m + m
    assert "[A_1, A_1] = identity" in fam.report
    assert "B*A_2*B^-1 = A_2^3" in fam.report
    fam3 = button_family(ButtonVariant.THREE, 1)
    assert "D*C_1*D^-1 = C_1^4" in fam3.report


@pytest.mark.parametrize("variant,name", [("two", "B"), ("three", "D")])
def test_button_conjugator_keeps_its_checked_inverse(variant, name):
    fam = button_family(variant, 2)
    assert fam.report[0] == f"{name}*{name}^-1 = identity"
    assert poly_matrix_inv_special(fam.conjugator) is fam.conjugator_inverse


def test_button_size_validation():
    with pytest.raises(ValueError):
        button_family(ButtonVariant.TWO, 0)
    with pytest.raises(ValueError):
        button_family("five", 1)
