"""Representation packages: frozen matrices, sampling, nilpotency checks."""

import hashlib
import itertools

import pytest

from grouptensor import (
    ButtonVariant,
    FinGenAbelian,
    NotInvertibleInRing,
    PolyMatrix,
    PolyRing,
    RepPackage,
    button_family,
    free_embedding,
    left_normed_commutator,
    poly_matrix_inv_special,
    random_reduced_words,
    rep_z_m_times_f_k,
    sanov_f2,
    tensor_square_rep_free,
    tensor_square_rep_nilpotent,
    tensor_z,
    unitriangular_nilpotent_rep,
)

SANOV = sanov_f2()


def test_package_validation():
    ring = PolyRing((), ())
    good = PolyMatrix(ring, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        RepPackage(2, ring, ("a", "a"), (good, good))
    with pytest.raises(ValueError):
        RepPackage(2, ring, ("a",), (good, good))
    with pytest.raises(NotInvertibleInRing):
        RepPackage(2, ring, ("a",), (PolyMatrix(ring, [[2, 0], [0, 1]]),))


def test_package_inverses_verified():
    for pkg in (
        SANOV,
        free_embedding(3),
        rep_z_m_times_f_k(2, 2),
        tensor_square_rep_nilpotent(2, 2),
    ):
        for g, gi in zip(pkg.generators, pkg.inverses):
            assert (g * gi).is_identity()
            assert (gi * g).is_identity()


def test_package_inverses_are_kept_on_generators():
    for pkg in (
        SANOV,
        unitriangular_nilpotent_rep(2, 2),
        rep_z_m_times_f_k(2, 2),
        tensor_square_rep_nilpotent(2, 2),
    ):
        for g, gi in zip(pkg.generators, pkg.inverses):
            assert poly_matrix_inv_special(g) is gi
        rebuilt = pkg.with_metadata(note="x")
        for gi, again in zip(pkg.inverses, rebuilt.inverses):
            assert again is gi


def test_sanov_matrices():
    a, b = SANOV.generators
    assert a == PolyMatrix(SANOV.ring, [[1, 2], [0, 1]])
    assert b == PolyMatrix(SANOV.ring, [[1, 0], [2, 1]])
    assert a.det().constant_value() == 1
    assert b.det().constant_value() == 1


def test_sanov_empty_word_is_identity():
    assert SANOV.evaluate(()).is_identity()


def test_sanov_powers_of_a():
    for k in range(6):
        got = SANOV.evaluate(((0, 1),) * k)
        expected = PolyMatrix(SANOV.ring, [[1, 2 * k], [0, 1]])
        assert got == expected


@pytest.mark.parametrize("letter", [(-1, 1), (2, 1), (0, 0), (0, 2)])
def test_malformed_letters_are_refused(letter):
    with pytest.raises(ValueError, match=rf"letter \({letter[0]}, {letter[1]}\)"):
        SANOV.evaluate(((0, 1), letter))
    a, b = SANOV.generators
    a_inv, b_inv = SANOV.inverses
    assert SANOV.evaluate(((1, -1), (0, 1), (0, -1), (1, 1), (0, -1))) == b_inv * a * a_inv * b * a_inv


def test_sanov_commutator_frozen():
    word = ((0, 1), (1, 1), (0, -1), (1, -1))
    got = SANOV.evaluate(word)
    assert got == PolyMatrix(SANOV.ring, [[21, -8], [8, -3]])
    assert not got.is_identity()


def test_free_embedding_small_ranks():
    one = free_embedding(1)
    assert one.generators[0] == SANOV.generators[1]
    two = free_embedding(2)
    assert two.generators[1] == PolyMatrix(two.ring, [[-3, -8], [2, 5]])


def test_free_embedding_distinct_and_metadata():
    pkg = free_embedding(5)
    assert len(set(pkg.generators)) == 5
    assert pkg.metadata["rank"] == 5
    assert pkg.names == ("f1", "f2", "f3", "f4", "f5")
    with pytest.raises(ValueError):
        free_embedding(0)


def test_sampled_words_are_nonidentity():
    pkg = free_embedding(3)
    for word in random_reduced_words(3, 2000, 20, seed=20260815):
        assert not pkg.evaluate(word).is_identity()


def test_random_reduced_words_properties():
    words = random_reduced_words(2, 500, 12, seed=7)
    assert words == random_reduced_words(2, 500, 12, seed=7)
    assert words != random_reduced_words(2, 500, 12, seed=8)
    for word in words:
        assert 1 <= len(word) <= 12
        for prev, cur in zip(word, word[1:]):
            assert cur != (prev[0], -prev[1])
    with pytest.raises(ValueError):
        random_reduced_words(0, 1, 1, seed=0)


def test_scalar_free_package_shape():
    pkg = rep_z_m_times_f_k(1, 2)
    assert pkg.names == ("z1", "f1", "f2")
    assert pkg.metadata["target"] == "Z^1 x F_2"
    t = pkg.ring.variable("t1")
    assert pkg.generator("z1") == PolyMatrix.scalar(pkg.ring, 2, t)
    assert pkg.inverses[0] == PolyMatrix.scalar(
        pkg.ring, 2, pkg.ring.monomial(1, (-1,))
    )


def test_unknown_generator_name_is_refused():
    pkg = rep_z_m_times_f_k(1, 2)
    with pytest.raises(ValueError, match=r"unknown generator 'f3' \(choices: z1, f1, f2\)"):
        pkg.generator("f3")


def test_scalar_generators_are_central():
    pkg = rep_z_m_times_f_k(2, 3)
    scalars = pkg.generators[:2]
    for s in scalars:
        for g in pkg.generators:
            assert s * g == g * s


def test_scalar_free_edge_cases():
    assert rep_z_m_times_f_k(0, 1).names == ("f1",)
    assert rep_z_m_times_f_k(2, 0).names == ("z1", "z2")
    empty = rep_z_m_times_f_k(0, 0)
    assert empty.names == ()
    with pytest.raises(ValueError):
        rep_z_m_times_f_k(-1, 0)


def test_free_tensor_square_package():
    pkg = tensor_square_rep_free(3)
    assert pkg.names == ("z1", "z2", "z3", "z4", "z5", "z6", "f1", "f2")
    assert pkg.generators == rep_z_m_times_f_k(6, 2).generators
    assert pkg.metadata["construction"] == "tensor_square_rep_free"
    assert tensor_square_rep_free(1, 3).names == ("z1", "f1", "f2", "f3")


@pytest.mark.parametrize("n", [0, -1, -2])
def test_free_tensor_square_refuses_a_rank_below_one(n):
    with pytest.raises(ValueError, match="rank must be a positive integer"):
        tensor_square_rep_free(n)


def test_unitriangular_shape_frozen():
    pkg = unitriangular_nilpotent_rep(1, 1)
    (x,) = pkg.generators
    assert pkg.dimension == 3
    ring = pkg.ring
    assert x.entry(0, 1) == ring.variable("t1_1")
    assert x.entry(1, 2) == ring.variable("t1_2")
    assert x.entry(0, 2).is_zero()
    assert x.is_unitriangular()
    assert pkg.metadata["nilpotency_class"] == 2


def test_unitriangular_commutator_corner():
    pkg = unitriangular_nilpotent_rep(2, 1)
    x1, x2 = pkg.generators
    comm = left_normed_commutator((x1, x2))
    ring = pkg.ring
    t11, t12 = ring.variable("t1_1"), ring.variable("t1_2")
    t21, t22 = ring.variable("t2_1"), ring.variable("t2_2")
    assert comm.entry(0, 2) == t11 * t22 - t21 * t12
    assert not comm.is_identity()
    assert comm.entry(0, 1).is_zero()
    assert comm.entry(1, 2).is_zero()


def test_commutator_powers_scale_corner():
    pkg = unitriangular_nilpotent_rep(2, 1)
    comm = left_normed_commutator(pkg.generators)
    corner = comm.entry(0, 2)
    for k in (1, 2, 3, 4):
        assert (comm ** k).entry(0, 2) == k * corner
        assert not (comm ** k).is_identity()


@pytest.mark.parametrize("n,c", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_weight_class_plus_one_commutators_vanish(n, c):
    pkg = unitriangular_nilpotent_rep(n, c)
    weight = c + 2
    for combo in itertools.product(range(n), repeat=weight):
        mats = [pkg.generators[i] for i in combo]
        assert left_normed_commutator(mats).is_identity()


@pytest.mark.parametrize("n,c", [(2, 1), (2, 2), (3, 1)])
def test_weight_class_commutator_survives(n, c):
    pkg = unitriangular_nilpotent_rep(n, c)
    weight = c + 1
    found = False
    for combo in itertools.product(range(n), repeat=weight):
        mats = [pkg.generators[i] for i in combo]
        if not left_normed_commutator(mats).is_identity():
            found = True
            break
    assert found


def _folded_commutator(matrices):
    """The left fold of x^-1 y^-1 x y, inverting every running value."""
    inv = poly_matrix_inv_special
    out = matrices[0]
    for m in matrices[1:]:
        out = inv(out) * inv(m) * out * m
    return out


@pytest.mark.parametrize("n,c", [(2, 2), (3, 1)])
def test_left_normed_commutator_matches_fold(n, c):
    pkg = unitriangular_nilpotent_rep(n, c)
    for combo in itertools.product(range(n), repeat=c + 1):
        mats = [pkg.generators[i] for i in combo]
        assert left_normed_commutator(mats) == _folded_commutator(mats), combo


def test_left_normed_commutator_matches_fold_on_integer_matrices():
    gens = free_embedding(2).generators
    for combo in itertools.product(range(2), repeat=3):
        mats = [gens[i] for i in combo]
        assert left_normed_commutator(mats) == _folded_commutator(mats), combo


def test_left_normed_commutator_equal_but_distinct_inputs():
    a, b = unitriangular_nilpotent_rep(2, 2).generators
    twin = PolyMatrix(a.ring, a.rows)
    assert twin == a and twin is not a
    for mats in ([a, twin], [a, b, twin], [twin, b, a, b]):
        assert left_normed_commutator(mats) == _folded_commutator(mats)


def test_left_normed_commutator_validation():
    with pytest.raises(ValueError):
        left_normed_commutator([SANOV.generators[0]])


def test_tensor_square_nilpotent_package():
    pkg = tensor_square_rep_nilpotent(2, 1)
    assert pkg.names == ("s1", "s2", "s3", "x1", "x2")
    assert pkg.dimension == 3
    assert pkg.metadata["scalar_rank"] == 3
    assert pkg.metadata["derived_free_rank"] == 1
    assert "inside" in pkg.metadata["target"]
    scalars = pkg.generators[:3]
    for s in scalars:
        for g in pkg.generators:
            assert s * g == g * s


def test_tensor_square_nilpotent_no_derived_rank_above_class_one():
    pkg = tensor_square_rep_nilpotent(2, 2)
    assert "derived_free_rank" not in pkg.metadata
    assert pkg.dimension == 4
    assert pkg.metadata["scalar_rank"] == 3


def test_tensor_square_rank_matches_abelian_route():
    pkg = tensor_square_rep_nilpotent(2, 1)
    total = pkg.metadata["scalar_rank"] + pkg.metadata["derived_free_rank"]
    z2 = FinGenAbelian(free_rank=2)
    assert tensor_z(z2, z2) == FinGenAbelian(free_rank=4)
    assert total == 4


def test_export_text_stable_and_frozen():
    text = SANOV.export_text()
    assert text == SANOV.export_text()
    assert text == (
        "dimension: 2\n"
        "variables: none\n"
        "generator: a\n"
        "  [1, 2]\n"
        "  [0, 1]\n"
        "generator: b\n"
        "  [1, 0]\n"
        "  [2, 1]\n"
    )
    laurent = rep_z_m_times_f_k(1, 0).export_text()
    assert "variable: t1 laurent" in laurent
    unit = unitriangular_nilpotent_rep(1, 1).export_text()
    assert "variable: t1_1 polynomial" in unit
    assert "  [0, 1, t1_2]" in unit


def test_package_and_inverse_digest_frozen():
    """Exports and inverses of six packages and both button families.

    Pinned, so that any change to how inverses are computed keeps every
    package and inverse byte-identical.
    """
    h = hashlib.sha256()
    for pkg in (
        sanov_f2(),
        free_embedding(4),
        rep_z_m_times_f_k(2, 3),
        unitriangular_nilpotent_rep(3, 3),
        tensor_square_rep_nilpotent(3, 3),
        tensor_square_rep_nilpotent(2, 4),
    ):
        h.update(pkg.export_text().encode())
        for m in pkg.inverses:
            h.update(f"{m}\n".encode())
    for variant in ButtonVariant:
        fam = button_family(variant, 3)
        for m in (fam.conjugator, *fam.generators):
            h.update(f"{m}\n{poly_matrix_inv_special(m)}\n".encode())
    assert h.hexdigest() == (
        "22daed1019613ef3bc337bd1deae9106a8bda39e4ae9b00654d14e7a79ce63a0"
    )


def test_with_metadata_merges():
    pkg = sanov_f2().with_metadata(mode="braid")
    assert pkg.metadata["construction"] == "sanov_f2"
    assert pkg.metadata["mode"] == "braid"
    assert "mode" not in sanov_f2().metadata
