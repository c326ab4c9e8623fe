"""Each benchmark check accepts a right answer and rejects a wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench

The right answers are built here from first principles (matrix groups,
permutation groups, integer matrices) or computed by the program on a
small input; the wrong ones are the nearest plausible mistakes: another
group of the same order, Z_mn for Z_gcd(m, n), a permuted table, a
perturbed matrix.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import checks


def table(elements, mul, identity):
    """Multiplication table of a finite group, identity first."""
    elements = [identity] + [e for e in elements if e != identity]
    index = {e: i for i, e in enumerate(elements)}
    return [[index[mul(a, b)] for b in elements] for a in elements]


def sl25():
    def mul(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return ((a * e + b * g) % 5, (a * f + b * h) % 5,
                (c * e + d * g) % 5, (c * f + d * h) % 5)

    elems = [m for m in itertools.product(range(5), repeat=4)
             if (m[0] * m[3] - m[1] * m[2]) % 5 == 1]
    return table(elems, mul, (1, 0, 0, 1))


def perm_mul(p, q):
    return tuple(q[i] for i in p)


def sign(p):
    return (-1) ** sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def s5():
    return table(list(itertools.permutations(range(5))), perm_mul, tuple(range(5)))


def a5_times_z2():
    a5 = [p for p in itertools.permutations(range(5)) if sign(p) == 1]
    elems = [(p, z) for p in a5 for z in (0, 1)]
    return table(elems, lambda x, y: (perm_mul(x[0], y[0]), (x[1] + y[1]) % 2),
                 (tuple(range(5)), 0))


def s3():
    return table(list(itertools.permutations(range(3))), perm_mul, (0, 1, 2))


# ------------------------------------------------------------ a5-squares


def test_sl25_profile_is_the_classical_one():
    assert checks.sl25_profile() == {1: 1, 2: 1, 3: 20, 4: 30, 5: 24, 6: 20, 10: 24}
    assert checks.check_sl25_profile(sl25()) == []


@pytest.mark.parametrize("other", [s5, a5_times_z2])
def test_sl25_profile_rejects_another_group_of_order_120(other):
    mul = other()
    assert len(mul) == 120
    assert checks.check_sl25_profile(mul)


def test_central_subgroup_check():
    mul = sl25()
    z = checks.center(mul)
    assert len(z) == 2
    assert checks.check_central_subgroup(mul, z, 2) == []
    assert checks.check_central_subgroup(mul, z, 4)
    s3mul = s3()
    transposition = next(x for x in range(6) if x and s3mul[x][x] == 0)
    assert checks.check_central_subgroup(s3mul, (0, transposition), 2)


def _fake_square(mul, j2, invariants):
    t = SimpleNamespace(order=len(mul), realization=SimpleNamespace(mul=np.array(mul)))
    return {"t": t, "j2": tuple(j2), "invariants": invariants}


def test_a5_squares_check_accepts_sl25_and_rejects_wrong_answers():
    import workloads
    from grouptensor import FinGenAbelian

    w = workloads.A5Squares(0)
    mul = sl25()
    z = sorted(checks.center(mul))
    good = _fake_square(mul, z, FinGenAbelian())
    assert w.check({"square": good}) == []
    assert w.check({"square": _fake_square(mul, z, FinGenAbelian.from_divisors([2]))})
    assert w.check({"square": _fake_square(a5_times_z2(), z, FinGenAbelian())})
    assert w.check({"square": _fake_square(s3(), [0], FinGenAbelian())})


# ------------------------------------------------------------ catalog-products


def test_invariant_factors():
    assert checks.invariant_factors([2, 4, 6]) == (2, 2, 12)
    assert checks.invariant_factors([1, 1]) == ()
    assert checks.gcd_tensor_factors((4,), (6,)) == (2,)
    assert checks.gcd_tensor_factors((2, 2), (2, 2)) == (2, 2, 2, 2)


def test_gcd_check_rejects_z_mn():
    assert checks.check_abelian_tensor((4,), (6,), 0, (2,)) == []
    assert checks.check_abelian_tensor((4,), (6,), 0, (24,))
    assert checks.check_abelian_tensor((2,), (3,), 0, (6,))
    assert checks.check_abelian_tensor((2,), (3,), 1, ())


def test_crossed_module_check_rejects_a_wrong_action():
    mul = s3()
    inv = checks.inverses(mul)
    acted = [[mul[mul[inv[s]][t]][s] for t in range(6)] for s in range(6)]
    kappa = list(range(6))
    assert checks.check_crossed_module(mul, kappa, acted) == []
    acted[3][4] = acted[3][5]
    assert checks.check_crossed_module(mul, kappa, acted)


def test_table_comparison_rejects_a_permuted_table():
    mul = s3()
    gens = [1, 2]
    base = checks.coset_table(mul, gens)
    assert checks.check_same_table(base, checks.coset_table(mul, gens)) == []
    # Swap cosets 1 and 2: the same action, numbered differently.
    swap = {0: 0, 1: 2, 2: 1, 3: 3, 4: 4, 5: 5}
    permuted = [[swap[x] for x in base[swap[i]]] for i in range(6)]
    assert checks.check_same_table(base, permuted)


def _square_record(name, build):
    import grouptensor as gt
    import workloads

    return workloads._square_record(build(gt.catalog_group(name)), True)


def test_catalog_check_accepts_program_squares_and_rejects_tampering():
    import grouptensor as gt
    import workloads

    w = workloads.CatalogProducts(0)
    results = {
        ("tensor", "S3"): _square_record("S3", gt.tensor_square),
        ("exterior", "D4"): _square_record("D4", gt.exterior_square),
        ("tensor", "Z4"): _square_record("Z4", gt.tensor_square),
        ("trivial", "Z4", "Z6"): workloads._trivial_record(
            gt.tensor_product(gt.trivial_pair(gt.catalog_group("Z4"), gt.catalog_group("Z6")))),
        ("peiffer", "S3"): gt.peiffer_product(gt.conjugation_pair(gt.catalog_group("S3"))),
        ("felsch", "S3"): gt.tensor_square(gt.catalog_group("S3"), strategy="felsch"),
    }
    assert w.check(results) == []

    # The exterior square of D4 reported as the tensor square of S3.
    assert w.check({("tensor", "S3"): _square_record("D4", gt.exterior_square)})
    # A trivial product reported as Z_24 instead of Z_2.
    z24 = {"order": 24, "invariants": gt.FinGenAbelian.from_divisors([24])}
    assert w.check({("trivial", "Z4", "Z6"): z24})
    # A Peiffer square of the wrong order (the S3 tensor square).
    assert w.check({("peiffer", "S3"): results[("tensor", "S3")]["t"]})
    # A Felsch table that differs from the HLT one.
    felsch = {("tensor", "S3"): results[("tensor", "S3")],
              ("felsch", "S3"): gt.tensor_square(gt.catalog_group("Z6"))}
    assert w.check(felsch)


# ------------------------------------------------------------ rep-words


def test_sanov_and_free_embedding_matrices():
    a, b = checks.SANOV_A, checks.SANOV_B
    assert checks.evaluate_word([a, b], ((0, 1), (0, -1))) == checks.identity(2)
    f = checks.free_embedding_matrices(3)
    assert f[0] == b
    assert f[1] == checks.mat_mul(checks.mat_mul(checks.inverse_sl2(a), b), a)


def test_matrix_at_point_rejects_a_perturbed_matrix():
    values = {"t1_1": 2, "t1_2": 3, "t2_1": 5, "t2_2": 7}
    x1, x2 = checks.unitriangular_generators(2, 1, values)
    comm = checks.left_normed_commutator([x1, x2])
    assert comm == ((1, 0, 2 * 7 - 5 * 3), (0, 1, 0), (0, 0, 1))
    zero = (0, 0, 0, 0)

    def const(v):
        return {zero: Fraction(v)} if v else {}

    # The program's commutator, as term dicts: t1_1 t2_2 - t2_1 t1_2 in the corner.
    corner = {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)}
    entries = [[const(1), const(0), corner], [const(0), const(1), const(0)],
               [const(0), const(0), const(1)]]
    point = (2, 3, 5, 7)
    assert checks.check_matrix_at(entries, point, comm) == []
    entries[0][2] = {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(1)}
    assert checks.check_matrix_at(entries, point, comm)


def test_identity_read_from_terms():
    one = {(0, 0): Fraction(1)}
    assert checks.is_identity_terms([[one, {}], [{}, one]])
    assert not checks.is_identity_terms([[one, {(1, 0): Fraction(1)}], [{}, one]])
    assert not checks.is_identity_terms([[{(0, 0): Fraction(2)}, {}], [{}, one]])
    assert not checks.is_identity_terms([[{(1, 0): Fraction(1)}, {}], [{}, one]])


def test_rep_words_check_rejects_wrong_words_and_commutators():
    import grouptensor as gt
    import workloads

    w = workloads.RepWords(3)
    sanov = gt.sanov_f2()
    words = w.words[2][:50]
    rec = [(sanov.evaluate(x), sanov.evaluate(x).is_identity()) for x in words]
    assert w.check({("words", "sanov_f2"): rec}) == []
    wrong = list(rec)
    wrong[7] = (sanov.evaluate(words[8]), False)
    assert w.check({("words", "sanov_f2"): wrong})
    wrong[7] = (rec[7][0], True)
    assert w.check({("words", "sanov_f2"): wrong})

    sweep = workloads.RepWords._sweep(2, 1)
    assert w.check({("sweep", 2, 1): sweep}) == []
    comms = sweep["commutators"]
    # A wrong is_identity verdict.
    flipped = [(combo, m, not v) if k == 0 else (combo, m, v)
               for k, (combo, m, v) in enumerate(comms)]
    assert w.check({("sweep", 2, 1): dict(sweep, commutators=flipped)})
    # A weight-3 commutator replaced by a nontrivial weight-2 one.
    witness = next(m for combo, m, v in comms if len(combo) == 2 and not v)
    swapped = [(combo, witness, False) if k == 0 else (combo, m, v)
               for k, (combo, m, v) in enumerate(comms)]
    assert w.check({("sweep", 2, 1): dict(sweep, commutators=swapped)})
    # No nontrivial weight-2 commutator at all.
    only_top = [c for c in comms if len(c[0]) == 3]
    assert w.check({("sweep", 2, 1): dict(sweep, commutators=only_top)})
