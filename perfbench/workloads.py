"""The benchmark's three workloads.

A workload is built in set-up from the seed and then offers ``jobs()``,
the operations of one round, each a ``(name, callable)`` pair whose
callable makes the program calls and returns what they produced, and
``check(results)``, which tests those results against the oracles in
``checks`` after the round's timed region.  Program calls go through
module attributes (``tensor.tensor_square``, ``reps.sanov_f2``, ...)
so that a traced worker sees them.
"""

from __future__ import annotations

import itertools
import random

import checks
import grouptensor.actions as actions
import grouptensor.catalog as catalog
import grouptensor.fp as fp
import grouptensor.reps as reps
import grouptensor.tensor as tensor
from grouptensor.errors import (
    BudgetExceeded,
    EnumerationCancelled,
    IncompatibleActions,
    InternalInvariantError,
    NotInvertibleInRing,
)

# Failures the library documents for a computation it could not finish
# or could not verify; the worker counts them as failed operations.
LIBRARY_ERRORS = (
    BudgetExceeded,
    EnumerationCancelled,
    IncompatibleActions,
    InternalInvariantError,
    NotInvertibleInRing,
)

SMALL_GROUPS = tuple(n for n, o in catalog.CATALOG_ORDERS.items() if o <= 16)
PEIFFER_GROUPS = ("S3", "D4", "Q8", "A4", "A5")
FELSCH_GROUPS = ("S3", "D4", "Q8", "A4")
WORDS_PER_PACKAGE = 2000
MAX_WORD_LENGTH = 20
# Every (n, c) of criterion 10 except (3, 3), which alone costs about
# four times all the others together and would drown the word half.
SWEEP = tuple(
    (n, c) for n in (1, 2, 3) for c in (1, 2, 3) if (n, c) != (3, 3)
)


def warm_up():
    """One enumeration per strategy, with and without a subgroup.

    With numba present this is where the kernels compile, so their
    compile time is part of set-up and not of the timed rounds.
    """
    s3 = catalog.catalog_group("S3")
    tensor.tensor_square(s3, strategy="hlt")
    tensor.tensor_square(s3, strategy="felsch")
    fp.coset_enumerate(
        fp.parse_presentation("< a, b | a^4, b^2, (a b)^2 >"), ["a"]
    )


def _square_record(t, with_action: bool) -> dict:
    r = t.realization
    out = {
        "t": t,
        "invariants": r.abelian_invariants(),
        "j2": t.j2(),
    }
    if with_action:
        n = t.order
        kappa = [t.kappa_of(s) for s in range(n)]
        out["kappa"] = kappa
        out["acted"] = [[t.act(kappa[s], u) for u in range(n)] for s in range(n)]
    return out


class A5Squares:
    """The A5 tensor and exterior squares with Tietze reduction."""

    def __init__(self, seed: int):
        del seed  # the inputs are fixed
        self.g = catalog.catalog_group("A5")
        warm_up()

    def jobs(self):
        g = self.g
        return [
            ("A5 tensor square", lambda: _square_record(
                tensor.tensor_square(g, simplify=True), False)),
            ("A5 exterior square", lambda: _square_record(
                tensor.exterior_square(g, simplify=True), False)),
        ]

    def check(self, results) -> list:
        out = []
        for name, rec in results.items():
            t = rec["t"]
            mul = t.realization.mul.tolist()
            problems = []
            if t.order != 120:
                problems.append(f"order {t.order}, expected 120")
            problems += checks.check_sl25_profile(mul)
            problems += checks.check_central_subgroup(mul, rec["j2"], 2)
            inv = rec["invariants"]
            if inv.free_rank or inv.invariant_factors:
                problems.append(f"abelianization {inv}, A5 is perfect")
            out += [f"{name}: {p}" for p in problems]
        return out


class CatalogProducts:
    """Criteria 2-4 and 6 inputs, enumerated without Tietze reduction."""

    def __init__(self, seed: int):
        del seed  # the inputs are fixed
        self.groups = {
            n: catalog.catalog_group(n) for n in SMALL_GROUPS + ("A5",)
        }
        self.abelian = tuple(n for n in SMALL_GROUPS if self.groups[n].is_abelian())
        warm_up()

    def jobs(self):
        gs = self.groups
        out = []
        for name in SMALL_GROUPS:
            out.append((("tensor", name), lambda g=gs[name]: _square_record(
                tensor.tensor_square(g), True)))
            out.append((("exterior", name), lambda g=gs[name]: _square_record(
                tensor.exterior_square(g), True)))
        for a, b in itertools.product(self.abelian, repeat=2):
            out.append((("trivial", a, b), lambda ga=gs[a], gb=gs[b]: _trivial_record(
                tensor.tensor_product(actions.trivial_pair(ga, gb)))))
        for name in PEIFFER_GROUPS:
            out.append((("peiffer", name), lambda g=gs[name]: tensor.peiffer_product(
                actions.conjugation_pair(g))))
        for name in FELSCH_GROUPS:
            out.append((("felsch", name), lambda g=gs[name]: tensor.tensor_square(
                g, strategy="felsch")))
        return out

    def check(self, results) -> list:
        out = []
        for key, rec in results.items():
            kind, name = key[0], key[1]
            problems = []
            if kind in ("tensor", "exterior"):
                problems = self._check_square(kind, name, rec)
            elif kind == "trivial":
                inv = rec["invariants"]
                problems = checks.check_abelian_tensor(
                    checks.abelian_factors(name), checks.abelian_factors(key[2]),
                    inv.free_rank, inv.invariant_factors,
                )
                if rec["order"] != checks.gcd_tensor_order(
                        checks.abelian_factors(name), checks.abelian_factors(key[2])):
                    problems.append(f"order {rec['order']}")
            elif kind == "peiffer":
                n = checks.group_order(name)
                want = n * (n // checks.derived_order(name))
                if rec.order != want:
                    problems = [f"Peiffer square order {rec.order}, expected {want}"]
            elif kind == "felsch":
                hlt = results.get(("tensor", name))
                if hlt is None:
                    continue  # the HLT square failed and is counted already
                problems = checks.check_same_table(
                    _table(hlt["t"].realization), _table(rec.realization)
                )
            out += [f"{' '.join(key)}: {p}" for p in problems]
        return out

    def _check_square(self, kind, name, rec) -> list:
        t = rec["t"]
        mul = t.realization.mul.tolist()
        derived = checks.derived_order(name)
        problems = []
        if kind == "tensor":
            if name in checks.BJR_TENSOR_ORDER:
                want = checks.BJR_TENSOR_ORDER[name]
            else:
                factors = checks.abelian_factors(name)
                want = checks.gcd_tensor_order(factors, factors)
                inv = rec["invariants"]
                problems += checks.check_abelian_tensor(
                    factors, factors, inv.free_rank, inv.invariant_factors
                )
        else:
            want = derived * checks.schur_order(name)
        if t.order != want:
            problems.append(f"order {t.order}, expected {want}")
        problems += checks.check_central_subgroup(mul, rec["j2"], t.order // derived)
        problems += checks.check_crossed_module(mul, rec["kappa"], rec["acted"])
        return problems


def _trivial_record(t) -> dict:
    return {"order": t.order, "invariants": t.realization.abelian_invariants()}


def _table(r):
    return checks.coset_table(r.mul.tolist(), r.generator_map)


class RepWords:
    """Seeded words in the free packages, then the commutator sweep."""

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.words = {
            rank: _reduced_words(rng, rank, WORDS_PER_PACKAGE, MAX_WORD_LENGTH)
            for rank in (2, 3)
        }
        self.points = {
            (n, c): {
                f"t{i}_{j}": rng.randint(2, 9)
                for i in range(1, n + 1) for j in range(1, c + 2)
            }
            for n, c in SWEEP
        }

    def jobs(self):
        out = [
            (("words", "sanov_f2"), lambda: self._words(reps.sanov_f2(), self.words[2])),
            (("words", "free_embedding(3)"),
             lambda: self._words(reps.free_embedding(3), self.words[3])),
        ]
        for n, c in SWEEP:
            out.append((("sweep", n, c), lambda n=n, c=c: self._sweep(n, c)))
        return out

    @staticmethod
    def _words(pkg, words) -> list:
        out = []
        for w in words:
            m = pkg.evaluate(w)
            out.append((m, m.is_identity()))
        return out

    @staticmethod
    def _sweep(n, c) -> dict:
        pkg = reps.unitriangular_nilpotent_rep(n, c)
        weights = (c + 2, c + 1) if n >= 2 else (c + 2,)
        out = []
        for weight in weights:
            for combo in itertools.product(range(n), repeat=weight):
                m = reps.left_normed_commutator([pkg.generators[i] for i in combo])
                out.append((combo, m, m.is_identity()))
        return {"variables": pkg.ring.variables, "commutators": out}

    def check(self, results) -> list:
        out = []
        for key, rec in results.items():
            if key[0] == "words":
                rank = 2 if key[1] == "sanov_f2" else 3
                gens = ([checks.SANOV_A, checks.SANOV_B] if rank == 2
                        else checks.free_embedding_matrices(3))
                problems = _check_words(gens, self.words[rank], rec)
            else:
                problems = self._check_sweep(key[1], key[2], rec)
            out += [f"{' '.join(map(str, key))}: {p}" for p in problems]
        return out

    def _check_sweep(self, n, c, rec) -> list:
        values = self.points[(n, c)]
        gens = checks.unitriangular_generators(n, c, values)
        point = tuple(values[v] for v in rec["variables"])
        problems = []
        witness = False
        for combo, m, verdict in rec["commutators"]:
            entries = _entry_terms(m)
            problems += checks.check_matrix_at(
                entries, point, checks.left_normed_commutator([gens[i] for i in combo])
            )
            identity = checks.is_identity_terms(entries)
            if verdict != identity:
                problems.append(f"is_identity() = {verdict} for {combo}")
            if len(combo) == c + 2 and not identity:
                problems.append(f"weight {c + 2} commutator {combo} is not 1")
            witness = witness or (len(combo) == c + 1 and not identity)
        if n >= 2 and not witness:
            problems.append(f"no weight {c + 1} commutator is nontrivial")
        return problems


def _reduced_words(rng, rank, count, max_len) -> list:
    words = []
    for _ in range(count):
        word = []
        for _ in range(rng.randint(1, max_len)):
            while True:
                letter = (rng.randrange(rank), rng.choice((1, -1)))
                if not word or word[-1] != (letter[0], -letter[1]):
                    break
            word.append(letter)
        words.append(tuple(word))
    return words


def _entry_terms(m) -> list:
    return [[m.entry(i, j).terms for j in range(m.dimension)] for i in range(m.dimension)]


def _check_words(gens, words, rec) -> list:
    one = checks.identity(2)
    for w, (m, verdict) in zip(words, rec):
        expected = checks.evaluate_word(gens, w)
        problems = checks.check_matrix_at(_entry_terms(m), (), expected)
        if expected == one:
            problems.append("a reduced word is the identity (Sanov)")
        if verdict:
            problems.append("is_identity() holds for a reduced word")
        if problems:
            return [f"word {w}: {p}" for p in problems]
    return []


WORKLOADS = {
    "a5-squares": A5Squares,
    "catalog-products": CatalogProducts,
    "rep-words": RepWords,
}
