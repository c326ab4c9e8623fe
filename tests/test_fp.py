import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sympy.combinatorics.fp_groups import FpGroup as SympyFpGroup
from sympy.combinatorics.free_groups import free_group as sympy_free_group

from grouptensor import _engine
from grouptensor import fp as fp_module
from grouptensor.actions import GroupAction, conjugation_pair
from grouptensor.catalog import CATALOG_ORDERS, catalog_group, catalog_presentation
from grouptensor.errors import BudgetExceeded, EnumerationCancelled, ParseError
from grouptensor.fp import (
    DEFAULT_BUDGET,
    DEFAULT_MAX_BYTES,
    FpPresentation,
    FiniteGroupRealization,
    _pad_codes,
    coset_enumerate,
    cyclic_reduce,
    format_word,
    free_reduce,
    invert_word,
    parse_presentation,
    parse_word,
    realize,
    word_power,
)
from grouptensor.abelian import FinGenAbelian, parse_abelian
from grouptensor.simplify import tietze_reduce
from grouptensor.tensor import tensor_presentation, tensor_square

S3_TEXT = "< a, b | a^2, b^2, (a b)^3 >"
B3_TEXT = "< s1, s2 | s1 s2 s1 (s2 s1 s2)^-1 >"
PURE_BRAID3 = ("s1^2", "s2^2", "s2 s1^2 s2^-1")


# ------------------------------------------------------------------ words


def test_free_reduce():
    assert free_reduce([(0, 1), (0, -1)]) == ()
    assert free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)]) == ((0, 1), (0, 1))
    assert free_reduce([]) == ()


def test_invert_and_power():
    w = ((0, 1), (1, -1))
    assert invert_word(w) == ((1, 1), (0, -1))
    assert free_reduce(w + invert_word(w)) == ()
    assert word_power(((0, 1),), 3) == ((0, 1),) * 3
    assert word_power(((0, 1),), -2) == ((0, -1), (0, -1))
    assert word_power(w, 0) == ()


def test_cyclic_reduce():
    # b^-1 a b is cyclically the relator a
    assert cyclic_reduce(((1, -1), (0, 1), (1, 1))) == ((0, 1),)
    assert cyclic_reduce(((0, 1), (0, 1))) == ((0, 1), (0, 1))


letters = st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])), max_size=20)


@settings(max_examples=150, deadline=None)
@given(letters)
def test_free_reduce_properties(ls):
    w = free_reduce(ls)
    assert free_reduce(w) == w
    assert free_reduce(list(w) + list(invert_word(w))) == ()


@settings(max_examples=100, deadline=None)
@given(letters, st.integers(0, 3))
def test_cyclic_reduce_conjugation_invariant(ls, g):
    w = free_reduce(ls)
    conj = free_reduce(((g, -1),) + w + ((g, 1),))
    core = cyclic_reduce(w)
    got = cyclic_reduce(conj)
    rotations = {core[i:] + core[:i] for i in range(max(len(core), 1))}
    assert got in rotations
    # a cyclically reduced word starts and ends without cancellation
    if len(core) >= 2:
        assert not (core[0][0] == core[-1][0] and core[0][1] == -core[-1][1])


# ------------------------------------------------------------ word arrays


def _free_reduce_rows_by_loop(rows):
    """Reference: every row through the column-by-column stack."""
    count, width = rows.shape
    idx = np.arange(count)
    stack = np.full((count, width), -1, dtype=np.int32)
    top = np.zeros(count, dtype=np.intp)
    for j in range(width):
        c = rows[:, j]
        cancel = (c >= 0) & (top > 0) & (stack[idx, top - 1] == (c ^ 1))
        push = (c >= 0) & ~cancel
        top[cancel] -= 1
        stack[idx[push], top[push]] = c[push]
        top[push] += 1
    stack = np.ascontiguousarray(stack[:, : top.max(initial=0)])
    stack[np.arange(stack.shape[1]) >= top[:, None]] = -1
    return stack


def _cyclic_reduce_rows_by_loop(rows):
    """Reference: every row through the strip loop and the realignment gather."""
    count, width = rows.shape
    lo = np.zeros(count, dtype=np.intp)
    hi = (rows >= 0).sum(axis=1)
    while True:
        strip = np.flatnonzero(hi - lo >= 2)
        strip = strip[rows[strip, lo[strip]] == (rows[strip, hi[strip] - 1] ^ 1)]
        if not strip.size:
            break
        lo[strip] += 1
        hi[strip] -= 1
    length = hi - lo
    cols = np.arange(length.max(initial=0))
    out = rows[np.arange(count)[:, None], np.minimum(lo[:, None] + cols, width - 1)]
    out[cols >= length[:, None]] = -1
    return out


def _cyclic_class_firsts_by_loop(rows):
    """Reference: every row keyed, exact duplicates included."""
    if not len(rows):
        return np.zeros(0, dtype=np.intp)
    idx = np.arange(len(rows))
    key = rows.copy()
    for rotated in fp_module._conjugate_rows(rows):
        differ = rotated != key
        first = differ.argmax(axis=1)
        less = differ.any(axis=1) & (rotated[idx, first] < key[idx, first])
        key[less] = rotated[less]
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    return np.sort(order[first])


@st.composite
def _mixed_rows(draw):
    """Code rows over 3 generators with -1 anywhere, some of them replaced
    by their freely reduced, left-aligned form."""
    width = draw(st.integers(0, 8))
    raw = draw(st.lists(st.lists(st.integers(-1, 5), min_size=width, max_size=width), max_size=20))
    rows = np.array(raw, dtype=np.int32).reshape(len(raw), width)
    reduced = _free_reduce_rows_by_loop(rows)
    done = np.array(draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))), dtype=bool)
    rows[done] = -1
    rows[done, : reduced.shape[1]] = reduced[done]
    return rows


short_letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=4)


@st.composite
def _reduced_rows(draw):
    """Freely reduced, left-aligned rows: some of _mixed_rows, and conjugates
    u w u^-1, which take up to len(u) strip rounds."""
    words = draw(st.lists(st.tuples(short_letters, short_letters), max_size=12))
    conjugates = _pad_codes([free_reduce((*u, *w, *invert_word(u))) for u, w in words], 3)
    return fp_module._stack_rows(_free_reduce_rows_by_loop(draw(_mixed_rows())), conjugates)


def _assert_same_rows(got, want):
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(_mixed_rows())
@example(np.zeros((3, 0), dtype=np.int32))
@example(np.full((4, 1), -1, dtype=np.int32))
@example(np.array([[-1, -1, -1], [0, 1, -1], [-1, 2, -1], [4, -1, 5], [2, 4, 6]], dtype=np.int32))
# no row needs the stack, and the last column is all padding
@example(np.array([[0, 2, 0, -1], [3, -1, -1, -1], [-1, -1, -1, -1]], dtype=np.int32))
def test_free_reduce_rows_match_loop(rows):
    _assert_same_rows(fp_module._reduce_rows(rows), _free_reduce_rows_by_loop(rows))


@settings(max_examples=200, deadline=None)
@given(_reduced_rows())
@example(np.zeros((3, 0), dtype=np.int32))
@example(np.array([[1], [-1], [4]], dtype=np.int32))
@example(np.array([[0, 2, 4, 3, 1], [0, 2, 5, 3, 1], [2, 4, 3, -1, -1], [-1, -1, -1, -1, -1]], dtype=np.int32))
def test_cyclic_reduce_rows_match_loop(rows):
    _assert_same_rows(fp_module._reduce_rows(rows, cyclic=True), _cyclic_reduce_rows_by_loop(rows))


@settings(max_examples=200, deadline=None)
@given(_mixed_rows())
@example(np.zeros((3, 0), dtype=np.int32))
@example(np.full((4, 3), -1, dtype=np.int32))
# cancels to the empty row, and gapped rows whose ends cancel only once aligned
@example(np.array([[1, 2, 3, 0]], dtype=np.int32))
@example(np.array([[0, -1, 2, 1]], dtype=np.int32))
def test_reduce_rows_free_and_cyclic_match_loops(rows):
    # Rows that are not yet freely reduced or left aligned reduce both ways at once.
    want = _cyclic_reduce_rows_by_loop(_free_reduce_rows_by_loop(rows))
    _assert_same_rows(fp_module._reduce_rows(rows, cyclic=True), want)


def _first_occurrences_by_lexsort(rows):
    """Reference: one stable lexsort over the columns (width >= 1)."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep row order
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[first])


# Codes near 2**14 make the base 2**14 + 1, so five or more columns pass
# 2**62 and force the dense rank.
WIDE_CODE = 2**14 - 1


@st.composite
def _rows_with_duplicates(draw):
    """Rows with entries >= -1 and many exact duplicates, some with codes near 2**14."""
    width = draw(st.integers(0, 8))
    if draw(st.booleans()):
        values = st.integers(-1, 3)
    else:
        values = st.sampled_from([-1, WIDE_CODE - 2, WIDE_CODE - 1, WIDE_CODE])
    raw = draw(st.lists(st.lists(values, min_size=width, max_size=width), max_size=20))
    picks = draw(st.lists(st.integers(0, 10**6), max_size=20 if raw else 0))
    raw += [raw[k % len(raw)] for k in picks]
    return np.array(raw, dtype=np.int32).reshape(len(raw), width)


def _assert_keys_match_rows(rows):
    keys = fp_module._row_keys(rows)
    assert keys.dtype == np.int64 and keys.shape == (len(rows),)
    same = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
    assert np.array_equal(keys[:, None] == keys[None, :], same)
    # the rank of each key among the distinct keys is that of its row in np.unique(axis=0)
    distinct, rank = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(np.unique(keys, return_inverse=True)[1].ravel(), rank.ravel())
    assert np.array_equal(fp_module._distinct_rows(rows), distinct)


@settings(max_examples=300, deadline=None)
@given(_rows_with_duplicates())
@example(np.zeros((0, 3), dtype=np.int32))
@example(np.zeros((0, 0), dtype=np.int32))
@example(np.zeros((4, 0), dtype=np.int32))
@example(np.array([[2], [-1], [0], [2], [-1]], dtype=np.int32))
def test_row_keys_order_rows(rows):
    _assert_keys_match_rows(rows)
    got = fp_module._first_occurrences(rows)
    want = _first_occurrences_by_lexsort(rows) if rows.shape[1] else np.arange(min(len(rows), 1))
    assert np.array_equal(got, want)


def test_row_keys_dense_rank_on_wide_rows():
    rng = np.random.default_rng(7)
    rows = rng.choice([-1, WIDE_CODE - 1, WIDE_CODE], size=(200, 9)).astype(np.int32)
    rows = np.concatenate([rows, rows[rng.integers(0, 200, 100)]])
    # without the rank the 9 columns would need (2**14 + 1)**9 > 2**126
    assert (WIDE_CODE + 2) ** rows.shape[1] > 2**62
    _assert_keys_match_rows(rows)
    assert np.array_equal(fp_module._first_occurrences(rows), _first_occurrences_by_lexsort(rows))


# The np.unique versions of the row dedupe that `_key_runs` replaced,
# kept as oracles: np.unique sorts with a stable argsort.


def _row_keys_by_unique(rows):
    """Reference: `_row_keys` below its digit split, re-ranking by np.unique."""
    base = int(rows.max(initial=-1)) + 2
    limit = (1 << 62) // max(len(rows), 1)
    key = np.zeros(len(rows), dtype=np.int64)
    bound = 1
    for j in range(rows.shape[1]):
        if bound * base > limit:
            distinct, rank = np.unique(key, return_inverse=True)
            key, bound = rank.astype(np.int64, copy=False), len(distinct)
        key *= base
        key += rows[:, j]
        key += 1
        bound *= base
    return key


def _first_occurrences_by_unique(rows, block):
    key = _row_keys_by_unique(rows)
    firsts = [np.unique(key[k : k + block], return_index=True)[1] + k for k in range(0, len(key), block)]
    firsts = np.sort(np.concatenate([np.zeros(0, dtype=np.intp), *firsts]))
    return firsts.take(np.sort(np.unique(key.take(firsts), return_index=True)[1]))


def _distinct_rows_by_unique(rows):
    return rows.take(np.unique(_row_keys_by_unique(rows), return_index=True)[1], axis=0)


@st.composite
def _padded_rows(draw):
    """Left-aligned, -1-padded rows with many duplicates: codes below 4,
    or codes near 2**14 in up to 12 columns, so that `_row_keys` re-ranks
    after its fourth column."""
    wide = draw(st.booleans())
    width = draw(st.integers(0, 12 if wide else 5))
    codes = st.sampled_from([WIDE_CODE - 2, WIDE_CODE - 1, WIDE_CODE]) if wide else st.integers(0, 3)
    words = draw(st.lists(st.lists(codes, max_size=width), max_size=12))
    picks = draw(st.lists(st.integers(0, 10**6), max_size=30 if words else 0))
    words += [words[k % len(words)] for k in picks]
    rows = np.full((len(words), width), -1, dtype=np.int32)
    for row, word in zip(rows, words):
        row[: len(word)] = word
    return rows


@settings(max_examples=300, deadline=None)
@given(_padded_rows(), st.integers(1, 8))
@example(np.zeros((0, 0), dtype=np.int32), 1)
@example(np.zeros((0, 4), dtype=np.int32), 3)
@example(np.zeros((9, 0), dtype=np.int32), 2)
@example(np.full((11, 3), -1, dtype=np.int32), 4)
@example(np.full((13, 12), WIDE_CODE, dtype=np.int32), 5)
@example(np.tile(np.array([[WIDE_CODE] * 11 + [-1], [WIDE_CODE] * 12], dtype=np.int32), (9, 1)), 4)
def test_row_dedupe_matches_np_unique(rows, block):
    # Zero-width rows and all-equal rows have one key; the wide examples
    # re-rank, and every draw with more than `block` rows spans blocks.
    keys = fp_module._row_keys(rows)
    assert keys.dtype == np.int64 and np.array_equal(keys, _row_keys_by_unique(rows))
    _assert_same_rows(fp_module._distinct_rows(rows), _distinct_rows_by_unique(rows))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_engine, "VERIFY_BLOCK", block)
        got = fp_module._first_occurrences(rows)
    want = _first_occurrences_by_unique(rows, block)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_row_keys_stay_below_the_packing_limit():
    # `_key_runs` packs key * len(rows) + index into an int64, so every key
    # must stay below 2**62 // len(rows), also on rows that re-rank.
    rng = np.random.default_rng(5)
    for count, width, top in [(40, 30, WIDE_CODE), (3_000, 12, 2**20), (60_000, 4, 2**24)]:
        rows = rng.integers(top - 4, top + 1, size=(count, width)).astype(np.int32)
        rows[rng.integers(0, count, count // 3), rng.integers(1, width, count // 3)] = -1
        assert (top + 2) ** width > 2**62 // count
        keys = fp_module._row_keys(rows)
        assert keys.min() >= 0 and keys.max() < 2**62 // count


def test_row_keys_split_codes_too_wide_for_a_dense_rank():
    # With 70,000 rows of codes near 2**31, the dense rank of the first
    # two columns times 2**31 passes 2**62 // len(rows), so a whole code
    # cannot be mixed in after any rank: the codes are keyed as digits.
    rng = np.random.default_rng(9)
    values = np.array([-1, 0, 1, 2**29, 2**30 - 1, 2**30, 2**31 - 3, 2**31 - 2])
    pool = rng.choice(values, size=(50_000, 3)).astype(np.int32)
    pool[:, 1] = rng.integers(-1, 2**31 - 1, 50_000)
    rows = pool[rng.integers(0, len(pool), 70_000)]
    assert len(np.unique(rows[:, :2], axis=0)) * 2**31 > 2**62 // len(rows)
    keys = fp_module._row_keys(rows)
    assert keys.min() >= 0 and keys.max() < 2**62 // len(rows)
    distinct, rank = np.unique(rows, axis=0, return_inverse=True)
    assert np.array_equal(np.unique(keys, return_inverse=True)[1].ravel(), rank.ravel())
    _assert_same_rows(fp_module._distinct_rows(rows), distinct)
    assert np.array_equal(fp_module._first_occurrences(rows), _first_occurrences_by_lexsort(rows))


def test_first_occurrences_across_sort_blocks():
    # Keys are sorted VERIFY_BLOCK at a time: rows repeat across blocks,
    # and some distinct rows appear first in the second or last block.
    rng = np.random.default_rng(11)
    rows = rng.integers(-1, 40, size=(2 * _engine.VERIFY_BLOCK + 123, 3)).astype(np.int32)
    assert len(np.unique(rows, axis=0)) > len(np.unique(rows[: _engine.VERIFY_BLOCK], axis=0))
    assert np.array_equal(fp_module._first_occurrences(rows), _first_occurrences_by_lexsort(rows))


@pytest.mark.parametrize(
    "width, dtype", [(0, np.int8), (127, np.int8), (128, np.int16), (32_767, np.int16), (32_768, np.intp)]
)
def test_row_lengths_take_the_narrowest_dtype(width, dtype):
    rows = np.full((3, width), -1, dtype=np.int32)
    rows[1] = 0
    rows[2, : width // 2] = 5
    length = _engine._row_lengths(rows)
    assert length.dtype == dtype
    assert length.tolist() == [0, width, width // 2]


@settings(max_examples=200, deadline=None)
@given(_reduced_rows(), st.lists(st.integers(0, 10**6), max_size=60))
@example(np.array([[0, 2, 4]], dtype=np.int32), [0] * 5)
def test_cyclic_class_firsts_match_loop(rows, picks):
    # Rows picked with repeats give many exact duplicates.
    rows = _cyclic_reduce_rows_by_loop(rows)
    rows = rows[(rows >= 0).any(axis=1)]
    if len(rows):
        rows = np.concatenate([rows, rows[np.array(picks, dtype=np.intp) % len(rows)]])
    got, want = fp_module._cyclic_class_firsts(rows), _cyclic_class_firsts_by_loop(rows)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


# ----------------------------------------------------------------- parser


def test_parse_basic_presentation():
    p = parse_presentation(S3_TEXT)
    assert p.generator_names == ("a", "b")
    assert p.relators == (
        ((0, 1), (0, 1)),
        ((1, 1), (1, 1)),
        ((0, 1), (1, 1)) * 3,
    )


def test_parse_equals_sugar():
    p = parse_presentation("< x, y | x y = y x >")
    assert p.relators == (((0, 1), (1, 1), (0, -1), (1, -1)),)
    chain = parse_presentation("< x | x^2 = x^4 = 1 >")
    assert chain.relators == (((0, -1), (0, -1)), ((0, 1),) * 4)


def test_parse_exponents_and_parens():
    p = parse_presentation("< a, b | (a b^-1)^2, a^-3 >")
    assert p.relators[0] == ((0, 1), (1, -1), (0, 1), (1, -1))
    assert p.relators[1] == ((0, -1),) * 3


def test_parse_free_group():
    assert parse_presentation("< a, b | >").relators == ()
    assert parse_presentation("< a, b >").relators == ()
    assert parse_presentation("<|>").generator_names == ()


def test_parse_identity_and_star():
    p = parse_presentation("< a | a * a, 1 >")
    assert p.relators == (((0, 1), (0, 1)), ())


def test_parse_errors():
    with pytest.raises(ParseError) as ei:
        parse_presentation("< a | b >")
    assert ei.value.position == 6
    with pytest.raises(ParseError):
        parse_presentation("< a | a^ >")
    with pytest.raises(ParseError):
        parse_presentation("< a, a | >")
    with pytest.raises(ParseError):
        parse_presentation("< a | a > junk")
    with pytest.raises(ParseError):
        parse_presentation("< a | (a >")
    with pytest.raises(ParseError):
        parse_word("a$", ["a"])


def test_parse_word_roundtrip():
    names = ("s1", "s2")
    for text in PURE_BRAID3:
        w = parse_word(text, names)
        assert parse_word(format_word(w, names), names) == w


def test_presentation_format_roundtrip():
    for text in (S3_TEXT, B3_TEXT, "< a | >", "< a | a^2 >"):
        p = parse_presentation(text)
        assert parse_presentation(p.format()) == p


def test_presentation_validation():
    with pytest.raises(ValueError):
        FpPresentation(("a", "a"), ())
    with pytest.raises(ValueError):
        FpPresentation(("1bad",), ())
    with pytest.raises(ValueError):
        FpPresentation(("a",), (((1, 1),),))
    for sign in (0, 2):
        with pytest.raises(ValueError):
            FpPresentation(("a",), (((0, sign),),))
    # generator -1 with sign -1 would encode as the padding code -1
    with pytest.raises(ValueError):
        FpPresentation(("a",), (((0, 1), (-1, -1)),))
    for code in (2, -2):
        with pytest.raises(ValueError):
            FpPresentation(("a",), np.array([[0, code]]))
    # relators are stored freely reduced
    p = FpPresentation(("a",), (((0, 1), (0, -1), (0, 1)),))
    assert p.relators == (((0, 1),),)


def _code_array(words, pad: int) -> np.ndarray:
    """Letter codes of words, one row each, with `pad` extra -1 columns."""
    width = max(map(len, words), default=0) + pad
    rows = [[2 * g + (s < 0) for g, s in w] + [-1] * (width - len(w)) for w in words]
    return np.array(rows, dtype=np.int64).reshape(len(words), width)


word_lists = st.lists(
    st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1, -1])), max_size=8), max_size=6
)


@settings(max_examples=100, deadline=None)
@given(word_lists, word_lists, st.integers(0, 2))
@example([], [], 0)
@example([[], []], [[]], 1)
def test_word_and_code_input_agree(words, extra, pad):
    names = ("a", "b", "c")
    by_words = FpPresentation(names, tuple(map(tuple, words)))
    by_codes = FpPresentation(names, _code_array(words, pad))
    assert by_words.relators == tuple(free_reduce(w) for w in words)
    pairs = [(by_words, by_codes)]
    pairs.append((by_words.with_extra_relators(extra), by_codes.with_extra_relators(_code_array(extra, pad))))
    for p, q in pairs:
        assert p == q
        assert hash(p) == hash(q)
        assert p.relators == q.relators
        assert p.format() == q.format()
        assert p.abelianization() == q.abelianization()
    assert pairs[1][0].relators == by_words.relators + tuple(free_reduce(w) for w in extra)


def test_word_view_and_exponent_matrix_memory_guards():
    # 2^21 relators a: the words would need more than DEFAULT_MAX_BYTES
    p = FpPresentation(("a",), np.zeros((1 << 21, 1), dtype=np.int32))
    assert coset_enumerate(p).num_cosets == 1
    with pytest.raises(BudgetExceeded, match="words of"):
        p.relators
    # a 9000 x 4096 exponent matrix would too
    wide = FpPresentation(tuple(f"x{i}" for i in range(4096)), np.zeros((9000, 1), dtype=np.int32))
    with pytest.raises(BudgetExceeded, match="exponent matrix"):
        wide.abelianization()


@pytest.mark.parametrize("text", ["< a | a^1000000000 >", "< a, b | (a b)^1000000000 >"])
def test_parse_refuses_a_long_power_before_expanding_it(text):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="parse of"):
            parse_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parse_counts_nested_powers_and_all_relators(monkeypatch):
    with pytest.raises(BudgetExceeded, match="parse of 1000000000 letters"):
        parse_presentation("< a | ((a^1000)^1000)^1000 >")
    # a cap of 150 letters: each relator fits, their sum does not
    monkeypatch.setattr(fp_module, "DEFAULT_MAX_BYTES", 150 * fp_module._PARSE_LETTER_BYTES)
    assert len(parse_presentation("< a, b | a^100 = b^50 >").relators[0]) == 150
    for text in ("< a, b | a^100 = b^51 >", "< a, b | a^100 (b^51) >"):
        with pytest.raises(BudgetExceeded, match="parse of 151 letters"):
            parse_presentation(text)
    with pytest.raises(BudgetExceeded, match="parse of 180 letters"):
        parse_presentation("< a, b | a^60, b^60, (a b^-1)^30 >")
    with pytest.raises(BudgetExceeded, match="parse of 161 letters"):
        parse_presentation("< a, b | a^60, b (a^50)^2 >")
    assert parse_presentation("< a | a^60, (a a^-1)^1000000 >").relators == (((0, 1),) * 60, ())


# --------------------------------------------------------- abelianization


def test_abelianization():
    assert FpPresentation(("a", "b", "c"), ()).abelianization() == FinGenAbelian(3, ())
    assert parse_presentation("< a | a^2 >").abelianization() == parse_abelian("Z_2")
    assert parse_presentation(B3_TEXT).abelianization() == parse_abelian("Z")
    assert parse_presentation(S3_TEXT).abelianization() == parse_abelian("Z_2")
    d4 = catalog_group("D4")
    p = tensor_presentation(conjugation_pair(d4))
    tracemalloc.start()
    try:
        got = p.abelianization()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == tensor_square(d4).realization.abelian_invariants() == parse_abelian("Z_2 x Z_2 x Z_2 x Z_4")
    assert peak < 8_000_000


# ------------------------------------------------------------ enumeration


def _s3_permutation_oracle():
    """Order of S3 by brute-force closure of two transpositions."""
    a = (1, 0, 2)
    b = (0, 2, 1)
    seen = {(0, 1, 2)}
    frontier = [(0, 1, 2)]
    while frontier:
        p = frontier.pop()
        for q in (a, b):
            r = tuple(q[p[i]] for i in range(3))
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return len(seen)


def test_enumerate_cyclic():
    assert coset_enumerate(parse_presentation("< a | a^6 >")).num_cosets == 6


def test_enumerate_s3_matches_permutation_oracle():
    assert coset_enumerate(parse_presentation(S3_TEXT)).num_cosets == _s3_permutation_oracle()


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
def test_enumerate_pure_braid_index(strategy):
    ct = coset_enumerate(parse_presentation(B3_TEXT), PURE_BRAID3, strategy=strategy)
    assert ct.num_cosets == 6


def test_strategies_give_identical_tables():
    for text, sub in [
        (S3_TEXT, ()),
        (S3_TEXT, ("a b",)),
        (B3_TEXT, PURE_BRAID3),
        ("< a, b | a^2, b^3, (a b)^5 >", ()),
        ("< a, b | a^2, b^3, (a b)^5 >", ("b",)),
        ("< r, s | r^4, s^2, (r s)^2 >", ()),
    ]:
        p = parse_presentation(text)
        hlt = coset_enumerate(p, sub, strategy="hlt")
        felsch = coset_enumerate(p, sub, strategy="felsch")
        assert hlt == felsch
        assert np.array_equal(hlt.table, felsch.table)


def test_enumeration_deterministic():
    p = parse_presentation(S3_TEXT)
    t1 = coset_enumerate(p)
    t2 = coset_enumerate(p)
    assert np.array_equal(t1.table, t2.table)


def test_relators_hold_on_every_coset():
    p = parse_presentation(S3_TEXT)
    ct = coset_enumerate(p)
    for w in p.relators:
        for c in range(ct.num_cosets):
            assert ct.trace(c, w) == c
    for g in range(p.num_generators):
        perm = ct.permutation(g)
        assert sorted(perm) == list(range(ct.num_cosets))


def test_subgroup_generators_fix_coset_zero():
    p = parse_presentation(B3_TEXT)
    ct = coset_enumerate(p, PURE_BRAID3)
    for text in PURE_BRAID3:
        assert ct.trace(0, parse_word(text, p.generator_names)) == 0


def test_budget_exceeded_infinite_group():
    p = parse_presentation(B3_TEXT)
    for strategy in ("hlt", "felsch"):
        with pytest.raises(BudgetExceeded) as ei:
            coset_enumerate(p, strategy=strategy, budget=4000)
        assert ei.value.defined == 4000
        assert ei.value.budget == 4000
        # the budget is checked before the room for a new row
        assert "without closing" in str(ei.value)


def test_budget_validation():
    p = parse_presentation(S3_TEXT)
    with pytest.raises(ValueError):
        coset_enumerate(p, budget=0)
    with pytest.raises(ValueError):
        coset_enumerate(p, strategy="magic")


def test_memory_cap():
    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    with pytest.raises(BudgetExceeded):
        coset_enumerate(p, max_bytes=512)
    # a tight cap that still fits must succeed and agree with the default
    tight = coset_enumerate(p, max_bytes=80 * 24)
    assert np.array_equal(tight.table, coset_enumerate(p).table)


@pytest.mark.parametrize("n", [125, 126, 127, 128])
def test_relators_at_the_row_length_dtype_bounds(n):
    # b a^n b^-1 is n + 2 letters wide and cyclically reduces to a^n, so
    # the row counts of both widths are int8 and int16 on either side of 127.
    p = parse_presentation(f"< a, b | b a^{n} b^-1, b >")
    hlt, felsch = (coset_enumerate(p, strategy=s).table for s in ("hlt", "felsch"))
    assert hlt.shape == (n, 4)
    assert np.array_equal(hlt, felsch)
    q, _ = tietze_reduce(p)
    assert q.generator_names == ("a",) and list(map(len, q.relators)) == [n]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_felsch_conjugate_guard():
    # The 6,000 conjugates of a^3000 are estimated at about 290 MB;
    # Felsch refuses them before they exist.
    p = parse_presentation("< a | a^3000 >")

    def run():
        with pytest.raises(BudgetExceeded, match="cyclic conjugates"):
            coset_enumerate(p, strategy="felsch", max_bytes=1_000_000)

    assert _traced_peak(run) < 1_000_000


def test_realize_table_guard():
    # 1,024 cosets fit the cap, but their 1,024 x 1,024 table does not.
    p = parse_presentation("< a, b | a^32, b^32, a b a^-1 b^-1 >")

    def run():
        with pytest.raises(BudgetExceeded, match="multiplication table"):
            realize(p, max_bytes=1_000_000)

    assert _traced_peak(run) < 1_000_000
    assert realize(p, max_bytes=1_000_000 * 16).order == 1024


def test_cancellation():
    flag = np.ones(1, dtype=np.int64)
    with pytest.raises(EnumerationCancelled):
        coset_enumerate(parse_presentation(B3_TEXT), cancel=flag)


def _reduced_d4_tensor():
    return tietze_reduce(tensor_presentation(conjugation_pair(catalog_group("D4"))))[0]


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
@pytest.mark.parametrize(
    "presentation, subgroup",
    [
        (_reduced_d4_tensor, ()),
        (_reduced_d4_tensor, [((0, 1), (1, 1))]),
        (lambda: parse_presentation("< a | a^6 >"), ()),
        (lambda: parse_presentation("< a | a^6 >"), ["a^2"]),
        (lambda: parse_presentation(B3_TEXT), PURE_BRAID3),
    ],
    ids=["d4-tensor", "d4-tensor-subgroup", "z6", "z6-subgroup", "b3-subgroup"],
)
def test_cancel_flag_set_before_the_run_stops_the_first_kernel_call(presentation, subgroup, strategy):
    # Without the flag each of these runs closes in its first call of
    # _run_hlt or _run_felsch; with it set, that call returns
    # STATUS_CANCELLED.
    p = presentation()
    name = "_run_hlt" if strategy == "hlt" else "_run_felsch"
    kernel, statuses = getattr(_engine, name), []

    def logged(*args):
        statuses.append(kernel(*args))
        return statuses[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, name, logged)
        with pytest.raises(EnumerationCancelled):
            coset_enumerate(p, subgroup, strategy=strategy, cancel=np.ones(1, dtype=np.int64))
    assert statuses == [_engine.STATUS_CANCELLED]


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
@pytest.mark.parametrize("n", [1, 10, 500])
def test_cancel_flag_set_mid_run_stops_within_one_coset_pass(strategy, n):
    # B3 is infinite, so only the flag ends the run before the budget.
    # After the n-th definition sets it, at most the rest of that coset's
    # missing entries (fewer than its 2 x 2 columns) are defined.
    cancel = np.zeros(1, dtype=np.int64)
    define, defined = _engine._define, []

    def counted(*args):
        st = define(*args)
        if st == _engine.STATUS_OK:
            defined.append(args[4])
            if len(defined) == n:
                cancel[0] = 1
        return st

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_define", counted)
        with pytest.raises(EnumerationCancelled):
            coset_enumerate(parse_presentation(B3_TEXT), strategy=strategy, cancel=cancel)
    assert n <= len(defined) < n + 4
    assert set(defined[n - 1 :]) == {defined[n - 1]}


def test_felsch_deduction_overflow_sweep():
    for text in (S3_TEXT, "< a, b | a^2, b^3, (a b)^5 >"):
        p = parse_presentation(text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fp_module, "_DSTACK_SIZE", 4)
            small = coset_enumerate(p, strategy="felsch")
        assert np.array_equal(small.table, coset_enumerate(p, strategy="felsch").table)


def _enumerated_rows(p: FpPresentation) -> np.ndarray:
    """The relator rows coset_enumerate scans: the stored rows cyclically
    reduced, without the empty ones."""
    rows = fp_module._reduce_rows(p.codes, cyclic=True)
    return np.compress(_engine._row_lengths(rows) > 0, rows, axis=0)


# (text, subgroup, rows): Felsch on a table of that many rows fills it
# during the second subgroup-word scan, with deductions pending and a
# coset already dead.
FELSCH_PENDING = [
    ("< a, b | a^2, b^3, (a b)^5 >", ("b^2 a b", "a b a b^-1"), 5),
    ("< a, b | a^4, a^2 b^-2, b^-1 a b a >", ("a b a b a b^-1 a b^-1", "a b^-1 a b"), 9),
]


@pytest.mark.parametrize("text, subgroup, rows", FELSCH_PENDING)
def test_felsch_compaction_drops_pending_deductions_for_the_sweep(text, subgroup, rows):
    p = parse_presentation(text)
    sub = [parse_word(w, p.generator_names) for w in subgroup]
    ncols = 2 * p.num_generators
    rel_rows = _enumerated_rows(p)
    sg_rows = _pad_codes(sub, p.num_generators)
    edp_rows, edp_coff = fp_module._build_edp(rel_rows, ncols, DEFAULT_MAX_BYTES)
    arrays = (edp_rows, _engine._row_lengths(edp_rows), edp_coff, rel_rows, _engine._row_lengths(rel_rows))
    arrays += (sg_rows, _engine._row_lengths(sg_rows), ncols, DEFAULT_BUDGET, np.zeros(1, dtype=np.int64))
    table, cosets = np.full((rows, ncols), -1, dtype=np.int32), np.arange(rows, dtype=np.int32)
    dstack, S = np.zeros(64, dtype=np.int64), np.zeros(_engine.S_SIZE, dtype=np.int64)
    S[_engine.S_NROWS] = S[_engine.S_TOTAL] = 1
    st = _engine._run_felsch(table, cosets, dstack, S, *arrays)
    assert st == _engine.STATUS_GROW
    assert S[_engine.S_SGDONE] == 0 and S[_engine.S_DLEN] > 0 and S[_engine.S_DEAD] > 0
    live = rows - int(S[_engine.S_DEAD])
    fp_module._compact(table, cosets, S)
    assert (S[_engine.S_NROWS], S[_engine.S_DEAD], S[_engine.S_DLEN], S[_engine.S_DOFLOW]) == (live, 0, 0, 1)
    # finish on room enough, as coset_enumerate would after growing
    big, big_cosets = np.full((1024, ncols), -1, dtype=np.int32), np.arange(1024, dtype=np.int32)
    big[:rows], big_cosets[:rows] = table, cosets
    st = _engine._run_felsch(big, big_cosets, dstack, S, *arrays)
    assert st == _engine.STATUS_OK
    std = _engine._standardize(big, int(S[_engine.S_NROWS]), ncols)
    assert np.array_equal(std, coset_enumerate(p, sub, strategy="felsch").table)


def test_felsch_overflow_sweep_scans_only_open_relators():
    # The sweep after a deduction-stack overflow traces the relators at
    # each live coset, as HLT's lookahead does, and scans the open ones.
    open_relators, traced = _engine._open_relators, []

    def counted(*args):
        traced.append(args[2])
        return open_relators(*args)

    p = parse_presentation("< a, b | a^2, b^3, (a b)^5 >")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fp_module, "_DSTACK_SIZE", 4)
        mp.setattr(_engine, "_open_relators", counted)
        table = coset_enumerate(p, strategy="felsch").table
    assert traced
    assert np.array_equal(table, coset_enumerate(p, strategy="hlt").table)


def test_enumerate_no_generators():
    # no relator, empty relators and all -1 code rows; the trivial
    # subgroup and the one generated by the empty word
    for strategy, relators, subgroup in itertools.product(
        ("hlt", "felsch"), ((), ((), ()), np.full((2, 3), -1, dtype=np.int32)), ((), [()])
    ):
        ct = coset_enumerate(FpPresentation((), relators), subgroup, strategy=strategy)
        assert ct.table.shape == (1, 0) and ct.table.dtype == np.int32
        assert ct.subgroup_words == tuple(subgroup)


def test_collapse_stays_within_the_table_estimate():
    # a^5000 defines 4,999 cosets at coset 0, on a table grown to 8,192
    # rows of 4 * ncols + 8 = 24 bytes; a^4999 then kills them all in one
    # coincidence, whose queue the 8 bytes include.  A list of Python ints
    # for the queue (36 bytes an entry) took the peak to 1.72 times the table.
    p = parse_presentation("< a | a^5000, a^4999 >")
    coset_enumerate(p)
    tracemalloc.start()
    try:
        assert coset_enumerate(p).num_cosets == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8192 * 24


def test_subgroup_given_as_one_string_is_refused():
    # a string is an iterable of one-letter strings: "ab" would stand
    # for the subgroup < a, b >
    p = parse_presentation("< a, b | a^2, b^3, (a b)^3 >")
    with pytest.raises(ValueError, match="iterable of words or strings"):
        coset_enumerate(p, "ab")
    assert coset_enumerate(p, ["a b"]).num_cosets == 4


@pytest.mark.parametrize("strategy", ["hlt", "felsch"])
@pytest.mark.parametrize("text", ["< a | >", "< a, b | >", "< a | a a^-1 >"])
def test_enumerate_with_no_nonempty_relator(text, strategy):
    # Felsch lists no cyclic conjugates, and its first-letter offsets
    # must still be read from rows with no column
    p = parse_presentation(text)
    assert coset_enumerate(p, p.generator_names, strategy=strategy).num_cosets == 1


def _code_rows(*words) -> np.ndarray:
    """Code words as the -1-padded int32 rows that _verify takes."""
    rows = np.full((len(words), max(map(len, words), default=0)), -1, dtype=np.int32)
    for row, w in zip(rows, words):
        row[: len(w)] = w
    return rows


# Letter codes of the S3 relators a^2, b^2, (a b)^3 and of the word a b.
S3_CODES = ([0, 0], [2, 2], [0, 2] * 3)
AB_CODES = [0, 2]


def test_verify_accepts_a_right_table():
    table = coset_enumerate(parse_presentation(S3_TEXT)).table
    assert _engine._verify(table, _code_rows(*S3_CODES)) == 0
    assert _engine._verify(table, _code_rows()) == 0


def test_verify_rejects_an_out_of_range_entry():
    table = coset_enumerate(parse_presentation(S3_TEXT)).table.copy()
    for bad in (-1, table.shape[0]):
        table[3, 1] = bad
        assert _engine._verify(table, _code_rows(*S3_CODES)) == 1


def test_verify_rejects_an_unpaired_entry():
    table = coset_enumerate(parse_presentation(S3_TEXT)).table.copy()
    table[[1, 2], 0] = table[[2, 1], 0]
    assert _engine._verify(table, _code_rows(*S3_CODES)) == 2


def test_verify_rejects_a_failing_relator():
    table = coset_enumerate(parse_presentation(S3_TEXT)).table
    # the short failing word sits after the longest relator
    assert _engine._verify(table, _code_rows(*S3_CODES, AB_CODES)) == 3
    assert _engine._verify(table, _code_rows(AB_CODES, *S3_CODES)) == 3


def test_verify_reads_the_last_block():
    # Equal lengths keep the input order, so the one failing relator
    # is alone in the last block of VERIFY_BLOCK coset-relator entries.
    table = coset_enumerate(parse_presentation(S3_TEXT)).table
    per_block = _engine.VERIFY_BLOCK // table.shape[0]
    words = [[0, 0]] * (3 * per_block) + [AB_CODES]
    assert _engine._verify(table, _code_rows(*words[:-1])) == 0
    assert _engine._verify(table, _code_rows(*words)) == 3


def _verify_by_loop(table, rows) -> int:
    """Reference: the entry-by-entry, coset-by-coset relator check."""
    n, ncols = table.shape
    for i in range(n):
        for x in range(ncols):
            t = table[i, x]
            if t < 0 or t >= n:
                return 1
            if table[t, x ^ 1] != i:
                return 2
    for row in rows:
        for a in range(n):
            f = a
            for c in row[row >= 0]:
                f = table[f, c]
            if f != a:
                return 3
    return 0


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([S3_TEXT, "< a, b | a^2, b^3, (a b)^4 >"]),
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 3), st.integers(0, 25)), max_size=2),
    st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8), max_size=6),
)
def test_verify_matches_loop(text, edits, words):
    # Edits may break range or pairing; random words may fail as relators.
    table = coset_enumerate(parse_presentation(text)).table.copy()
    n = table.shape[0]
    for i, x, value in edits:
        table[i % n, x] = value % (n + 2) - 1
    args = (table, _code_rows(*words))
    got, want = _engine._verify(*args), _verify_by_loop(*args)
    # With both a range and a pairing fault the two may name either one.
    assert got == want or {got, want} == {1, 2}


FINITE_BASES = [
    "< a, b | a^2, b^2, (a b)^3 >",
    "< a, b | a^2, b^2, (a b)^4 >",
    "< a, b | a^2, b^3, (a b)^3 >",
    "< a, b | a^2, b^3, (a b)^4 >",
    "< a, b | a^2, b^3, (a b)^5 >",
    "< a, b | a^4, a^2 b^-2, b^-1 a b a >",
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FINITE_BASES),
    st.lists(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=6), max_size=2),
)
def test_strategy_agreement_property(base, extra):
    p = parse_presentation(base).with_extra_relators(tuple(free_reduce(w) for w in extra))
    hlt = coset_enumerate(p, strategy="hlt")
    felsch = coset_enumerate(p, strategy="felsch")
    assert np.array_equal(hlt.table, felsch.table)


def _run_hlt_by_loop(table, p, dstack, S, rel_rows, rel_len, sg_rows, sg_len, ncols, budget, cancel):
    """Reference: HLT that scans every relator at every live coset; returns
    the status.  Words are read from the rows themselves, not from the
    lengths given."""
    E = _engine
    if S[E.S_SGDONE] == 0:
        for row in sg_rows:
            w = row[row >= 0]
            st = E._scan_and_fill(table, p, dstack, S, 0, w[None], 0, len(w), ncols, budget, cancel)
            if st != E.STATUS_OK:
                return st
        S[E.S_SGDONE] = 1
    words = [row[row >= 0] for row in rel_rows]
    alpha = S[E.S_ALPHA]
    while alpha < S[E.S_NROWS]:
        if p[alpha] == alpha:
            died = False
            for w in words:
                st = E._scan_and_fill(table, p, dstack, S, alpha, w[None], 0, len(w), ncols, budget, cancel)
                if st != E.STATUS_OK:
                    S[E.S_ALPHA] = alpha
                    return st
                if p[alpha] != alpha:
                    died = True
                    break
            if not died:
                for x in range(ncols):
                    if table[alpha, x] < 0:
                        if S[E.S_TOTAL] >= budget:
                            S[E.S_ALPHA] = alpha
                            return E.STATUS_BUDGET
                        if S[E.S_NROWS] >= table.shape[0]:
                            S[E.S_ALPHA] = alpha
                            return E.STATUS_GROW
                        beta = S[E.S_NROWS]
                        S[E.S_NROWS] += 1
                        S[E.S_TOTAL] += 1
                        p[beta] = beta
                        table[alpha, x] = beta
                        table[beta, x ^ 1] = alpha
        alpha += 1
        S[E.S_ALPHA] = alpha
    return E.STATUS_OK


def _scan_by_loop(table, p, dstack, S, alpha, word, ncols):
    """Reference: scan a relator at a coset; deduce or coincide, never define."""
    E = _engine
    r = word.shape[0]
    f = alpha
    i = 0
    while i < r:
        nxt = table[f, word[i]]
        if nxt < 0:
            break
        f = nxt
        i += 1
    if i == r:
        if f != alpha:
            E._coincidence(table, p, dstack, S, f, alpha, ncols)
        return
    b = alpha
    j = r - 1
    while j >= i:
        nxt = table[b, word[j] ^ 1]
        if nxt < 0:
            break
        b = nxt
        j -= 1
    if j < i:
        E._coincidence(table, p, dstack, S, f, b, ncols)
    elif j == i:
        table[f, word[i]] = b
        table[b, word[i] ^ 1] = f
        if len(dstack):
            E._push_ded(dstack, S, f, word[i], ncols)
            E._push_ded(dstack, S, b, word[i] ^ 1, ncols)


def _lookahead_by_loop(table, p, dstack, S, rel_rows, rel_len, ncols, cancel):
    """Reference: lookahead that scans every relator at every live coset;
    returns the status.  Words are read from the rows themselves, not
    from the lengths given."""
    words = [row[row >= 0] for row in rel_rows]
    for a in range(S[_engine.S_NROWS]):
        for w in words:
            if p[a] != a:
                break
            _scan_by_loop(table, p, dstack, S, a, w, ncols)
    return _engine.STATUS_OK


def _hlt_run_log(p, subgroup, budget, max_bytes, reference):
    """Every HLT driver call of one enumeration, as (driver, status, raw
    table, p, S) after the call, the events seen, and the outcome: the
    standardized table or BudgetExceeded.defined."""
    log, events = [], set()
    hlt, lookahead = (_run_hlt_by_loop, _lookahead_by_loop) if reference else (_engine._run_hlt, _engine._lookahead)
    compact = fp_module._compact

    def logged(name, driver):
        def run(table, p, dstack, S, *args):
            if log and table.shape != log[-1][2].shape:
                events.add("growth")
            st = driver(table, p, dstack, S, *args)
            events.add(name)
            log.append((name, st, table.copy(), p.copy(), S.copy()))
            return st

        return run

    def counted_compact(*args):
        events.add("compaction")
        compact(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "_run_hlt", logged("hlt", hlt))
        mp.setattr(_engine, "_lookahead", logged("lookahead", lookahead))
        mp.setattr(fp_module, "_compact", counted_compact)
        try:
            outcome = coset_enumerate(p, subgroup, budget=budget, max_bytes=max_bytes).table
        except BudgetExceeded as e:
            events.add("budget")
            outcome = e.defined
    return log, events, outcome


def _assert_hlt_matches_loop(text, extra, subgroup, budget, max_bytes) -> set:
    """Enumerate with the engine's HLT drivers and with the reference
    loops; assert identical states after every driver call, and return
    the events of the run."""
    p = parse_presentation(text).with_extra_relators(tuple(free_reduce(w) for w in extra))
    sub = [free_reduce(w) for w in subgroup]
    got_log, events, got = _hlt_run_log(p, sub, budget, max_bytes, reference=False)
    want_log, want_events, want = _hlt_run_log(p, sub, budget, max_bytes, reference=True)
    assert events == want_events
    assert len(got_log) == len(want_log)
    for (name, st, table, cosets, state), (want_name, want_st, want_table, want_cosets, want_state) in zip(
        got_log, want_log
    ):
        assert (name, st) == (want_name, want_st)
        assert np.array_equal(table, want_table)
        assert np.array_equal(cosets, want_cosets)
        assert np.array_equal(state, want_state)
    assert type(got) is type(want)
    assert np.array_equal(got, want)
    return events


# Enumerations that force every path of the HLT driver loop in
# coset_enumerate: (text, extra, subgroup, budget, max_bytes, event).
# 24 bytes hold one coset row of a two-generator table.
HLT_FORCED = [
    ("< a, b | a^40, b^40, a b a^-1 b^-1 >", (), (), DEFAULT_BUDGET, DEFAULT_MAX_BYTES, "growth"),
    (B3_TEXT, (), (), 3000, DEFAULT_MAX_BYTES, "budget"),
    # lookahead here finds 5 coincidences, and the run closes at 60 cosets
    ("< a, b | a^2, b^3, (a b)^5 >", (), (), DEFAULT_BUDGET, 68 * 24, "lookahead"),
    ("< a, b | a^2, b^3, (a b)^5 >", (), (), DEFAULT_BUDGET, 68 * 24, "compaction"),
    ("< a, b | a^2, b^3, (a b)^5 >", (), (), DEFAULT_BUDGET, 20 * 24, "budget"),
    # a^300 defines 249 cosets at coset 0 and fills the 250 rows (16 bytes
    # each); lookahead then scans a^200 and collapses the run to 100 cosets
    ("< a | a^300, a^200 >", (), (), DEFAULT_BUDGET, 250 * 16, "lookahead"),
]


@pytest.mark.parametrize(
    "text, extra, subgroup, budget, max_bytes, event",
    HLT_FORCED,
    ids=["growth", "budget", "lookahead", "compaction", "memory-cap", "long-relator"],
)
def test_hlt_open_relator_scan_matches_loop_forced(text, extra, subgroup, budget, max_bytes, event):
    assert event in _assert_hlt_matches_loop(text, extra, subgroup, budget, max_bytes)


def _container_run_log(text, subgroup, strategy, budget, max_bytes, dstack_size, views):
    """Enumerate with the kernels' containers made by `views` in place of
    `kernel_views`.  Returns every driver call as (driver, status, raw
    table, p, S) after the call, the outcome (the standardized table or
    BudgetExceeded.defined), the container types `_scan_and_fill` saw and
    whether the deduction stack overflowed."""
    log, seen, overflowed = [], set(), []
    scan, push = _engine._scan_and_fill, _engine._push_ded

    def logged(name):
        driver = getattr(_engine, name)

        def run(table, p, dstack, S, *args):
            st = driver(table, p, dstack, S, *args)
            log.append((name, st, np.array(table), np.array(p), np.array(S)))
            return st

        return run

    def typed_scan(table, p, dstack, S, alpha, rows, *args):
        seen.add((type(table), type(rows), type(S)))
        return scan(table, p, dstack, S, alpha, rows, *args)

    def watched_push(dstack, S, *args):
        push(dstack, S, *args)
        overflowed.append(S[_engine.S_DOFLOW] == 1)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_engine, "kernel_views", views)
        for name in ("_run_hlt", "_lookahead", "_run_felsch"):
            mp.setattr(_engine, name, logged(name))
        mp.setattr(_engine, "_scan_and_fill", typed_scan)
        mp.setattr(_engine, "_push_ded", watched_push)
        mp.setattr(fp_module, "_DSTACK_SIZE", dstack_size)
        try:
            outcome = coset_enumerate(
                parse_presentation(text), subgroup, strategy=strategy, budget=budget, max_bytes=max_bytes
            ).table
        except BudgetExceeded as e:
            outcome = e.defined
    return log, outcome, seen, any(overflowed)


@pytest.mark.parametrize(
    "text, subgroup, strategy, budget, max_bytes, dstack_size",
    [(text, subgroup, "hlt", budget, max_bytes, 1 << 15) for text, _, subgroup, budget, max_bytes, _ in HLT_FORCED]
    + [("< a, b | a^2, b^3, (a b)^5 >", (), "felsch", DEFAULT_BUDGET, DEFAULT_MAX_BYTES, 4)],
    ids=["growth", "budget", "lookahead", "compaction", "memory-cap", "long-relator", "felsch-sweep"],
)
def test_kernels_on_arrays_match_kernels_on_memoryviews(text, subgroup, strategy, budget, max_bytes, dstack_size):
    # The drivers hand the kernels memoryviews; run once more on the plain
    # arrays as the reference: both must evolve the same raw state.
    runs = [
        _container_run_log(text, subgroup, strategy, budget, max_bytes, dstack_size, views)
        for views in (lambda *arrays: arrays, lambda *arrays: tuple(map(memoryview, arrays)))
    ]
    (arrays_log, arrays_outcome, arrays_seen, arrays_flow), (views_log, views_outcome, views_seen, views_flow) = runs
    assert arrays_seen == {(np.ndarray, np.ndarray, np.ndarray)}
    assert views_seen == {(memoryview, memoryview, memoryview)}
    assert arrays_flow == views_flow == (strategy == "felsch")
    assert len(arrays_log) == len(views_log) > 0
    for got, want in zip(views_log, arrays_log):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:]):
            assert np.array_equal(a, b)
    assert type(views_outcome) is type(arrays_outcome)
    assert np.array_equal(views_outcome, arrays_outcome)


def test_scan_with_budget_zero_matches_scan_by_loop():
    # Replay every raw state of an HLT run that looks ahead: from each,
    # scan every relator at every live coset, with an empty and with a
    # non-empty deduction stack, once by _scan_and_fill with a budget of
    # 0 and once by the reference scan, each on its own copy of the state.
    text, _, subgroup, budget, max_bytes, _ = HLT_FORCED[2]
    p = parse_presentation(text)
    log, events, _ = _hlt_run_log(p, subgroup, budget, max_bytes, reference=False)
    assert "lookahead" in events
    rel_rows = _enumerated_rows(p)
    ncols = 2 * p.num_generators
    cancel = np.zeros(1, dtype=np.int64)
    seen = set()
    for _, _, table, cosets, S in log:
        n = int(S[_engine.S_NROWS])
        for a in np.flatnonzero(cosets[:n] == np.arange(n)):
            for w, stack_size in itertools.product((row[row >= 0] for row in rel_rows), (0, 8)):
                runs = []
                for budget_zero in (True, False):
                    t, q, s = table.copy(), cosets.copy(), S.copy()
                    dstack = np.zeros(stack_size, dtype=np.int64)
                    if budget_zero:
                        _engine._scan_and_fill(t, q, dstack, s, a, w[None], 0, len(w), ncols, 0, cancel)
                    else:
                        _scan_by_loop(t, q, dstack, s, a, w, ncols)
                    runs.append((t, q, s, dstack))
                for got, want in zip(*runs):
                    assert np.array_equal(got, want)
                t, _, s, _ = runs[0]
                if s[_engine.S_DEAD] > S[_engine.S_DEAD]:
                    seen.add("coincidence")
                elif not np.array_equal(t, table):
                    seen.add("deduction")
    assert seen == {"coincidence", "deduction"}


_words = st.lists(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=6), max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FINITE_BASES),
    _words,
    _words,
    st.sampled_from([DEFAULT_BUDGET, 8, 30, 100]),
    st.sampled_from([DEFAULT_MAX_BYTES, 12 * 24, 30 * 24, 60 * 24]),
)
def test_hlt_open_relator_scan_matches_loop(text, extra, subgroup, budget, max_bytes):
    _assert_hlt_matches_loop(text, extra, subgroup, budget, max_bytes)


SMALL_CATALOG = [n for n, size in CATALOG_ORDERS.items() if size <= 12]


def _sympy_order(p: FpPresentation) -> int:
    """Order of the group of `p` by sympy's coset enumeration.

    This enumerates the cosets of the trivial subgroup directly.
    ``FpGroup.order()`` first looks for a finite-index subgroup and
    recurses into its presentation, which did not finish on
    < a, b | a^2, b^2, (a b)^3, b^-1 a^-1 b a^-1 > (order 2).
    """
    if not p.generator_names:
        return 1
    free, *gens = sympy_free_group(list(p.generator_names))
    relators = []
    for w in p.relators:
        value = free.identity
        for g, s in w:
            value = value * gens[g] ** s
        relators.append(value)
    table = SympyFpGroup(free, relators).coset_enumeration([])
    assert table.is_complete()
    return len(table.table)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL_CATALOG),
    st.lists(
        st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1, -1])), max_size=8),
        max_size=3,
    ),
)
def test_coset_count_matches_sympy(name, extra):
    # Quotients of a group of order at most 12 have index at most 12,
    # so sympy's enumerator finishes too.
    base = catalog_presentation(name)
    n = base.num_generators
    p = base.with_extra_relators(tuple(free_reduce((g % n, s) for g, s in w) for w in extra))
    assert coset_enumerate(p).num_cosets == _sympy_order(p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_CATALOG), st.data())
def test_redundant_relators_leave_the_table_alone(name, data):
    # Enumeration takes relators as stored: copies, rotations, inverses
    # and conjugates of a relator, and the empty relator, are scanned but
    # change no standardized table.
    base = catalog_presentation(name)
    n = base.num_generators
    words = [*base.relators, ()]
    for _ in range(data.draw(st.integers(1, 6))):
        w = cyclic_reduce(data.draw(st.sampled_from(base.relators)))
        k = data.draw(st.integers(0, max(len(w) - 1, 0)))
        w = w[k:] + w[:k]
        if data.draw(st.booleans()):
            w = invert_word(w)
        u = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1])), max_size=3))
        words.append(free_reduce(tuple(u) + w + invert_word(tuple(u))))
    p = FpPresentation(base.generator_names, tuple(data.draw(st.permutations(words))))
    for strategy in ("hlt", "felsch"):
        assert np.array_equal(coset_enumerate(p, strategy=strategy).table, coset_enumerate(base, strategy=strategy).table)


# ------------------------------------------------------------ realization


def test_realize_s3():
    g = realize(parse_presentation(S3_TEXT))
    assert g.order == 6
    assert not g.is_abelian()
    assert g.abelian_invariants() == parse_abelian("Z_2")
    assert g.commutator_subgroup() == (0, 3, 4)
    for i in range(g.order):
        assert g.evaluate_word(g.element_words[i]) == i
        assert g.mul_elements(i, g.inverse(i)) == 0


def test_realize_trivial_and_cyclic():
    assert realize(parse_presentation("< a | a >")).order == 1
    assert realize(FpPresentation((), ())).order == 1
    z12 = realize(parse_presentation("< a | a^12 >"))
    assert z12.order == 12
    assert z12.is_abelian()
    assert z12.abelian_invariants() == parse_abelian("Z_12")
    assert z12.element_order(z12.generator_map[0]) == 12


def test_realize_infinite_raises():
    with pytest.raises(BudgetExceeded):
        realize(parse_presentation(B3_TEXT), budget=4000)


def _realize_by_loop(ct):
    """Reference: the multiplication table, generator map and element
    words of a standardized coset table of the trivial subgroup, from a
    breadth-first search for each element's word and a trace of that
    word letter by letter from every coset."""
    table = ct.table
    n, ncols = table.shape
    word_cols = [None] * n
    word_cols[0] = ()
    for i in range(n):
        for x in range(ncols):
            j = int(table[i, x])
            if word_cols[j] is None:
                word_cols[j] = word_cols[i] + (x,)
    mul = np.empty((n, n), dtype=np.int32)
    for j in range(n):
        state = np.arange(n, dtype=np.int32)
        for c in word_cols[j]:
            state = table[state, c]
        mul[:, j] = state
    words = tuple(tuple((c // 2, 1 if c % 2 == 0 else -1) for c in cols) for cols in word_cols)
    return mul, tuple(int(table[0, 2 * g]) for g in range(ncols // 2)), words


@pytest.mark.parametrize(
    "name",
    [*CATALOG_ORDERS, "< | >", "< a | a^300 >", "< a, b | a^2, b^150, a b a^-1 b^-1 >"],
)
def test_realize_matches_word_bfs(name):
    p = catalog_presentation(name) if name in CATALOG_ORDERS else parse_presentation(name)
    g = realize(p)
    mul, generator_map, element_words = _realize_by_loop(coset_enumerate(p))
    assert np.array_equal(g.mul, mul)
    assert g.generator_map == generator_map
    assert g.element_words == element_words


def _nu_presentation(text):
    """Rocco's nu(G) over the generators X of G, and the words of X^phi.

    Generators X and a copy X^phi; relators: those of G, their copies in
    X^phi, and for all x, y, z in X (Y = y^phi, Z = z^phi, [u, v] =
    u^-1 v^-1 u v) z^-1 [x, Y] z = [z^-1 x z, Z^-1 Y Z] and
    z^-1 [x, Y] z = Z^-1 [x, Y] Z.  The cosets of <X^phi> number
    |G| |G (x) G|.
    """
    g = parse_presentation(text)
    n = g.num_generators

    def phi(w):
        return tuple((a + n, s) for a, s in w)

    def comm(u, v):
        return free_reduce(invert_word(u) + invert_word(v) + u + v)

    def conj(u, z):
        return free_reduce(invert_word(z) + u + z)

    relators = [*g.relators, *map(phi, g.relators)]
    for x, y, z in itertools.product((((i, 1),) for i in range(n)), repeat=3):
        left = conj(comm(x, phi(y)), z)
        relators.append(free_reduce(left + invert_word(comm(conj(x, z), conj(phi(y), phi(z))))))
        relators.append(free_reduce(left + invert_word(conj(comm(x, phi(y)), phi(z)))))
    names = (*g.generator_names, *(f"{name}_phi" for name in g.generator_names))
    return FpPresentation(names, tuple(relators)), [((i + n, 1),) for i in range(n)]


def test_nu_s4_grows_without_lookahead():
    # 24 * |S4 (x) S4| = 24 * 48 cosets; HLT grows past its first 1,024
    # rows and, with the table free to grow, never looks ahead.
    p, subgroup = _nu_presentation("< a, b | a^2, b^3, (a b)^4 >")
    _, events, table = _hlt_run_log(p, subgroup, DEFAULT_BUDGET, DEFAULT_MAX_BYTES, reference=False)
    assert table.shape[0] == 1152
    assert "growth" in events
    assert "lookahead" not in events


def test_element_ops():
    g = realize(parse_presentation("< r, s | r^4, s^2, (r s)^2 >"))
    assert g.order == 8
    r, s = g.generator_map
    assert g.conjugate(r, s) == g.mul_elements(g.mul_elements(g.inverse(s), r), s)
    assert g.commutator(r, s) == g.mul_elements(
        g.mul_elements(g.inverse(r), g.inverse(s)), g.mul_elements(r, s)
    )
    assert g.power(r, 4) == 0
    assert g.power(r, -1) == g.inverse(r)
    assert g.element_order(r) == 4
    # D4: center has order 2 and the derived subgroup sits inside it
    assert len(g.center()) == 2
    assert set(g.commutator_subgroup()) <= set(g.center())


@pytest.mark.parametrize("name", ["Z16", "S3", "D4"])
def test_power_reduces_the_exponent_modulo_the_order(name):
    g = catalog_group(name)
    for x in range(g.order):
        k = g.element_order(x)
        for n in range(-2 * k, 2 * k + 1):
            acc = 0
            for _ in range(abs(n)):
                acc = int(g.mul[acc, x if n > 0 else g.inv[x]])
            assert g.power(x, n) == acc
    # 10**7 first: a power that loops |n| times fails there in seconds
    # rather than running on through 10**18 products
    x = g.generator_map[0]
    for n in (10**7, 10**18, -(10**18) + 1):
        start = time.perf_counter()
        assert g.power(x, n) == g.power(x, n % g.element_order(x))
        assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("letter", [(-1, 1), (2, 1), (0, 0), (0, 2)])
def test_malformed_letters_are_refused(letter):
    # S3 is presented on two generators, so (2, 1) is out of range
    g = catalog_group("S3")
    table = coset_enumerate(catalog_presentation("S3"))
    assert len(g.generator_map) == 2
    for evaluate in (g.evaluate_word, lambda w: table.trace(0, w)):
        with pytest.raises(ValueError, match=rf"letter \({letter[0]}, {letter[1]}\)"):
            evaluate(((0, 1), letter))
    a, b = g.generator_map
    assert g.evaluate_word(((0, 1), (1, -1))) == g.mul[a, g.inv[b]]
    assert table.trace(0, ((0, 1), (1, -1))) == table.table[table.table[0, 0], 3]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda t: t.trace(-1, ((0, 1),)), r"coset -1 is not in 0 \.\. 5"),
        (lambda t: t.trace(-6, ()), r"coset -6 is not in 0 \.\. 5"),
        (lambda t: t.trace(6, ((0, 1),)), r"coset 6 is not in 0 \.\. 5"),
        (lambda t: t.permutation(-1), r"generator -1 is not in 0 \.\. 1"),
    ],
)
def test_coset_table_refuses_indices_out_of_range(call, message):
    # negative indices used to wrap round to the last coset or generator
    table = coset_enumerate(catalog_presentation("S3"))
    assert table.num_cosets == 6
    with pytest.raises(ValueError, match=message):
        call(table)
    assert table.trace(5, ()) == 5
    assert np.array_equal(table.permutation(1), table.table[:, 2])


def test_subgroup_closure_and_quotient():
    g = realize(parse_presentation(S3_TEXT))
    assert g.subgroup_closure([]) == (0,)
    a3 = g.commutator_subgroup()
    assert len(a3) == 3
    q, proj = g.quotient_by(a3)
    assert q.order == 2
    assert proj[0] == 0
    # the two-element subgroup generated by a transposition is not normal
    transposition = g.generator_map[0]
    with pytest.raises(ValueError):
        g.quotient_by(g.subgroup_closure([transposition]))


# Reference loops for the table-driven realization methods: the element
# walks that `conj`, `subgroup_closure`, `is_normal` and
# `commutator_subgroup` replaced.


def _conjugation_table_by_columns(g):
    table = np.empty((g.order, g.order), dtype=np.int32)
    for y in range(g.order):
        table[:, y] = g.mul[g.mul[g.inv[y], :], y]
    return table


def _closure_by_dfs(g, gens):
    seen = {0}
    frontier = [0]
    gens = sorted({int(x) for x in gens})
    for x in gens:
        if x not in seen:
            seen.add(x)
            frontier.append(x)
    while frontier:
        a = frontier.pop()
        for x in gens:
            b = int(g.mul[a, x])
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return tuple(sorted(seen))


def _is_normal_by_loop(g, subgroup):
    sub = set(subgroup)
    for y in range(g.order):
        for x in subgroup:
            if int(g.mul[g.mul[g.inv[y], x], y]) not in sub:
                return False
    return True


ALL_CATALOG = sorted(CATALOG_ORDERS)


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_conjugation_tables_match_loops(name):
    g = catalog_group(name)
    table = _conjugation_table_by_columns(g)
    assert np.array_equal(g.conj, table)
    for x in range(g.order):
        for y in range(g.order):
            assert g.conjugate(x, y) == table[x, y]
            assert g.commutator(x, y) == g.mul[g.mul[g.inv[x], g.inv[y]], g.mul[x, y]]
    comms = g.mul[g.mul[g.inv[:, None], g.inv[None, :]], g.mul]
    derived = g.commutator_subgroup()
    assert derived == _closure_by_dfs(g, comms.ravel())
    assert g.is_normal(derived) and _is_normal_by_loop(g, derived)
    assert g.is_normal(g.center()) and g.is_normal(range(g.order)) and g.is_normal((0,))


@pytest.mark.parametrize("name", ALL_CATALOG)
def test_enumeration_keys_no_relator_classes(name, monkeypatch):
    # Tietze reduction is the one place that deduplicates relators
    def refuse(rows):
        raise AssertionError("coset enumeration keyed relator classes")

    monkeypatch.setattr(fp_module, "_cyclic_class_firsts", refuse)
    p = catalog_presentation(name)
    assert coset_enumerate(p, strategy="felsch").num_cosets == CATALOG_ORDERS[name]
    assert realize(p).order == CATALOG_ORDERS[name]


def test_conjugation_table_is_read_only_and_built_once():
    g = FiniteGroupRealization(catalog_group("S3").mul)
    assert "conj" not in vars(g)
    table = g.conj
    assert table is g.conj
    assert table.dtype == np.int32 and table.shape == (6, 6)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(ALL_CATALOG), st.data())
def test_closure_and_normality_match_loops(name, data):
    g = catalog_group(name)
    subset = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
    closure = g.subgroup_closure(subset)
    assert closure == _closure_by_dfs(g, subset)
    assert g.subgroup_closure(iter(subset)) == g.subgroup_closure(np.array(subset, dtype=np.int32)) == closure
    # the subset itself is usually no subgroup; is_normal only asks for
    # closure under conjugation
    assert g.is_normal(subset) == _is_normal_by_loop(g, subset)
    assert g.is_normal(set(subset)) == _is_normal_by_loop(g, subset)
    assert g.is_normal(closure) == _is_normal_by_loop(g, closure)


def test_regular_presentation_abelianization_matches():
    for text in ("< a | a^6 >", S3_TEXT, "< a, b | a^4, a^2 b^-2, b^-1 a b a >"):
        p = parse_presentation(text)
        g = realize(p)
        assert g.regular_presentation().abelianization() == p.abelianization()


def test_abelian_invariants_examples():
    cases = [
        ("< a, b | a^4, a^2 b^-2, b^-1 a b a >", "Z_2 x Z_2"),  # Q8
        ("< a, b | a^2, b^3, (a b)^3 >", "Z_3"),  # A4
        ("< a, b | a^2, b^3, (a b)^5 >", "1"),  # A5 is perfect
        ("< a, b | a^2, b^2, a b a^-1 b^-1 >", "Z_2 x Z_2"),
    ]
    for text, expect in cases:
        assert realize(parse_presentation(text)).abelian_invariants() == parse_abelian(expect)


def test_realization_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteGroupRealization(np.array([[0, 1], [1, 1]]))  # 1 has no inverse
    with pytest.raises(ValueError):
        FiniteGroupRealization(np.array([[1, 0], [0, 1]]))  # 0 not identity
    # smallest non-associative magma with identity and inverses
    bad = np.array(
        [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
    )
    with pytest.raises(ValueError):
        FiniteGroupRealization(bad)


def test_associativity_check_reads_the_last_block():
    # On pairs (i, j), i mod 2 and j mod 128, let (i, j) (k, l) =
    # (i + k, j + l + f(j, l)) with f(2, 2) = 1 and f = 0 elsewhere, as
    # element 128 i + j.  Identity and inverse laws hold.  (x y) s =
    # x (y s) holds for s = (1, 0) and every x, y, since f ignores the
    # first coordinate, and fails for s = (0, 1) at x = (0, 2), y = (0, 1).
    # At order 256 each block holds one generator, and (0, 1) is the last.
    i, j = np.divmod(np.arange(256), 128)

    def table(f):
        return 128 * ((i[:, None] + i[None, :]) % 2) + (j[:, None] + j[None, :] + f) % 128

    mul = table((j[:, None] == 2) & (j[None, :] == 2))
    gens = (128, 1)
    assert _engine.VERIFY_BLOCK // 256**2 == 1
    bad = [not np.array_equal(mul[mul, s], mul[:, mul[:, s]]) for s in gens]
    assert bad == [False, True]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupRealization(mul, generator_map=gens)
    # f changes no product by 128 or 1, so the generating set is the one
    # of Z_2 x Z_128 (f = 0), which keeps both generators in order
    assert FiniteGroupRealization(table(0), generator_map=gens).generating_set == gens


@pytest.mark.parametrize("x", [5, 1000])
def test_associativity_check_is_exact_at_order_1024(x):
    # Z_1024 with the products x * 7 and x * 11 swapped keeps the identity
    # and inverse laws and breaks associativity at few of its 1024^3
    # triples: (x 6) 1 = x + 7 but x (6 1) = x + 11.  A sample of 100,000
    # triples almost surely misses them; Light's test on the generator 1
    # does not, in the first block of 64 rows x and in the last.
    n = 1024
    mul = np.add.outer(np.arange(n), np.arange(n)) % n
    mul[x, [7, 11]] = mul[x, [11, 7]]
    assert _engine.VERIFY_BLOCK // n == 64
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupRealization(mul)


@pytest.mark.parametrize("generator_map", [(-1,), (2,), (1, 5)])
def test_realization_rejects_generator_map_out_of_range(generator_map):
    with pytest.raises(ValueError, match="generator map entries out of range"):
        FiniteGroupRealization(np.array([[0, 1], [1, 0]]), generator_map=generator_map)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: FiniteGroupRealization(g.mul + 0.5),
        lambda g: FiniteGroupRealization(g.mul.astype(float)),
        lambda g: FiniteGroupRealization(g.mul, generator_map=[1.7]),
        lambda g: GroupAction(g, g, g.conj + 0.5),
        lambda g: GroupAction(g, g, g.conj.astype(float)),
        lambda g: g.subgroup_closure([1.5]),
        lambda g: g.is_normal([0, 2.7]),
    ],
    ids=["mul-halves", "mul-float", "generator-map", "action-halves", "action-float", "closure", "is-normal"],
)
def test_non_integer_tables_are_refused(build):
    # these used to be truncated: conj + 0.5 passed as the conjugation
    # action, the map [1.7] became (1,) and subgroup_closure([1.5]) (0, 1)
    with pytest.raises(ValueError, match="entries must be integers"):
        build(catalog_group("S3"))


@pytest.mark.parametrize(
    "build",
    [
        lambda g: FiniteGroupRealization(g.mul.astype(np.int64) + (1 << 32)),
        lambda g: GroupAction(g, g, g.conj.astype(np.int64) - (1 << 32)),
    ],
    ids=["mul", "action"],
)
def test_tables_are_range_checked_before_narrowing(build):
    # 2^32 + x used to wrap round to x in the int32 copy
    with pytest.raises(ValueError, match="entries out of range"):
        build(catalog_group("S3"))


def test_constructors_copy_a_writeable_caller_array():
    # a C-contiguous int32 array used to be kept and made read-only, so
    # the caller lost write access, and a writeable view of it could
    # still change the group's tables
    g = catalog_group("S3")
    mul, conj = np.array(g.mul), np.array(g.conj)
    group, action = FiniteGroupRealization(mul), GroupAction(g, g, conj)
    assert mul.flags.writeable and conj.flags.writeable
    mul[1], conj[1] = 0, 0
    assert np.array_equal(group.mul, g.mul) and np.array_equal(action.table, g.conj)
    assert not group.mul.flags.writeable and not action.table.flags.writeable
    # a read-only int32 table is kept as it is, not copied
    assert FiniteGroupRealization(g.mul).mul is g.mul
    assert GroupAction(g, g, g.conj).table is g.conj


def _associative_by_all_triples(mul):
    """The replaced check: (a b) c against a (b c) for every triple."""
    return bool(np.array_equal(mul[mul], mul[:, mul]))


SMALL_GROUPS = sorted(name for name, order in CATALOG_ORDERS.items() if order <= 8)


@st.composite
def _tables_with_identity_and_inverses(draw):
    """A catalog group of order at most 8, relabelled by a permutation
    fixing 0, with up to three nonzero products outside row and column 0
    changed to other nonzero elements, so that 0 stays the identity and
    every row keeps one 0; and a generator map of up to three elements."""
    g = catalog_group(draw(st.sampled_from(SMALL_GROUPS)))
    n = g.order
    q = np.array([0] + draw(st.permutations(range(1, n))), dtype=np.intp)
    mul = np.argsort(q)[g.mul[np.ix_(q, q)]]
    if n > 2:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            if mul[a, b] != 0:
                mul[a, b] = draw(st.integers(1, n - 1))
    return mul, draw(st.lists(st.integers(0, n - 1), max_size=3))


@settings(max_examples=300, deadline=None)
@given(_tables_with_identity_and_inverses())
def test_associativity_check_agrees_with_all_triples(case):
    mul, generator_map = case
    try:
        g = FiniteGroupRealization(mul, generator_map=generator_map)
    except ValueError as exc:
        assert "not associative" in str(exc)
        assert not _associative_by_all_triples(mul)
    else:
        assert _associative_by_all_triples(mul)
        assert g.subgroup_closure(g.generating_set) == tuple(range(g.order))
