"""Words, finite presentations, coset enumeration, and finite realizations.

Words are tuples of (generator index, sign) letters, always kept freely
reduced.  Presentations parse from and print to the text grammar

    < a, b | a^2, b^2, (a b)^3 >

with `u = v` accepted as sugar for the relator u v^-1.  Parsing counts
the letters that powers expand to, and raises BudgetExceeded before
they would need more than DEFAULT_MAX_BYTES.

A presentation stores its relators once, as freely reduced rows of
letter codes (2g for g, 2g + 1 for g^-1); enumeration, abelianization
and Tietze reduction read them, and `FpPresentation.relators` decodes
them into words on first use.

Enumeration runs either the HLT strategy (relator scanning with filling,
plus a lookahead pass once the table can no longer grow) or the Felsch
strategy (minimal definitions driven by a deduction stack); both are
classical Todd-Coxeter and must agree.  Completed tables are
standardized by a breadth-first renumbering, so for a fixed presentation
and subgroup the two strategies return byte-identical tables, which the
test suite uses as a cross-engine oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _engine
from ._engine import _row_lengths
from ._jit import kernel_views
from .abelian import FinGenAbelian, IntegerMatrix, abelian_from_relations
from .errors import (
    DEFAULT_MAX_BYTES,
    BudgetExceeded,
    EnumerationCancelled,
    InternalInvariantError,
    ParseError,
    _check_bytes,
)

__all__ = [
    "Word",
    "free_reduce",
    "invert_word",
    "word_power",
    "cyclic_reduce",
    "format_word",
    "parse_word",
    "FpPresentation",
    "parse_presentation",
    "CosetTable",
    "coset_enumerate",
    "FiniteGroupRealization",
    "realize",
    "DEFAULT_BUDGET",
    "DEFAULT_MAX_BYTES",
]

# A word is a tuple of (generator index, sign) letters with sign +1 or -1.
Word = tuple

DEFAULT_BUDGET = 2_000_000


def free_reduce(letters) -> Word:
    """Freely reduce a letter sequence.

    >>> free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)])
    ((0, 1), (0, 1))
    """
    out = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {s!r}")
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def invert_word(w: Word) -> Word:
    return tuple((g, -s) for g, s in reversed(w))


def word_power(w: Word, n: int) -> Word:
    if n < 0:
        w, n = invert_word(w), -n
    return free_reduce(w * n)


def cyclic_reduce(w: Word) -> Word:
    """Strip cancelling first/last letters; the relator it names is unchanged.

    >>> cyclic_reduce(((0, -1), (1, 1), (0, 1)))
    ((1, 1),)
    """
    w = free_reduce(w)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo][0] == w[hi - 1][0] and w[lo][1] == -w[hi - 1][1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def format_word(w: Word, names) -> str:
    """Render a word with collapsed exponent runs; the empty word is "1".

    >>> format_word(((0, 1), (0, 1), (1, -1)), ["a", "b"])
    'a^2 b^-1'
    """
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        g, s = w[i]
        j = i
        while j < len(w) and w[j] == (g, s):
            j += 1
        e = (j - i) * s
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
        i = j
    return " ".join(parts)


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<sym>[<>|,()^=*-]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, position)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}", at)
            if m.group("name"):
                self.items.append(("name", m.group("name"), m.start("name")))
            elif m.group("int"):
                self.items.append(("int", m.group("int"), m.start("int")))
            else:
                self.items.append(("sym", m.group("sym"), m.start("sym")))
            pos = m.end()
        self.k = 0

    def peek(self):
        if self.k < len(self.items):
            return self.items[self.k]
        return ("end", "", len(self.text))

    def next(self):
        t = self.peek()
        self.k += 1
        return t

    def expect_sym(self, sym: str):
        kind, val, pos = self.next()
        if kind != "sym" or val != sym:
            raise ParseError(f"expected {sym!r}, found {val or 'end of input'!r}", pos)


def _parse_int(tok: _Tokens) -> int:
    kind, val, pos = tok.next()
    sign = 1
    if kind == "sym" and val == "-":
        sign = -1
        kind, val, pos = tok.next()
    if kind != "int":
        raise ParseError("expected an integer exponent", pos)
    return sign * int(val)


def _parse_word(tok: _Tokens, index: dict, held: int = 0) -> Word:
    """factor+ where factor = atom ['^' int]; atom = name | '(' word ')' | '1'.

    `held` counts the letters the parse already holds outside this word;
    a power that would take the count past what DEFAULT_MAX_BYTES allows
    raises BudgetExceeded before it is expanded.
    """
    letters = []
    parsed_any = False
    while True:
        kind, val, pos = tok.peek()
        if kind == "name":
            tok.next()
            if val not in index:
                raise ParseError(f"unknown generator {val!r}", pos)
            atom = ((index[val], 1),)
        elif kind == "int" and val == "1":
            tok.next()
            atom = ()
        elif kind == "sym" and val == "(":
            tok.next()
            atom = _parse_word(tok, index, held + len(letters))
            tok.expect_sym(")")
        elif kind == "sym" and val == "*" and parsed_any:
            tok.next()
            continue
        else:
            break
        kind, val, _ = tok.peek()
        if kind == "sym" and val == "^":
            tok.next()
            n = _parse_int(tok)
            need = held + len(letters) + len(atom) * abs(n)
            _check_bytes(need * _PARSE_LETTER_BYTES, DEFAULT_MAX_BYTES, f"a parse of {need} letters")
            atom = word_power(atom, n)
        letters.extend(atom)
        parsed_any = True
    if not parsed_any:
        kind, val, pos = tok.peek()
        raise ParseError(f"expected a word, found {val or 'end of input'!r}", pos)
    return free_reduce(letters)


def _parse_relation(tok: _Tokens, index: dict, held: int) -> list:
    """word ('=' word)* -> one relator per adjacent pair (u v^-1).

    `held` counts the letters of the relators parsed before this one."""
    words = [_parse_word(tok, index, held)]
    while True:
        kind, val, _ = tok.peek()
        if kind == "sym" and val == "=":
            tok.next()
            held += len(words[-1])
            words.append(_parse_word(tok, index, held))
        else:
            break
    if len(words) == 1:
        return [words[0]]
    return [free_reduce(u + invert_word(v)) for u, v in zip(words, words[1:])]


def parse_word(text: str, generator_names) -> Word:
    """Parse one word over the given generator names.

    >>> parse_word("s2 s1^2 s2^-1", ["s1", "s2"])
    ((1, 1), (0, 1), (0, 1), (1, -1))
    """
    index = {n: i for i, n in enumerate(generator_names)}
    tok = _Tokens(text)
    w = _parse_word(tok, index)
    kind, val, pos = tok.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return w


def parse_presentation(text: str) -> "FpPresentation":
    """Parse `< gens | relators >`.

    >>> p = parse_presentation("< a, b | a^2, b^2, (a b)^3 >")
    >>> p.generator_names, len(p.relators)
    (('a', 'b'), 3)
    >>> parse_presentation("<s1,s2| s1 s2 s1 = s2 s1 s2 >").relators[0]
    ((0, 1), (1, 1), (0, 1), (1, -1), (0, -1), (1, -1))
    """
    tok = _Tokens(text)
    tok.expect_sym("<")
    names = []
    while True:
        kind, val, pos = tok.peek()
        if kind == "sym" and val in ("|", ">"):
            break
        if kind == "end":
            raise ParseError("unterminated presentation", pos)
        kind, val, pos = tok.next()
        if kind != "name":
            raise ParseError(f"expected a generator name, found {val!r}", pos)
        if val in names:
            raise ParseError(f"duplicate generator name {val!r}", pos)
        names.append(val)
        kind, val, _ = tok.peek()
        if kind == "sym" and val == ",":
            tok.next()
    relators = []
    kind, val, pos = tok.peek()
    if kind == "sym" and val == "|":
        tok.next()
        index = {n: i for i, n in enumerate(names)}
        kind, val, pos = tok.peek()
        if not (kind == "sym" and val == ">"):
            held = 0
            while True:
                new = _parse_relation(tok, index, held)
                relators.extend(new)
                held += sum(map(len, new))
                kind, val, pos = tok.peek()
                if not (kind == "sym" and val == ","):
                    break
                tok.next()
    tok.expect_sym(">")
    kind, val, pos = tok.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return FpPresentation(tuple(names), tuple(relators))


# Peak bytes per letter held while parsing a presentation: 121-172 under
# tracemalloc for 100,000-200,000 letters in one power, a nested power,
# `a^n = b^n`, and 100 or 5,000 short relators.
_PARSE_LETTER_BYTES = 192
# Peak bytes per relator of the tuple-word view: 290-510 under
# tracemalloc for the 3-letter rows of the D4, A4 and A5 squares.
_WORD_ROW_BYTES = 600
# Peak bytes per exponent-matrix entry of `abelianization`: 25-28 under
# tracemalloc for the S3, D4, Q8 and A4 tensor presentations.
_EXPONENT_ENTRY_BYTES = 32
# Peak bytes per entry of the n x n multiplication table, from `realize`'s
# enumerated table to a checked `FiniteGroupRealization`: 5.2-6.2 under
# tracemalloc at orders 1,000-1,024 (abelian, 2 or 3 generators) and 7.2
# for the cyclic group of order 1,000, whose element words average 250
# letters.  The table and the identity and inverse checks take 5 of them;
# the associativity check reads blocks of at most VERIFY_BLOCK entries.
# The estimate stays at 12, which sets where the default cap refuses a
# table.
_MUL_ENTRY_BYTES = 12
# Peak bytes per letter of the cyclic conjugates `_build_edp` lists: 12.0-12.1
# under tracemalloc for `< a | a^n >`, n = 500, 1,000, 2,000.
_EDP_LETTER_BYTES = 16
# Entries of Felsch's deduction stack.  Deductions past it are dropped
# and, once the stack drains, every relator is scanned at every live
# coset instead; the tests shrink it to 4 to force that sweep.
_DSTACK_SIZE = 1 << 15


@dataclass(frozen=True, eq=False)
class FpPresentation:
    """A finite presentation.  `codes` takes the relators as words or as
    an integer array of -1-padded letter-code rows, and stores them once
    as the freely reduced rows of a read-only int32 array, left aligned
    and as wide as the longest; `relators` is their tuple-word view.

    >>> FpPresentation(("a",), (((0, 1), (0, 1)),)).format()
    '< a | a^2 >'
    >>> FpPresentation(("a", "b"), np.array([[0, 2, 3, 0], [1, -1, -1, -1]])).relators
    (((0, 1), (0, 1)), ((0, -1),))
    """

    generator_names: tuple
    codes: np.ndarray

    def __post_init__(self):
        seen = set()
        for n in self.generator_names:
            if not isinstance(n, str) or not _NAME_RE.fullmatch(n):
                raise ValueError(f"invalid generator name {n!r}")
            if n in seen:
                raise ValueError(f"duplicate generator name {n!r}")
            seen.add(n)
        ncols = 2 * len(self.generator_names)
        rows = self.codes
        if not isinstance(rows, np.ndarray):
            rows = _pad_codes(rows, ncols // 2)
        if rows.ndim != 2 or not np.issubdtype(rows.dtype, np.integer) or (
                rows.size and (rows.min() < -1 or rows.max() >= ncols)):
            raise ValueError(f"relator codes must be a 2-d integer array with entries in -1 .. {ncols - 1}")
        rows = _reduce_rows(rows.astype(np.int32, copy=False))
        rows.flags.writeable = False
        object.__setattr__(self, "codes", rows)

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @cached_property
    def relators(self) -> tuple:
        """The relators as words; raises BudgetExceeded when they would
        need more than DEFAULT_MAX_BYTES."""
        count = len(self.codes)
        _check_bytes(count * _WORD_ROW_BYTES, DEFAULT_MAX_BYTES, f"the words of {count} relators")
        return _decode_rows(self.codes)

    def __eq__(self, other):
        if not isinstance(other, FpPresentation):
            return NotImplemented
        return self.generator_names == other.generator_names and np.array_equal(self.codes, other.codes)

    def __hash__(self):
        return hash((self.generator_names, self.codes.shape, self.codes.tobytes()))

    def with_extra_relators(self, extra) -> "FpPresentation":
        """The presentation with `extra` (words or code rows) appended."""
        if not isinstance(extra, np.ndarray):
            extra = _pad_codes(extra, self.num_generators)
        return FpPresentation(self.generator_names, _stack_rows(self.codes, extra))

    def abelianization(self) -> FinGenAbelian:
        """Quotient by all commutators, via the relator exponent matrix
        (BudgetExceeded when it would need more than DEFAULT_MAX_BYTES).

        >>> parse_presentation("< a | a^2 >").abelianization()
        FinGenAbelian(free_rank=0, invariant_factors=(2,))
        >>> parse_presentation("<s1,s2| s1 s2 s1 = s2 s1 s2 >").abelianization()
        FinGenAbelian(free_rank=1, invariant_factors=())
        """
        n, rows = self.num_generators, self.codes
        _check_bytes(len(rows) * n * _EXPONENT_ENTRY_BYTES, DEFAULT_MAX_BYTES, f"a {len(rows)} x {n} exponent matrix")
        exponents = np.zeros((len(rows), n), dtype=np.int64)
        at, col = np.nonzero(rows >= 0)
        c = rows[at, col]
        np.add.at(exponents, (at, c >> 1), 1 - 2 * (c & 1))
        m = IntegerMatrix(len(rows), n, tuple(exponents.ravel().tolist()))
        return abelian_from_relations(n, m)

    def format(self) -> str:
        gens = ", ".join(self.generator_names)
        rels = ", ".join(format_word(w, self.generator_names) for w in self.relators)
        return f"< {gens} | {rels} >" if rels else f"< {gens} | >"

    def __str__(self) -> str:
        return self.format()


# ------------------------------------------------------------ enumeration


def _letter_code(g, s):
    """Coset-table column of a letter: 2g for g, 2g + 1 for g^-1."""
    return 2 * g + (s < 0)


# Word arrays: one word per row of letter codes, left aligned and padded
# with -1.  Indexing a code map extended by a trailing -1 with such rows
# keeps the padding at -1.  The enumeration engine takes relators,
# subgroup words and cyclic conjugates in this layout too.  Arrays hold
# hundreds of thousands of rows only a few codes wide, so work on a
# whole array goes one column at a time: per-row tests and counts
# (`_engine._row_lengths`) loop over the columns rather than reduce
# along a row, rows are selected with np.take and np.compress, and rows
# are compared through one int64 key per row (`_row_keys`).  Each
# temporary is then one column wide, and row counts take one byte per
# row while rows are narrower than 128 codes.  Each helper returns a
# fresh array and leaves its input alone, so a caller that rebinds its
# rows after each call holds at most two generations of them at once.
# Rows are reduced by one routine, `_reduce_rows`: freely, and with
# `cyclic` cyclically as well.  One pass over the columns flags the rows
# that need work, and only those run through the per-row stack.
# Rows are deduplicated by one kernel, `_key_runs`: it packs each key
# with its row index as key * n + index (n rows), sorts that once with
# numpy's unstable, vectorised ndarray.sort, and reads the first index
# of each run of equal keys.  `_row_keys` keeps every key below
# 2**62 // n so that the packing fits in int64, and `_first_occurrences`
# sorts VERIFY_BLOCK rows at a time.


def _pad_codes(words, ngens: int) -> np.ndarray:
    """Letter codes of words as the rows of a -1-padded int32 array;
    ValueError for a letter that is not a (generator, sign) pair in range."""
    words = tuple(words)
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    letters = np.array([letter for w in words for letter in w], dtype=np.int64).reshape(-1, 2)
    g, s = letters[:, 0], letters[:, 1]
    if len(letters) != lengths.sum() or not (np.isin(s, (1, -1)) & (g >= 0) & (g < ngens)).all():
        raise ValueError(f"a letter is not a pair (generator 0 .. {ngens - 1}, sign +1 or -1)")
    rows = np.full((lengths.size, lengths.max(initial=0)), -1, dtype=np.int32)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = _letter_code(g, s)
    return rows


def _decode_rows(rows: np.ndarray) -> tuple:
    """Words of -1-padded letter-code rows."""
    return tuple(tuple((c >> 1, 1 - 2 * (c & 1)) for c in row if c >= 0) for row in rows.tolist())


def _stack_rows(*parts) -> np.ndarray:
    """The rows of -1-padded code arrays one after another, padded to the widest."""
    out = np.full((sum(map(len, parts)), max(p.shape[1] for p in parts)), -1, dtype=np.int32)
    for p, start in zip(parts, np.cumsum([0, *map(len, parts)])):
        out[start : start + len(p), : p.shape[1]] = p
    return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of an integer array with entries >= -1.

    Keys are equal exactly when rows are equal, and they sort as the
    rows do lexicographically (-1 lowest).  Columns are mixed in one at a
    time in base max + 2.  Every key stays below 2**62 // len(rows), so
    that `_key_runs` can pack key * len(rows) + index into an int64:
    whenever the next column would pass that limit, the running key is
    first replaced by its dense rank among the rows, found by `_key_runs`.
    Should even a dense rank leave no room for a whole column (when
    len(rows)**2 * (max + 2) passes 2**62, as for 2**22 rows of codes
    near 2**20), each code + 1 is first split into big-endian digits of
    a width that fits, one column each, which order and compare the same.

    >>> rows = np.array([[2, 0, -1], [0, 1, 2], [2, 0, -1], [0, -1, -1]])
    >>> _row_keys(rows)
    array([52, 27, 52, 16])
    >>> np.argsort(_row_keys(rows), kind="stable")
    array([3, 1, 0, 2])
    """
    count, width = rows.shape
    limit = (1 << 62) // max(count, 1)
    base = int(rows.max(initial=-1)) + 2
    if count * base > limit:
        bits = (limit // count).bit_length() - 1  # count * 2**bits <= limit
        top = ((base - 1).bit_length() - 1) // bits * bits  # shift of the leading digit
        codes = rows.astype(np.int64) + 1
        digits = [(codes[:, j] >> s & (1 << bits) - 1) - 1 for j in range(width) for s in range(top, -1, -bits)]
        del codes  # freed before the digits are stacked
        return _row_keys(np.stack(digits, axis=1))
    key = np.zeros(count, dtype=np.int64)
    bound = 1  # every key is below bound
    for j in range(width):
        if bound * base > limit:
            order, head = _key_runs(key)
            rank = np.cumsum(head)
            rank -= 1
            key[order] = rank
            bound = int(rank[-1]) + 1
            del order, head, rank  # freed before the next rank allocates
        key *= base
        key += rows[:, j]
        key += 1
        bound *= base
    return key


def _key_runs(key: np.ndarray) -> tuple:
    """The indices of int64 keys in key order, equal keys in index order,
    and a mask of where each run of equal keys starts in that order.

    One unstable sort of key * n + index (n = len(key)) gives both, so
    the first index of each run is the first occurrence of its key.  The
    keys must be >= 0 and below 2**62 // n, so that the packing fits in
    int64; keys of `_row_keys`, or any part of them, are.
    """
    n = len(key)
    order = key * n
    order += np.arange(n)
    order.sort()
    run = order // n
    head = np.ones(n, dtype=bool)
    np.not_equal(run[1:], run[:-1], out=head[1:])
    run *= n
    order -= run
    return order, head


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in row order.

    The keys go through `_key_runs` VERIFY_BLOCK rows at a time, so that
    the sort's temporaries stay bounded; the first occurrences within
    each block are the candidates, and one more `_key_runs` over the
    candidates, in row order, keeps the earliest of each key.
    """
    key = _row_keys(rows)
    block = _engine.VERIFY_BLOCK
    firsts = [np.zeros(0, dtype=np.intp)]
    for k in range(0, len(key), block):
        order, head = _key_runs(key[k : k + block])
        firsts.append(np.compress(head, order) + k)
    firsts = np.sort(np.concatenate(firsts))
    order, head = _key_runs(key.take(firsts))
    return firsts.take(np.sort(np.compress(head, order)))


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as np.unique(rows, axis=0):
    the first row of each run of `_key_runs`, which is in key order."""
    order, head = _key_runs(_row_keys(rows))
    return rows.take(np.compress(head, order), axis=0)


def _reduce_rows(rows: np.ndarray, cyclic: bool = False) -> np.ndarray:
    """Freely reduce every row of letter codes, skipping -1 anywhere, and
    with `cyclic` also strip cancelling first and last letters.

    One pass over the columns flags the rows that need work: a -1 before
    a letter, a letter beside its inverse or, with `cyclic`, a first
    letter that cancels the last (the letter before a -1 or the edge,
    once the row is left aligned).  Only those rows run through a stack
    per row, one column at a time for all of them together, and then,
    with `cyclic`, through the end strip on that stack; the others are
    copied unchanged.  The result is int32, left aligned, -1-padded and
    as wide as its longest row.
    """
    count, width = rows.shape
    need = np.zeros(count, dtype=bool)
    # -1 ^ 1 is -2, so rows starting with -1 never match
    first = rows[:, 0] ^ 1 if cyclic and width else None
    for j in range(width - 1):
        before, after = rows[:, j], rows[:, j + 1]
        need |= (before < 0) & (after >= 0)
        need |= (before ^ 1) == after
        if cyclic:
            need |= (before == first) & (after < 0)
    if first is not None:
        need |= rows[:, -1] == first
    redo = np.flatnonzero(need)
    del need, first  # freed before the lengths are counted
    length = _row_lengths(rows)
    if not redo.size:
        return rows[:, : length.max(initial=0)].astype(np.int32)
    sub = rows.take(redo, axis=0)
    idx = np.arange(len(redo))
    stack = np.full((len(redo), width), -1, dtype=np.int32)
    top = np.zeros(len(redo), dtype=length.dtype)
    for j in range(width):
        c = sub[:, j]
        cancel = (c >= 0) & (top > 0) & (stack[idx, top - 1] == (c ^ 1))
        push = (c >= 0) & ~cancel
        top[cancel] -= 1
        stack[idx[push], top[push]] = c[push]
        top[push] += 1
    del sub, c, cancel, push  # freed before the output is allocated
    lo = np.zeros_like(top)
    while cyclic:
        strip = np.flatnonzero(top - lo >= 2)
        strip = strip[stack[strip, lo[strip]] == (stack[strip, top[strip] - 1] ^ 1)]
        if not strip.size:
            break
        lo[strip] += 1
        top[strip] -= 1
    top -= lo  # the reduced lengths; letters past them are stale
    length[redo] = top
    out = rows[:, : length.max(initial=0)].astype(np.int32)
    for j in range(out.shape[1]):
        # lo + j stays within the stack (and the dtype) wherever j < top
        out[redo, j] = np.where(top > j, stack[idx, np.minimum(lo, width - 1 - j) + j], -1)
    return out


def _conjugate_rows(rows: np.ndarray):
    """Yield rotation k of every nonempty, left-aligned row, then of its
    inverse, for k < width; a row of length l repeats rotation k mod l."""
    idx, cols = np.arange(len(rows))[:, None], np.arange(rows.shape[1])
    length = _row_lengths(rows)[:, None]
    inside = cols < length
    inverse = rows[idx, np.where(inside, length - 1 - cols, cols)] ^ 1
    for base in (rows, inverse):
        for k in range(rows.shape[1]):
            yield np.where(inside, base[idx, np.where(inside, (cols + k) % length, cols)], -1)


def _cyclic_class_firsts(rows: np.ndarray) -> np.ndarray:
    """Indices of the first row of each class under rotation and inversion.

    The rows must be nonempty, freely and cyclically reduced.  Each row
    is keyed by the lexicographically least rotation of its word and of
    the word's inverse; only the first occurrence of each distinct row is
    keyed, since a class's first row is always one of those.  The
    indices are in row order.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.intp)
    distinct = _first_occurrences(rows)
    rows = rows.take(distinct, axis=0)
    idx = np.arange(len(rows))
    key = rows.copy()
    for rotated in _conjugate_rows(rows):
        differ = rotated != key
        first = differ.argmax(axis=1)
        less = rotated[idx, first] < key[idx, first]  # equal rows compare column 0
        np.copyto(key, rotated, where=less[:, None])
    return distinct.take(_first_occurrences(key))


def _cyclic_relator_classes(rows: np.ndarray) -> np.ndarray:
    """Cyclically reduced, nonempty relator rows, one per class under
    rotation and inversion, in order."""
    rows = _reduce_rows(rows, cyclic=True)
    rows = np.compress(_row_lengths(rows) > 0, rows, axis=0)
    return rows.take(_cyclic_class_firsts(rows), axis=0)


def _build_edp(rows: np.ndarray, ncols, max_bytes: int) -> tuple:
    """The distinct cyclic conjugates of each relator row and its inverse,
    as -1-padded rows ordered by first letter, row and value, and the
    offsets of each first letter's run.  The 2 * width conjugates of
    each row are `width` wide; before they are listed their bytes are
    estimated, and above `max_bytes` this raises BudgetExceeded."""
    count, width = rows.shape
    _check_bytes(2 * count * width * width * _EDP_LETTER_BYTES, max_bytes, f"{2 * count * width} cyclic conjugates")
    conj = np.concatenate([*_conjugate_rows(rows), rows[:0]])
    keyed = _distinct_rows(np.column_stack([conj[:, :1], np.tile(np.arange(count), 2 * width), conj]))
    return keyed[:, 2:].astype(np.int32), np.searchsorted(keyed[:, 0], np.arange(ncols + 1)).astype(np.int64)


class CosetTable:
    """A complete, standardized coset table.

    Rows are cosets (row 0 is the subgroup itself), columns alternate
    generator and inverse.  The table is read-only.
    """

    def __init__(self, table: np.ndarray, presentation: FpPresentation, subgroup_words):
        self.table = table
        self.table.flags.writeable = False
        self.presentation = presentation
        self.subgroup_words = tuple(subgroup_words)

    @property
    def num_cosets(self) -> int:
        return int(self.table.shape[0])

    def trace(self, coset: int, w: Word) -> int:
        c = int(coset)
        for g, s in w:
            c = int(self.table[c, _letter_code(g, s)])
        return c

    def permutation(self, gen: int) -> np.ndarray:
        """The permutation a generator induces on cosets."""
        return self.table[:, 2 * gen].copy()

    def __eq__(self, other):
        return isinstance(other, CosetTable) and np.array_equal(self.table, other.table)

    def __repr__(self):
        return f"CosetTable(num_cosets={self.num_cosets}, gens={self.presentation.num_generators})"


def _as_word(w, presentation: FpPresentation) -> Word:
    if isinstance(w, str):
        return parse_word(w, presentation.generator_names)
    return free_reduce(w)


def _compact(table, p, S):
    """Renumber the live cosets 0, 1, ... in order, in the table, p and
    S[S_ALPHA].

    Felsch deductions are pending only when the table filled during a
    subgroup-generator scan; they are dropped and marked lost, so that
    `_engine._drain`'s overflow sweep derives them again.
    """
    n = int(S[_engine.S_NROWS])
    pa = p[:n].astype(np.int64)
    while True:
        pb = pa[pa]
        if np.array_equal(pb, pa):
            break
        pa = pb
    live = np.flatnonzero(pa == np.arange(n))
    newidx = np.full(n, -1, np.int64)
    newidx[live] = np.arange(live.size)
    tt = table[:n][live]
    mask = tt >= 0
    out = np.full_like(tt, -1)
    out[mask] = newidx[pa[tt[mask]]]
    if (out[mask] < 0).any():
        raise InternalInvariantError("live coset references a dead coset during compaction")
    table[: live.size] = out
    table[live.size : n] = -1
    p[:n] = np.arange(n, dtype=np.int32)
    if S[_engine.S_DLEN] > 0:
        S[_engine.S_DLEN] = 0
        S[_engine.S_DOFLOW] = 1
    alpha = int(S[_engine.S_ALPHA])
    if alpha < n:
        S[_engine.S_ALPHA] = int(newidx[pa[alpha]])
    S[_engine.S_NROWS] = live.size
    S[_engine.S_DEAD] = 0


def coset_enumerate(
    presentation: FpPresentation,
    subgroup=(),
    *,
    strategy: str = "hlt",
    budget: int = DEFAULT_BUDGET,
    max_bytes: int = DEFAULT_MAX_BYTES,
    cancel: np.ndarray | None = None,
) -> CosetTable:
    """Todd-Coxeter enumeration of the cosets of a subgroup.

    `subgroup` is an iterable of words (or strings in the presentation's
    generators) generating the subgroup.  `budget` caps the total number
    of cosets ever defined; exceeding it raises BudgetExceeded, which
    signals "did not close within budget", never "the index is infinite".
    `max_bytes` caps the coset table and, for Felsch, the cyclic
    conjugates of the relators; BudgetExceeded again when either would
    pass it.
    When the table runs out of rows, it is compacted if at least a
    quarter of them hold dead cosets, and otherwise doubled, up to the
    rows `max_bytes` and `budget` allow.  Once it cannot grow, HLT looks
    ahead (scans every relator at every coset without defining, as in
    ACE and the Handbook of Computational Group Theory, 5.2); then the
    table is compacted if any coset is dead, and otherwise the memory
    cap is exceeded.
    `cancel` may be an int64 array of length 1; setting its entry
    nonzero from another thread aborts the run with EnumerationCancelled.
    The flag is read after every open-relator trace, every relator scan
    and every definition inside a scan, so a run stops at the next of
    these once it is set.

    The returned table is standardized (cosets renumbered breadth-first
    from the subgroup coset), so both strategies ("hlt" and "felsch")
    return identical tables.

    >>> coset_enumerate(parse_presentation("< a | a^6 >")).num_cosets
    6
    """
    if strategy not in ("hlt", "felsch"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    ngens = presentation.num_generators
    sub_words = tuple(_as_word(w, presentation) for w in subgroup)
    if ngens == 0:
        table = np.zeros((1, 0), dtype=np.int32)
        return CosetTable(table, presentation, sub_words)

    ncols = 2 * ngens
    rel_rows = _cyclic_relator_classes(presentation.codes)
    sg_rows = _pad_codes([w for w in sub_words if w], ngens)
    rel_len, sg_len = _row_lengths(rel_rows), _row_lengths(sg_rows)
    if strategy == "felsch":
        edp_rows, edp_coff = _build_edp(rel_rows, ncols, max_bytes)
        edp_len = _row_lengths(edp_rows)
        dstack = np.zeros(_DSTACK_SIZE, dtype=np.int64)
    else:
        dstack = np.zeros(1, dtype=np.int64)

    bytes_per_row = 4 * ncols + 8
    max_rows = max(int(max_bytes // bytes_per_row), 1)
    cap = min(1024, budget, max_rows)
    table = np.full((cap, ncols), -1, dtype=np.int32)
    p = np.arange(cap, dtype=np.int32)
    queue = np.zeros(cap, dtype=np.int32)
    S = np.zeros(_engine.S_SIZE, dtype=np.int64)
    S[_engine.S_NROWS] = 1
    S[_engine.S_TOTAL] = 1
    if cancel is None:
        cancel = np.zeros(1, dtype=np.int64)

    while True:
        if strategy == "hlt":
            st = _engine._run_hlt(table, p, queue, dstack, S, rel_rows, rel_len, sg_rows, sg_len, ncols, budget, cancel)
        else:
            *arrays, flag = kernel_views(
                table, p, queue, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, sg_rows, sg_len, cancel
            )
            st = _engine._run_felsch(*arrays, ncols, budget, flag)
        if st == _engine.STATUS_OK:
            break
        if st == _engine.STATUS_BUDGET:
            raise BudgetExceeded(
                f"enumeration defined {int(S[_engine.S_TOTAL])} cosets without closing"
                f" (budget {budget})",
                defined=int(S[_engine.S_TOTAL]),
                budget=budget,
            )
        if st == _engine.STATUS_CANCELLED:
            raise EnumerationCancelled()
        # STATUS_GROW: with under a quarter of the rows dead, grow, else
        # (HLT) look ahead; then compact if any coset is dead
        few_dead = int(S[_engine.S_DEAD]) * 4 < int(S[_engine.S_NROWS])
        newcap = min(cap * 2, max_rows, budget) if few_dead else cap
        if newcap > cap:
            new_table = np.full((newcap, ncols), -1, dtype=np.int32)
            new_table[:cap] = table
            new_p = np.arange(newcap, dtype=np.int32)
            new_p[:cap] = p
            table, p = new_table, new_p
            queue = np.zeros(newcap, dtype=np.int32)
            cap = newcap
            continue
        if strategy == "hlt" and few_dead:
            st = _engine._lookahead(table, p, queue, dstack, S, rel_rows, rel_len, ncols, cancel)
            if st == _engine.STATUS_CANCELLED:
                raise EnumerationCancelled()
        if int(S[_engine.S_DEAD]) > 0:
            _compact(table, p, S)
            continue
        raise BudgetExceeded(
            f"coset table would exceed the memory cap ({max_bytes} bytes)",
            defined=int(S[_engine.S_TOTAL]),
            budget=budget,
        )

    nrows = int(S[_engine.S_NROWS])
    live = int(nrows - S[_engine.S_DEAD])
    std = _engine._standardize(table, nrows, ncols)
    if std.shape[0] != live:
        raise InternalInvariantError(
            f"standardization reached {std.shape[0]} cosets, {live} live"
        )
    if int(_engine._verify(std, rel_rows)) != 0:
        raise InternalInvariantError("completed table fails relator verification")
    result = CosetTable(std, presentation, sub_words)
    for w in sub_words:
        if result.trace(0, w) != 0:
            raise InternalInvariantError("subgroup generator does not fix coset 0")
    return result


# ------------------------------------------------------------ realization


class FiniteGroupRealization:
    """A finite group as an explicit multiplication table.

    Element 0 is the identity.  `mul[i, j]` is the product i * j, `inv`
    the inverse table and `conj` the conjugation table, which every
    conjugation job reads.  Construction checks the identity and inverse
    laws everywhere and associativity by Light's test: (x y) s = x (y s)
    for every x and y and every s in `generating_set`.  The s that pass
    are closed under products and hold the identity, and every element
    is a product of generators, so the law holds for all s.
    """

    def __init__(self, mul: np.ndarray, generator_map=(), element_words=None, presentation=None):
        mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        n = mul.shape[0]
        if n == 0:
            raise ValueError("a group has at least the identity element")
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("multiplication table entries out of range")
        self.generator_map = tuple(int(g) for g in generator_map)
        if not all(0 <= g < n for g in self.generator_map):
            raise ValueError("generator map entries out of range")
        idx = np.arange(n)
        if not np.array_equal(mul[0], idx) or not np.array_equal(mul[:, 0], idx):
            raise ValueError("element 0 must act as the identity")
        # n zeros, one in each row
        self.inv = np.argmax(mul == 0, axis=1).astype(np.int32)
        if np.count_nonzero(mul == 0) != n or (mul[idx, self.inv] != 0).any():
            raise ValueError("some element has no unique inverse")
        self.mul = mul
        self.order = n
        # (x y) s against x (y s) in blocks of at most VERIFY_BLOCK
        # entries: a few s at a time for all x, or above order 256 one s
        # for a few x at a time
        gens = self.generating_set
        step, rows = max(_engine.VERIFY_BLOCK // (n * n), 1), max(_engine.VERIFY_BLOCK // n, 1)
        for k in range(0, len(gens), step):
            cols = mul[:, list(gens[k : k + step])]
            for x in range(0, n, rows):
                block = mul[x : x + rows]
                if not np.array_equal(cols.take(block, axis=0), block.take(cols, axis=1)):
                    raise ValueError("multiplication table is not associative")
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False
        self.identity = 0
        self.element_words = tuple(element_words) if element_words is not None else None
        self.presentation = presentation

    def __len__(self) -> int:
        return self.order

    def __repr__(self):
        return f"FiniteGroupRealization(order={self.order})"

    def mul_elements(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @cached_property
    def conj(self) -> np.ndarray:
        """The read-only conjugation table ``conj[x, y] = x^y = y^-1 x y``,
        n x n int32 like `mul`, from two gathers over `mul` and `inv`."""
        idx = np.arange(self.order)
        conj = self.mul[self.mul[self.inv[None, :], idx[:, None]], idx[None, :]]
        conj.flags.writeable = False
        return conj

    def conjugate(self, x: int, y: int) -> int:
        """x^y = y^-1 x y."""
        return int(self.conj[x, y])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y = x^-1 x^y."""
        return int(self.mul[self.inv[x], self.conj[x, y]])

    def power(self, x: int, n: int) -> int:
        if n < 0:
            x, n = int(self.inv[x]), -n
        acc = 0
        for _ in range(n):
            acc = int(self.mul[acc, x])
        return acc

    def element_order(self, x: int) -> int:
        k = 1
        acc = int(x)
        while acc != 0:
            acc = int(self.mul[acc, x])
            k += 1
        return k

    def evaluate_word(self, w: Word) -> int:
        """Evaluate a word in the presentation generators."""
        acc = 0
        for g, s in w:
            e = self.generator_map[g]
            acc = int(self.mul[acc, e if s > 0 else self.inv[e]])
        return acc

    @cached_property
    def generating_set(self) -> tuple:
        """A generating set: each `generator_map` element and then each
        element in order, kept when it lies outside the subgroup that
        the ones kept so far generate."""
        gens, reached = [], np.zeros(self.order, dtype=bool)
        reached[0] = True
        for x in (*self.generator_map, *range(self.order)):
            if not reached[x]:
                gens.append(x)
                reached[list(self.subgroup_closure(gens))] = True
        return tuple(gens)

    def subgroup_closure(self, gens) -> tuple:
        """The subgroup generated by the given elements (an iterable, or an
        integer array of any shape), sorted, from a breadth-first search
        of right multiplications by them."""
        mask = np.zeros(self.order, dtype=bool)
        mask[gens if isinstance(gens, np.ndarray) else np.fromiter(gens, dtype=np.intp)] = True
        gens = np.flatnonzero(mask)
        seen = np.zeros(self.order, dtype=bool)
        seen[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            reached = np.zeros(self.order, dtype=bool)
            reached[self.mul[frontier[:, None], gens[None, :]]] = True
            frontier = np.flatnonzero(reached & ~seen)
            seen |= reached
        return tuple(np.flatnonzero(seen).tolist())

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def center(self) -> tuple:
        mask = (self.mul == self.mul.T).all(axis=1)
        return tuple(int(z) for z in np.flatnonzero(mask))

    def commutator_subgroup(self) -> tuple:
        """[G, G], generated by every x^-1 x^y."""
        return self.subgroup_closure(self.mul[self.inv[:, None], self.conj])

    def is_normal(self, subgroup) -> bool:
        """Whether every conjugate of every element of `subgroup` lies in it."""
        sub = np.fromiter(subgroup, dtype=np.intp)
        member = np.zeros(self.order, dtype=bool)
        member[sub] = True
        return bool(member[self.conj[sub]].all())

    def quotient_by(self, subgroup) -> tuple:
        """Quotient by a normal subgroup; returns (group, projection).

        `projection[e]` is the quotient index of the coset of e.
        """
        sub = tuple(sorted(int(x) for x in subgroup))
        if not sub or sub[0] != 0:
            raise ValueError("subgroup must contain the identity")
        if not self.is_normal(sub):
            raise ValueError("subgroup is not normal")
        rep = self.mul[:, sub].min(axis=1)
        ids = np.flatnonzero(np.bincount(rep, minlength=self.order))
        proj = np.searchsorted(ids, rep).astype(np.int32)
        mul_q = proj[rep[self.mul[np.ix_(ids, ids)]]]
        gmap = tuple(int(proj[g]) for g in self.generator_map)
        return FiniteGroupRealization(mul_q, generator_map=gmap), proj

    def abelian_invariants(self) -> FinGenAbelian:
        """Invariant factors of the abelianization.

        Works by repeatedly splitting off a cyclic factor generated by
        an element of maximal order, which in a finite abelian group is
        always a direct summand; no factorization and no relation matrix
        is involved, making this an independent check on the Smith form
        route.
        """
        q, _ = self.quotient_by(self.commutator_subgroup())
        divisors = []
        while q.order > 1:
            orders = [q.element_order(x) for x in range(q.order)]
            m = max(orders)
            x = orders.index(m)
            divisors.append(m)
            q, _ = q.quotient_by(q.subgroup_closure([x]))
        return FinGenAbelian.from_divisors(divisors)

    def regular_presentation(self) -> FpPresentation:
        """One generator per element, one relator per product."""
        n = self.order
        names = tuple(f"x{i}" for i in range(n))
        i, j = np.divmod(np.arange(n * n), n)
        return FpPresentation(names, np.stack([2 * i, 2 * j, 2 * self.mul[i, j] + 1], axis=1))


def realize(
    presentation: FpPresentation,
    *,
    strategy: str = "hlt",
    budget: int = DEFAULT_BUDGET,
    max_bytes: int = DEFAULT_MAX_BYTES,
    cancel: np.ndarray | None = None,
) -> FiniteGroupRealization:
    """Concrete finite group from a presentation, via the regular action.

    Enumerates cosets of the trivial subgroup; coset 0 becomes the
    identity, and each element carries a representative word read off
    the breadth-first spanning tree of the standardized table, along
    which each column of the multiplication table is one gather.  The
    bytes of the n x n multiplication table and its checks are estimated
    first, and above `max_bytes` this raises BudgetExceeded.

    >>> realize(parse_presentation("< a, b | a^2, b^2, (a b)^3 >")).order
    6
    """
    ct = coset_enumerate(
        presentation, (), strategy=strategy, budget=budget, max_bytes=max_bytes, cancel=cancel
    )
    n = ct.num_cosets
    _check_bytes(n * n * _MUL_ENTRY_BYTES, max_bytes, f"a {n} x {n} multiplication table")
    table = ct.table
    # The standardized table numbers cosets in the order they first
    # appear in it, row by row: coset j > 0 first appears on the edge
    # from its parent along which the breadth-first renumbering reached it.
    first = np.flatnonzero(np.diff(np.maximum.accumulate(table.ravel()), prepend=0))
    parent, column = np.divmod(first, table.shape[1])
    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n)
    # one shared (generator, sign) tuple per column, not one per letter
    letters = [(c // 2, 1 if c % 2 == 0 else -1) for c in range(table.shape[1])]
    element_words = [()]
    for j, (a, c) in enumerate(zip(parent.tolist(), column.tolist()), 1):
        mul[:, j] = table[mul[:, a], c]
        element_words.append(element_words[a] + (letters[c],))
    return FiniteGroupRealization(
        mul, generator_map=table[0, ::2], element_words=element_words, presentation=presentation
    )
