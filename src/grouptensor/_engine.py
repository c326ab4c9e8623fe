"""Low-level Todd-Coxeter kernels (HLT and Felsch strategies).

Table layout: one row per coset, two columns per generator (column 2g is
the action of generator g, column 2g+1 its inverse, so x ^ 1 flips a
letter).  -1 marks an undefined entry.  Coincidences are tracked in a
union-find array p whose representatives are the minimum-numbered coset
of each class; coset 0 never dies.  The coincidence routine follows the
classical description in the Handbook of Computational Group Theory
(Holt, Eick, O'Brien), transferring rows of dying cosets while keeping
the table's paired-entry property; its queue of dying cosets is an
int32 array.array local to each call.

Relators, subgroup words and Felsch's cyclic conjugates all arrive as
the word arrays of fp.py: rows of letter codes, left aligned and padded
with -1, with their lengths counted once per enumeration by
`_row_lengths`.  A kernel is given the row array, the row index k and
the length r, and scans rows[k, :r] where it lies, with no slice cut.

The kernels are plain Python, and numpy indexing builds a numpy scalar
per entry read, so each driver (`_run_hlt`, `_lookahead`, `_run_felsch`)
hands them memoryviews of the working arrays, taken on entry by
`kernel_views` and dropped when the call returns.  Each driver keeps
the arrays table and rel_rows beside their views for its numpy steps
(`_open_relators`, and HLT's search for missing entries).

Every routine shares one int64 state vector S, which holds enumeration
state only.  A run stops early by raising: `_define` raises TableFull
(no row left) or BudgetExceeded (`budget` cosets defined) before it
writes anything, and the scans raise EnumerationCancelled once the
caller's flag `cancel[0]` is set, which they read after each
open-relator trace, after each relator scan and after each definition
inside a scan.  S[S_ALPHA] and S[S_SGDONE] always say where a stopped
run resumes.  Allocation, growth and compaction live in the Python
wrapper (fp.py), which catches TableFull.  Deduction stack codes pack
a (coset, column) pair as coset * ncols + column in int64, which cannot
overflow for any table that fits in memory.  Every kernel takes the
deduction stack, and deductions are pushed only when it has entries:
Felsch passes a stack of fp._DSTACK_SIZE entries, HLT an empty one.

One routine scans a relator at a coset, `_scan_and_fill`, one defines
a coset, `_define`, and one sets an entry and its mirror, `_join`.  A
scan with a budget of 0 cosets defines none and only deduces or
coincides; lookahead and Felsch's deduction processing scan that way.
The scan, the definition, coincidence processing, standardization and
Felsch's deduction processing are scalar loops.  One routine scans the
relators at a coset, `_scan_open`: a numpy trace of every relator finds
those that may not close there yet, and only those are scanned.
`_run_hlt` calls it with the budget, and HLT's `_lookahead` and the
sweep of Felsch's `_drain` after a deduction-stack overflow with a
budget of 0.  The trace stops once fewer than OPEN_TRACE_MIN_ROWS
relators are still being read and counts those open, so its result is
a superset; scanning a relator that closes changes nothing.  That
replaces most scans, as most relators close.  The check of a completed
table, `_verify`, is a numpy batch routine too.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import BudgetExceeded, EnumerationCancelled

S_NROWS = 0  # rows in use (next fresh coset index)
S_DEAD = 1  # dead cosets among them
S_TOTAL = 2  # cosets defined over the whole run (monotone budget measure)
S_ALPHA = 3  # main-loop row pointer
S_SGDONE = 4  # subgroup generators scanned
S_DLEN = 5  # deduction stack length
S_DOFLOW = 6  # deduction stack overflowed since last sweep
S_SIZE = 7


class TableFull(Exception):
    """No row of the coset table is left for a new coset."""


def kernel_views(*arrays):
    """Memoryviews of the arrays, one each.

    A memoryview reads and writes Python ints, where an ndarray builds a
    numpy scalar per entry: a scan step table[f, rows[k, i]] takes about
    86 ns on views and 179 ns on arrays (timeit, Python 3.11, numpy 2.4,
    2-core VM).  A view writes through to its array, even after the
    array is made read-only, so take views only of working arrays, and
    only for the length of one driver call.
    """
    return tuple(map(memoryview, arrays))


def _row_lengths(rows: np.ndarray) -> np.ndarray:
    """Letters (entries >= 0) in each row of a code array, counted one column at a time.

    The counts come in the narrowest signed integer dtype that holds the
    row width (int8 below 128 columns, int16 below 32,768, else intp), so
    they cost one byte per row on the 3-column tensor rows.  Callers keep
    their arithmetic on them within -1 .. width (length - 1 of an empty
    row is -1) or mix them with intp arrays first.
    """
    width = rows.shape[1]
    dtype = np.int8 if width < 1 << 7 else np.int16 if width < 1 << 15 else np.intp
    length = np.zeros(len(rows), dtype=dtype)
    for j in range(width):
        length += rows[:, j] >= 0
    return length


def _rep(p, k):
    lam = k
    while p[lam] != lam:
        lam = p[lam]
    mu = k
    while mu != lam:
        nxt = p[mu]
        p[mu] = lam
        mu = nxt
    return lam


def _push_ded(dstack, S, a, x, ncols):
    n = S[S_DLEN]
    if n >= dstack.shape[0]:
        S[S_DOFLOW] = 1
    else:
        dstack[n] = a * ncols + x
        S[S_DLEN] = n + 1


def _join(table, dstack, S, a, x, b, ncols):
    """Set the entry of coset a in column x to b and its mirror, pushing
    both as deductions when the deduction stack has entries."""
    table[a, x] = b
    table[b, x ^ 1] = a
    if len(dstack):
        _push_ded(dstack, S, a, x, ncols)
        _push_ded(dstack, S, b, x ^ 1, ncols)


def _define(table, p, dstack, S, a, x, ncols, budget):
    """Define a fresh coset as the image of coset a under column x.

    Raises BudgetExceeded when S[S_TOTAL] has reached `budget`, and else
    TableFull when no row is left, in both cases without defining.
    """
    if S[S_TOTAL] >= budget:
        total = int(S[S_TOTAL])
        raise BudgetExceeded(
            f"enumeration defined {total} cosets without closing (budget {budget})", defined=total, budget=budget
        )
    if S[S_NROWS] >= table.shape[0]:
        raise TableFull()
    beta = S[S_NROWS]
    S[S_NROWS] += 1
    S[S_TOTAL] += 1
    p[beta] = beta
    _join(table, dstack, S, a, x, beta, ncols)


def _merge(p, queue, S, a, b):
    u = _rep(p, a)
    v = _rep(p, b)
    if u != v:
        if u > v:
            u, v = v, u
        p[v] = u
        queue.append(v)
        S[S_DEAD] += 1


def _coincidence(table, p, dstack, S, a, b, ncols):
    # int32 entries, as fp.coset_enumerate's bytes per row count them: a
    # list would hold a 28-byte int object and an 8-byte pointer per coset
    queue = array("i")
    _merge(p, queue, S, a, b)
    # the loop also visits the cosets that die while it runs
    for g in queue:
        for x in range(ncols):
            d = table[g, x]
            if d >= 0:
                # drop the mirror entry, then re-route the edge through
                # the surviving representatives
                table[d, x ^ 1] = -1
                mu = _rep(p, g)
                nu = _rep(p, d)
                t = table[mu, x]
                if t >= 0:
                    _merge(p, queue, S, nu, t)
                else:
                    t2 = table[nu, x ^ 1]
                    if t2 >= 0:
                        _merge(p, queue, S, mu, t2)
                    else:
                        _join(table, dstack, S, mu, x, nu, ncols)


def _scan_and_fill(table, p, dstack, S, alpha, rows, k, r, ncols, budget, cancel):
    """Scan the relator rows[k, :r] at a coset, defining new cosets to
    close any gap; a definition raises as `_define` does.

    With budget 0 it defines none: a scan that would define returns and
    leaves the table as it is, so it only deduces or coincides.
    """
    f = alpha
    i = 0
    b = alpha
    j = r - 1
    while True:
        while i <= j:
            nxt = table[f, rows[k, i]]
            if nxt < 0:
                break
            f = nxt
            i += 1
        if i > j:
            if f != b:
                _coincidence(table, p, dstack, S, f, b, ncols)
            return
        while j >= i:
            nxt = table[b, rows[k, j] ^ 1]
            if nxt < 0:
                break
            b = nxt
            j -= 1
        if j < i:
            _coincidence(table, p, dstack, S, f, b, ncols)
            return
        x = rows[k, i]
        if j == i:
            _join(table, dstack, S, f, x, b, ncols)
            return
        if not budget:
            return
        _define(table, p, dstack, S, f, x, ncols, budget)
        if cancel[0] != 0:
            raise EnumerationCancelled()
        f = table[f, x]
        i += 1


# _open_relators stops its trace once fewer relator rows than this are
# still being read, and counts them open.  Each column step costs about
# 7 numpy calls however few rows it reads: HLT on < a | a^n >, n = 500 to
# 2,000, took 12-17x as long tracing its one row to the end as scanning
# it.  Limits of 4, 8, 16 and 32 rows time the same on those.  Since the
# scans read memoryviews, 32 is faster on the nu(A5) presentation (22
# relators of length 2-18): HLT took 0.74-0.90 s at 8 and 0.52-0.63 s at
# 32 (four runs each, alternating, 2-core VM).  The limit stays at 8
# until the catalog squares, where 32 was not clearly slower or faster,
# are timed in pairs.
OPEN_TRACE_MIN_ROWS = 8


def _open_relators(table, rel_rows, alpha):
    """Indices, in order, of a superset of the -1-padded relator rows that
    do not trace from coset alpha back to alpha.

    All rows are traced at once, one letter column at a time.  A row
    stops at its padding or at an undefined entry.  Both are masked,
    since numpy would read -1 as an index of the last row or column.
    Once fewer than OPEN_TRACE_MIN_ROWS rows are still being read, the
    trace stops and counts those rows open.
    """
    state = np.full(rel_rows.shape[0], alpha, dtype=table.dtype)
    for letters in rel_rows.T:
        step = (state >= 0) & (letters >= 0)
        at = state[step]
        if at.size < OPEN_TRACE_MIN_ROWS:
            state[step] = -1
            break
        state[step] = table[at, letters[step]]
    return np.flatnonzero(state != alpha)


def _scan_open(table, rel_rows, tv, p, dstack, S, rows, rel_len, alpha, ncols, budget, cancel):
    """Scan and fill at live coset alpha the relators `_open_relators`
    finds open there, until alpha dies.

    With budget 0 a scan that would define leaves the table as it is,
    and the next relator is scanned.  The numpy trace reads the arrays
    table and rel_rows, the scans their containers tv and rows.
    """
    open_rows = _open_relators(table, rel_rows, alpha)
    if cancel[0] != 0:
        raise EnumerationCancelled()
    for k in open_rows.tolist():
        _scan_and_fill(tv, p, dstack, S, alpha, rows, k, rel_len[k], ncols, budget, cancel)
        if cancel[0] != 0:
            raise EnumerationCancelled()
        if p[alpha] != alpha:
            break


def _run_hlt(table, p, dstack, S, rel_rows, rel_len, sg_rows, sg_len, ncols, budget, cancel):
    """HLT from coset S[S_ALPHA] on.  At each live coset, scan and fill
    the relators that `_open_relators` does not find closed there yet,
    then define its missing entries, found in the array table.  The
    deduction stack is empty: HLT pushes no deductions.  A run stopped
    by TableFull resumes at the coset S[S_ALPHA] it stopped in.

    A relator that closes at alpha when alpha's pass starts still closes
    at its turn, or alpha has died and the pass ends: definitions only
    fill -1 entries, and coincidence processing maps every edge to an
    edge between representatives.  Scanning a relator that closes
    changes nothing, so whether such a relator is skipped or, being
    among the rows the trace gave up on, scanned, the table, p and S
    evolve exactly as when every relator is scanned, restarts and budget
    counts included.
    """
    tv, p, dstack, S, rows, rel_len, sg_rows, sg_len, cancel = kernel_views(
        table, p, dstack, S, rel_rows, rel_len, sg_rows, sg_len, cancel
    )
    if S[S_SGDONE] == 0:
        for k in range(sg_rows.shape[0]):
            _scan_and_fill(tv, p, dstack, S, 0, sg_rows, k, sg_len[k], ncols, budget, cancel)
        S[S_SGDONE] = 1
    alpha = int(S[S_ALPHA])
    while alpha < S[S_NROWS]:
        if p[alpha] == alpha:
            _scan_open(table, rel_rows, tv, p, dstack, S, rows, rel_len, alpha, ncols, budget, cancel)
            if p[alpha] == alpha:
                for x in np.flatnonzero(table[alpha] < 0).tolist():
                    _define(tv, p, dstack, S, alpha, x, ncols, budget)
        alpha += 1
        S[S_ALPHA] = alpha


def _lookahead(table, p, dstack, S, rel_rows, rel_len, ncols, cancel):
    """Scan everything without defining; harvests pending coincidences.

    coset_enumerate runs it only when the table is full with under a
    quarter of its rows dead and can no longer grow, that is at
    `max_bytes` or at `budget` rows, and then compacts.  As in
    _run_hlt, only the relators `_open_relators` finds open at a coset
    are scanned.
    """
    tv, p, dstack, S, rows, rel_len, cancel = kernel_views(table, p, dstack, S, rel_rows, rel_len, cancel)
    for a in range(int(S[S_NROWS])):
        if p[a] == a:
            _scan_open(table, rel_rows, tv, p, dstack, S, rows, rel_len, a, ncols, 0, cancel)


def _drain(table, rel_rows, tv, p, dstack, S, edp_rows, edp_len, edp_coff, rows, rel_len, ncols, cancel):
    """Process the deduction stack; on overflow, sweep the whole table
    as `_lookahead` does, scanning at each live coset the relators
    `_open_relators` finds open there (skipping those that close changes
    nothing, as `_run_hlt` explains).  The conjugates starting with
    column x are edp_rows[edp_coff[x]:edp_coff[x + 1]]."""
    while True:
        while S[S_DLEN] > 0:
            S[S_DLEN] -= 1
            code = dstack[S[S_DLEN]]
            a = code // ncols
            x = code % ncols
            if p[a] != a:
                continue
            for k in range(edp_coff[x], edp_coff[x + 1]):
                if p[a] != a:
                    break
                _scan_and_fill(tv, p, dstack, S, a, edp_rows, k, edp_len[k], ncols, 0, cancel)
                if cancel[0] != 0:
                    raise EnumerationCancelled()
        if S[S_DOFLOW] == 0:
            return
        S[S_DOFLOW] = 0
        for a in range(S[S_NROWS]):
            if p[a] == a:
                _scan_open(table, rel_rows, tv, p, dstack, S, rows, rel_len, a, ncols, 0, cancel)


def _run_felsch(
    table, p, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, sg_rows, sg_len, ncols, budget, cancel
):
    """Felsch from coset S[S_ALPHA] on: fill each missing entry of each
    live coset in turn, processing the deductions of every definition
    at once.  A run stopped by TableFull resumes at the coset S[S_ALPHA]
    it stopped in."""
    tv, p, dstack, S, edp_rows, edp_len, edp_coff, rows, rel_len, sg_rows, sg_len, cancel = kernel_views(
        table, p, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, sg_rows, sg_len, cancel
    )
    drain = (table, rel_rows, tv, p, dstack, S, edp_rows, edp_len, edp_coff, rows, rel_len, ncols, cancel)
    if S[S_SGDONE] == 0:
        for k in range(sg_rows.shape[0]):
            _scan_and_fill(tv, p, dstack, S, 0, sg_rows, k, sg_len[k], ncols, budget, cancel)
            _drain(*drain)
        S[S_SGDONE] = 1
    alpha = S[S_ALPHA]
    while alpha < S[S_NROWS]:
        if p[alpha] == alpha:
            for x in range(ncols):
                if p[alpha] != alpha:
                    break
                if tv[alpha, x] < 0:
                    _define(tv, p, dstack, S, alpha, x, ncols, budget)
                    _drain(*drain)
        alpha += 1
        S[S_ALPHA] = alpha


def _standardize(table, nrows, ncols):
    """Renumber cosets in breadth-first order from coset 0.

    Requires a complete table whose live rows are exactly those
    reachable from 0; returns a fresh table over the reachable part.
    """
    order = np.empty(nrows, np.int32)
    newidx = np.full(nrows, -1, np.int32)
    order[0] = 0
    newidx[0] = 0
    cnt = 1
    head = 0
    while head < cnt:
        g = order[head]
        head += 1
        for x in range(ncols):
            h = table[g, x]
            if newidx[h] < 0:
                newidx[h] = cnt
                order[cnt] = h
                cnt += 1
    out = np.empty((cnt, ncols), np.int32)
    for i in range(cnt):
        g = order[i]
        for x in range(ncols):
            out[i, x] = newidx[table[g, x]]
    return out


# Entries of the (relators, cosets) state array that _verify traces at
# once (one relator when there are more cosets), so that its memory
# does not grow with the number of relators.
VERIFY_BLOCK = 1 << 16


def _verify(table, rows):
    """0 if the table is a closed, paired action that every -1-padded
    relator row fixes.

    Otherwise 1 (an entry out of range), 2 (an entry whose inverse
    column does not lead back) or 3 (a relator that moves a coset).
    Relators are traced from every coset at once, one letter column at
    a time, in blocks of at most VERIFY_BLOCK coset-relator entries.
    They are taken longest first, so the relators of a block still
    being read at column j are a prefix of it.

    >>> table = np.array([[1, 1], [0, 0]], dtype=np.int32)  # a swaps cosets 0 and 1
    >>> rows = np.array([[0, 0, 0, 0], [1, 1, -1, -1], [0, 1, 0, -1]], dtype=np.int32)
    >>> _verify(table, rows[:2])  # a^4 and a^-2
    0
    >>> _verify(table, rows)  # a a^-1 a moves every coset
    3
    """
    n, ncols = table.shape
    if table.size and (table.min() < 0 or table.max() >= n):
        return 1
    cosets = np.arange(n, dtype=table.dtype)
    back = table[table, np.arange(ncols) ^ 1]
    if not np.array_equal(back, np.broadcast_to(cosets[:, None], back.shape)):
        return 2
    lengths = _row_lengths(rows)
    order = np.argsort(-lengths, kind="stable")
    step = max(VERIFY_BLOCK // n, 1)
    for k in range(0, order.size, step):
        block = order[k : k + step]
        letters, length = rows[block], lengths[block]
        state = np.broadcast_to(cosets, (block.size, n)).copy()
        for j in range(int(length[0])):
            live = int(np.count_nonzero(length > j))
            state[:live] = table[state[:live], letters[:live, j, None]]
        if not np.array_equal(state, np.broadcast_to(cosets, state.shape)):
            return 3
    return 0
