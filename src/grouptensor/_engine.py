"""Low-level Todd-Coxeter kernels (HLT and Felsch strategies).

Table layout: one row per coset, two columns per generator (column 2g is
the action of generator g, column 2g+1 its inverse, so x ^ 1 flips a
letter).  -1 marks an undefined entry.  Coincidences are tracked in a
union-find array p whose representatives are the minimum-numbered coset
of each class; coset 0 never dies.  The coincidence routine follows the
classical description in the Handbook of Computational Group Theory
(Holt, Eick, O'Brien), transferring rows of dying cosets while keeping
the table's paired-entry property.

Relators, subgroup words and Felsch's cyclic conjugates all arrive as
the word arrays of fp.py: rows of letter codes, left aligned and padded
with -1, with their lengths counted once per enumeration by
`_row_lengths`.  The kernels scan row k as rows[k, :lengths[k]].

Every routine shares one int64 state vector S, which holds enumeration
state only, and every routine that can stop early returns its status:
STATUS_OK, or STATUS_GROW (no row left), STATUS_BUDGET (`budget` cosets
defined) or STATUS_CANCELLED (the caller's `cancel` flag is set).  The
flag `cancel[0]` is read after each open-relator trace, after each
relator scan and after each definition inside a scan.  Allocation,
growth, compaction, and error raising live in the Python wrapper
(fp.py).  Deduction stack codes pack a (coset, column) pair as
coset * ncols + column in int64, which cannot overflow for any table
that fits in memory.

One routine scans a relator at a coset, `_scan_and_fill`, and one
defines a coset, `_define`.  A scan with a budget of 0 cosets defines
none and only deduces or coincides; lookahead and Felsch's deduction
processing scan that way.  The scan, the definition, coincidence
processing, standardization and the whole Felsch strategy are @njit.
The HLT drivers `_run_hlt` and `_lookahead` are plain numpy/Python, the
same with or without numba: at each coset one numpy trace of every
relator finds the relators that may not close there yet, and only those
go to the jitted scans.  The trace stops once fewer than
OPEN_TRACE_MIN_ROWS relators are still being read and counts those
open, so its result is a superset; scanning a relator that closes
changes nothing.  On the pure-Python path that replaces most scans, as
most relators close; the timing with numba has not been measured.  The
check of a completed table, `_verify`, is a numpy batch routine too.
"""

from __future__ import annotations

import numpy as np

from ._jit import njit

S_NROWS = 0  # rows in use (next fresh coset index)
S_DEAD = 1  # dead cosets among them
S_TOTAL = 2  # cosets defined over the whole run (monotone budget measure)
S_ALPHA = 3  # main-loop row pointer
S_SGDONE = 4  # subgroup generators scanned
S_DLEN = 5  # deduction stack length
S_DOFLOW = 6  # deduction stack overflowed since last sweep
S_SIZE = 7

STATUS_OK = 0
STATUS_GROW = 1
STATUS_BUDGET = 2
STATUS_CANCELLED = 3


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


@njit(cache=True)
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


@njit(cache=True)
def _push_ded(dstack, S, a, x, ncols):
    n = S[S_DLEN]
    if n >= dstack.shape[0]:
        S[S_DOFLOW] = 1
    else:
        dstack[n] = a * ncols + x
        S[S_DLEN] = n + 1


@njit(cache=True)
def _define(table, p, dstack, S, a, x, ncols, budget, use_ded):
    """Define a fresh coset as the image of coset a under column x, or
    return STATUS_BUDGET (S[S_TOTAL] has reached `budget`) or else
    STATUS_GROW (no row left) without defining."""
    if S[S_TOTAL] >= budget:
        return STATUS_BUDGET
    if S[S_NROWS] >= table.shape[0]:
        return STATUS_GROW
    beta = S[S_NROWS]
    S[S_NROWS] += 1
    S[S_TOTAL] += 1
    p[beta] = beta
    table[a, x] = beta
    table[beta, x ^ 1] = a
    if use_ded:
        _push_ded(dstack, S, a, x, ncols)
        _push_ded(dstack, S, beta, x ^ 1, ncols)
    return STATUS_OK


@njit(cache=True)
def _merge(p, queue, S, a, b, qt):
    u = _rep(p, a)
    v = _rep(p, b)
    if u != v:
        if u > v:
            u, v = v, u
        p[v] = u
        queue[qt] = v
        qt += 1
        S[S_DEAD] += 1
    return qt


@njit(cache=True)
def _coincidence(table, p, queue, dstack, S, a, b, ncols, use_ded):
    qt = _merge(p, queue, S, a, b, 0)
    qh = 0
    while qh < qt:
        g = queue[qh]
        qh += 1
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
                    qt = _merge(p, queue, S, nu, t, qt)
                else:
                    t2 = table[nu, x ^ 1]
                    if t2 >= 0:
                        qt = _merge(p, queue, S, mu, t2, qt)
                    else:
                        table[mu, x] = nu
                        table[nu, x ^ 1] = mu
                        if use_ded:
                            _push_ded(dstack, S, mu, x, ncols)
                            _push_ded(dstack, S, nu, x ^ 1, ncols)


@njit(cache=True)
def _scan_and_fill(table, p, queue, dstack, S, alpha, word, ncols, budget, use_ded, cancel):
    """Scan a relator at a coset, defining new cosets to close any gap.

    With budget 0 it defines none: a scan that would define returns
    STATUS_BUDGET and leaves the table as it is, so it only deduces or
    coincides.
    """
    r = word.shape[0]
    f = alpha
    i = 0
    b = alpha
    j = r - 1
    while True:
        while i <= j:
            nxt = table[f, word[i]]
            if nxt < 0:
                break
            f = nxt
            i += 1
        if i > j:
            if f != b:
                _coincidence(table, p, queue, dstack, S, f, b, ncols, use_ded)
            return STATUS_OK
        while j >= i:
            nxt = table[b, word[j] ^ 1]
            if nxt < 0:
                break
            b = nxt
            j -= 1
        if j < i:
            _coincidence(table, p, queue, dstack, S, f, b, ncols, use_ded)
            return STATUS_OK
        if j == i:
            table[f, word[i]] = b
            table[b, word[i] ^ 1] = f
            if use_ded:
                _push_ded(dstack, S, f, word[i], ncols)
                _push_ded(dstack, S, b, word[i] ^ 1, ncols)
            return STATUS_OK
        st = _define(table, p, dstack, S, f, word[i], ncols, budget, use_ded)
        if st != STATUS_OK:
            return st
        if cancel[0] != 0:
            return STATUS_CANCELLED
        f = table[f, word[i]]
        i += 1


# _open_relators stops its trace once fewer relator rows than this are
# still being read, and counts them open.  Each column step costs about
# 7 numpy calls however few rows it reads: HLT on < a | a^n >, n = 500 to
# 2,000, took 12-17x as long tracing its one row to the end as scanning
# it.  Limits of 4, 8, 16 and 32 rows time the same on those; on the
# catalog presentations and on the nu(A5) presentation (22 relators of
# length 2-18) 8 was fastest, and 32 was 1.5x slower on nu(A5) as more
# relators were scanned (pure Python, no numba).
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


def _run_hlt(table, p, queue, dstack, S, rel_rows, rel_len, sg_rows, sg_len, ncols, budget, cancel):
    """HLT from coset S[S_ALPHA] on.  At each live coset, scan and fill
    the relators that `_open_relators` does not find closed there yet,
    then define its missing entries.  Returns the status.

    A relator that closes at alpha when alpha's pass starts still closes
    at its turn, or alpha has died and the pass ends: definitions only
    fill -1 entries, and coincidence processing maps every edge to an
    edge between representatives.  Scanning a relator that closes
    changes nothing, so whether such a relator is skipped or, being
    among the rows the trace gave up on, scanned, the table, p and S
    evolve exactly as when every relator is scanned, restarts and budget
    counts included.
    """
    if S[S_SGDONE] == 0:
        for k in range(sg_rows.shape[0]):
            w = sg_rows[k, : sg_len[k]]
            st = _scan_and_fill(table, p, queue, dstack, S, 0, w, ncols, budget, False, cancel)
            if st != STATUS_OK:
                return st
        S[S_SGDONE] = 1
    alpha = int(S[S_ALPHA])
    while alpha < S[S_NROWS]:
        if p[alpha] == alpha:
            st = _hlt_pass(table, p, queue, dstack, S, rel_rows, rel_len, alpha, ncols, budget, cancel)
            if st != STATUS_OK:
                S[S_ALPHA] = alpha
                return st
        alpha += 1
        S[S_ALPHA] = alpha
    return STATUS_OK


def _hlt_pass(table, p, queue, dstack, S, rel_rows, rel_len, alpha, ncols, budget, cancel):
    """The HLT pass at live coset alpha; returns a status."""
    rows = _open_relators(table, rel_rows, alpha)
    if cancel[0] != 0:
        return STATUS_CANCELLED
    for k in rows:
        w = rel_rows[k, : rel_len[k]]
        st = _scan_and_fill(table, p, queue, dstack, S, alpha, w, ncols, budget, False, cancel)
        if st != STATUS_OK:
            return st
        if cancel[0] != 0:
            return STATUS_CANCELLED
        if p[alpha] != alpha:
            return STATUS_OK
    for x in np.flatnonzero(table[alpha] < 0):
        st = _define(table, p, dstack, S, alpha, x, ncols, budget, False)
        if st != STATUS_OK:
            return st
    return STATUS_OK


def _lookahead(table, p, queue, dstack, S, rel_rows, rel_len, ncols, cancel):
    """Scan everything without defining; harvests pending coincidences.
    Returns STATUS_OK, or STATUS_CANCELLED.

    coset_enumerate runs it only when the table is full with under a
    quarter of its rows dead and can no longer grow, that is at
    `max_bytes` or at `budget` rows, and then compacts.  As in
    _run_hlt, only the relators `_open_relators` finds open at a coset
    are scanned.
    """
    for a in range(int(S[S_NROWS])):
        if p[a] != a:
            continue
        rows = _open_relators(table, rel_rows, a)
        if cancel[0] != 0:
            return STATUS_CANCELLED
        for k in rows:
            if p[a] != a:
                break
            w = rel_rows[k, : rel_len[k]]
            _scan_and_fill(table, p, queue, dstack, S, a, w, ncols, 0, False, cancel)
            if cancel[0] != 0:
                return STATUS_CANCELLED
    return STATUS_OK


@njit(cache=True)
def _drain(table, p, queue, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, ncols, cancel):
    """Process the deduction stack; sweep the whole table on overflow.
    The conjugates starting with column x are edp_rows[edp_coff[x]:edp_coff[x + 1]]."""
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
                w = edp_rows[k, : edp_len[k]]
                _scan_and_fill(table, p, queue, dstack, S, a, w, ncols, 0, True, cancel)
                if cancel[0] != 0:
                    return STATUS_CANCELLED
        if S[S_DOFLOW] == 0:
            return STATUS_OK
        S[S_DOFLOW] = 0
        for a2 in range(S[S_NROWS]):
            if p[a2] != a2:
                continue
            for k in range(rel_rows.shape[0]):
                if p[a2] != a2:
                    break
                w = rel_rows[k, : rel_len[k]]
                _scan_and_fill(table, p, queue, dstack, S, a2, w, ncols, 0, True, cancel)
                if cancel[0] != 0:
                    return STATUS_CANCELLED


@njit(cache=True)
def _run_felsch(
    table, p, queue, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, sg_rows, sg_len, ncols, budget, cancel
):
    """Felsch from coset S[S_ALPHA] on: fill each missing entry of each
    live coset in turn, processing the deductions of every definition
    at once.  Returns the status."""
    if S[S_SGDONE] == 0:
        for k in range(sg_rows.shape[0]):
            w = sg_rows[k, : sg_len[k]]
            st = _scan_and_fill(table, p, queue, dstack, S, 0, w, ncols, budget, True, cancel)
            if st == STATUS_OK:
                st = _drain(table, p, queue, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, ncols, cancel)
            if st != STATUS_OK:
                return st
        S[S_SGDONE] = 1
    alpha = S[S_ALPHA]
    while alpha < S[S_NROWS]:
        if p[alpha] == alpha:
            for x in range(ncols):
                if p[alpha] != alpha:
                    break
                if table[alpha, x] < 0:
                    st = _define(table, p, dstack, S, alpha, x, ncols, budget, True)
                    if st == STATUS_OK:
                        st = _drain(
                            table, p, queue, dstack, S, edp_rows, edp_len, edp_coff, rel_rows, rel_len, ncols, cancel
                        )
                    if st != STATUS_OK:
                        S[S_ALPHA] = alpha
                        return st
        alpha += 1
        S[S_ALPHA] = alpha
    return STATUS_OK


@njit(cache=True)
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
