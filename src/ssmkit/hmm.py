"""Exact inference for finite-state hidden Markov models.

Forward/backward passes use per-step normalization with the normalizers
accumulated in log domain.  Time indices reported in errors are 1-based,
matching the t column of series files.

Both passes are one row recursion, r_t = (r_{t-1} @ F) * e_t scaled to
sum to one, with F = A forward and F = A^T over reversed time backward.
_row_recursion forms every row, the first from the prior forward and
from ones backward.  Each row starts as its step's column e_t, and the
per-step kernel finishes it in place (weight by the prediction, sum,
divide, predict), the plain forward recursion's operations in their
order.  Up to _SCAN_MAX_K states, each block is a chunked prefix scan of
linear work, checked row by row against one per-step recursion from the
row before it; scanned rows agree with the kernel's within 1e-12
relative and keep exact zeros.  A block that fails its check runs on the
kernel.  Viterbi runs the max-product recursion on normalized deltas:
each step's row of best log scores has its maximum subtracted, so the
rows are bounded.

One lane driver (_fill_blocks) runs the blocks of all three passes,
filled one of three ways chosen by K and the series length alone
(_block_fill).  Above _SCAN_MAX_K states, and at every K for Viterbi, a
long series runs on lanes: one batched recursion, each step the pass's
kernel step operation for operation, runs every block at once, each
block's lane from a row that knows nothing of the start (a uniform row,
or deltas of zero) some steps before it.  The recursion forgets where it
started, and in floating point that forgetting is exact: a lane that
equals the true row bit for bit at a step has run the kernel's steps from
it.  A block takes its lane's results from its first checkpoint (one every
_LANE_CHECK steps) where the lane equals the true row, with no impossible
step after it; a batched repair round, from the row the predecessor lane
ended on, gives the rows before it where that row is the true one; the
pass's kernel runs the rest from the true row.  So at K > _SCAN_MAX_K the
forward and backward passes, and Viterbi at every K, equal their kernels
byte for byte.  Sum-product rows only contract geometrically, and their
lanes start _LANE_OVERLAP = 256 steps before their blocks; max-product
deltas meet once survivor paths merge, which is finite and fast, and
Viterbi's lanes start _VITERBI_OVERLAP = 64 steps before.

_extended_product owns every underflow: it forms the terms left[i] *
F[i, j] * right[j] from their factors' mantissas and exponents, so that
no term is lost only for being small, and the log of their true sum.
Only rows whose product sums to zero take it: a row of either pass,
where a rare symbol meets a rare move, is the terms' column sums, and a
smoothed row their row sums, its pairwise slab the terms.  Where no term
is positive, the forward pass raises an impossible observation at its
step and a smoothed row NumericalError.  The backward rows are scaled by
their own sums and each smoothed row by its sum, so the backward pass
needs no normalizers and does not overflow where consecutive rare moves
make them tiny.  It runs once, on the emission columns masked to the
states the forward pass allows, so that no excluded state can swamp an
entry a smoothed row needs.  The products with the filtered rows and the
pairwise slabs are formed batched, with no T x K x K temporary, and
smoothed[T-1] equals filtered[T-1] exactly.

Viterbi's path equals the per-step normalized recursion's byte for
byte, and log_joint, the path's log terms summed left to right, equals
what the plain unnormalized recursion returns for that path.  fit_em
filters each model once and hands that pass to the next
baum_welch_step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationSizeError,
    ImpossibleObservationError,
    ModelValidationError,
    NumericalError,
)
from .models import DiscreteHMM, ObservationSeries, StatePath, _row_faults, require_valid

__all__ = [
    "CategoricalPosteriorSequence",
    "SmoothedSequence",
    "BaumWelchStep",
    "EnumerationResult",
    "forward_filter",
    "backward_smooth",
    "predict_states",
    "viterbi",
    "baum_welch_step",
    "fit_em",
    "exact_posterior_enumeration",
]

ENUMERATION_GUARD = 10**6
# Models with at most this many states fill the blocks of the forward and
# backward passes by prefix scans: measured faster than the per-step kernel
# at every series length up to this K, while at K = 9 and 10 the backward
# scan of O(K^3 log n) work was no faster than the kernel.  Above it, the
# passes equal the kernel's byte for byte.
_SCAN_MAX_K = 8
# Steps per block of a pass filled by scans or by the kernel alone.  A scan
# does linear work, so its fixed cost per block dominates: one block covers
# the benchmark's series of 2000 steps.  A block that fails its scan's
# check reruns all its steps on the kernel.  A scanned block's products
# take about _SCAN_BLOCK * K * K floats, and a Viterbi block's gathered log
# emission columns _SCAN_BLOCK * K.  Kernel and Viterbi blocks go on from
# the row or deltas before them, so only scanned rows depend on this size.
_SCAN_BLOCK = 2048
# Steps per chunk of a scan (_scan_block): _SCAN_CHUNK - 1 batched products
# within the chunks, then a scan over _SCAN_BLOCK / _SCAN_CHUNK chunk totals.
# On a block of 2047 rows at K = 2..8 (one BLAS thread), chunks of 8, 12 and
# 16 took within 10% of each other's time, and chunks of 4 up to twice it.
_SCAN_CHUNK = 8
# Largest relative difference, entry by entry, between a scanned row and
# one per-step recursion from the row before it that _scan_block accepts.
_SCAN_RTOL = 1e-12
# Steps per lane block (_fill_blocks), and steps of overlap before each
# block but the first.  Sum-product rows only contract geometrically (Le
# Gland & Mevel 2000): on the exact_long model (K = 10, stay 0.6, T = 1e4)
# forward lanes met the true rows after 112 steps (median) and 145 at most.
# Its Dobrushin coefficient is 0.870, and 0.870**264 < 2**-53.  An overlap
# of 128 saved 2 ms of its 12 ms forward pass but slowed the forward pass at
# K = 12, stay 0.95 (36 -> 61 ms) and at K = 40, stay 0.9 (38 -> 74 ms).
_LANE_BLOCK = 256
_LANE_OVERLAP = 256
# Max-product lanes meet once their survivor paths merge, which is finite
# and fast (Fettweis & Meyr 1991): on the exact_long model Viterbi lanes met
# after 29 steps (median) and 83 at most, so they start 64 steps before
# their block, and a lane that meets later is picked up at a checkpoint.
_VITERBI_OVERLAP = 64
# Steps between a lane's checkpoints within its block: a block is certified
# from the first checkpoint where its lane meets the true row, and a block
# run on the kernel runs in chunks of this many steps.
_LANE_CHECK = 32
# Fewest rows a pass needs to run on lanes rather than on the kernel.
# Lanes take overlap + _LANE_BLOCK batched steps whatever the length;
# at K = 10 (one BLAS thread) they were slower than the kernel at 700 rows
# and level with it at 800-900.  Viterbi's shorter lanes were level with
# its kernel at 512 steps and faster from 700 (K = 10: 7.1 against 12.9 ms
# at 1023 steps).
_LANE_MIN_ROWS = 1024


@dataclass(frozen=True)
class CategoricalPosteriorSequence:
    """Filtering output: row t of filtered is P(X_t | Y_1..Y_t).

    log_normalizers[t] is the log of step t's normalizing constant, so the
    log-likelihood equals their sum; the backward pass reuses them.
    """

    filtered: np.ndarray
    log_normalizers: np.ndarray
    log_likelihood: float


@dataclass(frozen=True)
class SmoothedSequence:
    """Smoothing output: row t of smoothed is P(X_t | Y_1..Y_T); slab t of
    pairwise is P(X_t = i, X_{t+1} = j | Y_1..Y_T)."""

    smoothed: np.ndarray
    pairwise: np.ndarray


@dataclass(frozen=True)
class BaumWelchStep:
    """One EM step: re-estimated model and the log-likelihood of the input
    model.  Rows that received zero expected occupancy are kept equal to
    the input rows and listed here by index."""

    model: DiscreteHMM
    log_likelihood: float
    held_transition_rows: tuple[int, ...] = ()
    held_emission_rows: tuple[int, ...] = ()

    def __iter__(self):
        # Allows ``new_model, loglik = baum_welch_step(...)``.
        return iter((self.model, self.log_likelihood))


@dataclass(frozen=True)
class EnumerationResult:
    """Brute-force posterior over all K**T hidden paths."""

    filtered: np.ndarray
    smoothed: np.ndarray
    pairwise: np.ndarray
    log_likelihood: float
    map_path: np.ndarray
    map_log_joint: float


def _check_symbols(obs: ObservationSeries, m: int) -> np.ndarray:
    if obs.kind != "symbolic":
        raise ModelValidationError(
            "discrete HMM inference requires symbolic observations"
        )
    y = obs.values
    if y.shape[0] < 1:
        raise ValueError("observation series must have at least one entry")
    if y.size and (y.min() < 0 or y.max() >= m):
        bad = int(np.flatnonzero((y < 0) | (y >= m))[0])
        raise ModelValidationError(
            f"symbol {y[bad]} at t={bad + 1} outside alphabet of size {m}"
        )
    return y


def _check_probability_vector(p, k: int, name: str) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape != (k,):
        raise ModelValidationError(f"{name} must have length {k}, got shape {v.shape}")
    s, negative, off = _row_faults(v)
    if negative:
        raise ModelValidationError(f"{name} has negative entries")
    if off:
        raise ModelValidationError(f"{name} sums to {s:.17g}, off by {s - 1.0:.3g}")
    return v


def forward_filter(
    model: DiscreteHMM,
    obs: ObservationSeries,
    initial_override=None,
) -> CategoricalPosteriorSequence:
    """Scaled forward recursion.

    Each step propagates through the transition matrix, reweights by the
    emission column of the observed symbol, and renormalizes; the log of
    each normalizer is accumulated so log_likelihood = sum_t log c_t.
    initial_override replaces model.initial for the first step when given.
    _row_recursion forms every row with F = A; an impossible step raises
    ImpossibleObservationError, and no step after it is computed.
    """
    require_valid(model)
    y = _check_symbols(obs, model.M)
    if initial_override is not None:
        prior = _check_probability_vector(initial_override, model.K, "initial_override")
    else:
        prior = model.initial
    # Each row starts as its step's emission column.
    filtered = model.emission.T.take(y, axis=0)
    norms = np.empty(y.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        end, rescued = _row_recursion(filtered, model.transition, norms, prior)
        log_norms = np.log(norms)
    if end < y.shape[0]:
        raise ImpossibleObservationError(end + 1)
    # A rescued step's sum underflowed; _extended_product gave its log.
    for t, log_norm in rescued.items():
        log_norms[t] = log_norm
    return CategoricalPosteriorSequence(
        filtered=filtered,
        log_normalizers=log_norms,
        log_likelihood=float(log_norms.sum()),
    )


def _block_fill(k: int, n: int, scan: bool = True) -> str:
    """How a pass over n rows of a K-state model fills its blocks: "scan",
    "lanes" or "kernel".  scan is False for Viterbi, whose max-product
    steps have no scan form."""
    if scan and k <= _SCAN_MAX_K:
        return "scan"
    return "lanes" if n >= _LANE_MIN_ROWS else "kernel"


def _fill_blocks(fill, n, overlap, first, other, floor, prepare, take, fill_block):
    """Fill the blocks of a pass over n rows whose row 0 is first: the lane
    driver of the forward, backward and Viterbi passes.

    fill is _block_fill's choice.  Any fill but "lanes" runs blocks of
    _SCAN_BLOCK rows on the pass's fill_block(lo, hi, row), from the true
    row before each, which returns the true row hi - 1, or None to stop
    the pass.  Returns the last row, or None where the pass stopped.

    On "lanes", lane b runs overlap + _LANE_BLOCK batched steps from step
    starts[b] = 1 + b * _LANE_BLOCK: lane 0 from first, every other lane
    from a row of other, which knows nothing of the start.  Lane 0's block
    is all its steps and every other lane's its last _LANE_BLOCK steps;
    there are as many lanes as it takes for the blocks to cover the series.
    Steps past the series, in the last lane, repeat its last row and are
    never taken.  prepare(steps, in_place), where steps[s, b] is lane b's
    step at batched step s, returns out, indexed like steps, and the
    batched step: step(s, rows, out[s], values[s]) returns the lanes' rows
    at batched step s from their rows before it, and writes what the pass
    keeps of each step to out[s] and each row's sum or maximum to
    values[s].  in_place is True for these lanes, laid out as above, and
    False for repair lanes.

    Each row is a function of the row before it, and the recursion forgets
    where it started: a lane whose row equals the true row bit for bit at
    a step has run the kernel's steps from it.  Each lane keeps its row
    every _LANE_CHECK steps of its block, at its checkpoints.  A block is
    certified from its first checkpoint where the lane's row equals the
    true row and every value from there on is above floor: lane b's steps
    i:j go to take(lo, hi, out[i:j, b], values[i:j, b]) for the block's
    rows lo:hi from there on.  Before that checkpoint, the rows run on
    fill_block from the true row, to the next checkpoint that could
    certify, unless a repair lane gives them.  One batched round, before
    the blocks are walked in order, reruns every lane whose row before its
    block differs from its predecessor's row there, from that row, up to
    its first checkpoint equal to its lane's or its block's end.  Where the
    true row before the block equals the predecessor's, the repair lane ran
    the kernel's steps, and its rows are taken when its values are above
    floor.
    """
    if fill != "lanes":
        row = first
        for lo in range(1, n, _SCAN_BLOCK):
            row = fill_block(lo, min(lo + _SCAN_BLOCK, n), row)
            if row is None:
                return None
        return row

    def run(lows, rows, count, in_place, marks, done=lambda m, rows: False):
        # Lanes from rows at steps lows for count batched steps, and their
        # rows after m steps for each m in marks, until done(m, rows).
        steps = np.minimum(np.add.outer(np.arange(count), lows), n - 1)
        (out, step), values = prepare(steps, in_place), np.empty(steps.shape)
        kept = {0: rows}
        for s, (written, value) in enumerate(zip(out, values), 1):
            rows = step(s - 1, rows, written, value)
            if s in marks:
                kept[s] = rows
                if done(s, rows):
                    break
        return out, values, kept

    span = overlap + _LANE_BLOCK
    starts = np.arange(1, max(n - overlap, 2), _LANE_BLOCK)
    # Lane b's block is its batched steps from heads[b], the rows los[b]:his[b].
    heads = np.full(len(starts), overlap)
    heads[0] = 0
    los = starts + heads
    his = np.append(los[1:], n)
    lanes = np.full((len(starts), len(first)), other)
    lanes[0] = first
    marks = {*range(0, span, _LANE_CHECK), *range(overlap, span, _LANE_CHECK)}
    marks |= {span, n - starts[-1]}
    out, values, checks = run(starts, lanes, span, True, marks)
    # A lane whose block is empty (a series of one step) ends on its start.
    ends = [checks[hi - start][b] for b, (hi, start) in enumerate(zip(his, starts))]
    missed = [
        b for b in range(1, len(starts)) if checks[overlap][b].tobytes() != ends[b - 1].tobytes()
    ]
    if missed:
        stops = his[missed] - los[missed]

        def met(m, rows):
            for r, b in enumerate(missed):
                if m < stops[r] and m % _LANE_CHECK == 0:
                    if rows[r].tobytes() == checks[overlap + m][b].tobytes():
                        stops[r] = m
            return (stops <= m).all()

        # Each repair lane's end is kept at its own last step: the last
        # block is shorter than the batch.
        marks = {*range(_LANE_CHECK, _LANE_BLOCK, _LANE_CHECK), *stops.tolist()}
        mended_out, mended_values, mended = run(
            los[missed], np.array([ends[b - 1] for b in missed]), stops.max(), False, marks, met
        )
    repairs = {b: r for r, b in enumerate(missed)}
    row = first
    for b, (lo, hi, head) in enumerate(zip(los, his, heads)):
        i, end = lo, head + hi - lo
        if b in repairs and ends[b - 1].tobytes() == row.tobytes():
            r = repairs[b]
            stop = int(stops[r])
            if (mended_values[:stop, r] > floor).all():
                take(lo, lo + stop, mended_out[:stop, r], mended_values[:stop, r])
                row, i = mended[stop][r], lo + stop
        # The lane's first checkpoint after its last value at or below floor.
        lost = np.flatnonzero(~(values[head:end, b] > floor))
        usable = lo + (-(-(int(lost[-1]) + 1) // _LANE_CHECK) * _LANE_CHECK if lost.size else 0)
        while i < hi:
            m = head + i - lo
            if i >= usable and checks[m][b].tobytes() == row.tobytes():
                take(i, hi, out[m:end, b], values[m:end, b])
                row = ends[b]
                break
            j = min(max(i + _LANE_CHECK, usable), hi)
            row = fill_block(i, j, row)
            if row is None:
                return None
            i = j
    return row


def _row_recursion(
    rows: np.ndarray, matrix: np.ndarray, sums: np.ndarray, first: np.ndarray
) -> tuple[int, dict[int, float]]:
    """Fill rows, row 0 predicted by first: the row recursion of both passes.

    Each row holds its step's column on entry, so that a pass needs no
    T x K array of columns beside its rows.  Row t becomes its prediction
    (first, or rows[t - 1] @ matrix) times its column scaled to sum to one,
    and sums[t] the sum it was scaled by.  Row 0 takes the kernel's
    operations here, and _fill_blocks fills the blocks after it: by scans
    (_scan_block), by lanes from uniform rows, each batched step the
    kernel's step, or by the kernel (_step_block), which also runs every
    block that fails its scan's check and the rows of a lane block that
    neither its lane nor its repair lane gives.  A row whose sum is not
    positive is formed again by _extended_product, and the pass goes on
    from the row after it.  Returns the first step where even that product
    has no positive term, with no rows filled after it, or len(rows) if
    none has; and the log of each rescued step's sum, by step.
    """
    n, k = rows.shape
    fill = _block_fill(k, n)
    rescued = {}
    col = rows[0].copy()
    rows[0] *= first
    rows[0] /= np.add.reduce(rows[0], out=sums[0, ...])
    if not sums[0] > 0.0:
        # Row 0's prediction is first itself: one term per state.
        product = _extended_product(np.ones(1), first[None], col)
        if product is None:
            return 0, rescued
        rows[0], rescued[0] = product[0][0], product[1]

    def prepare(steps, in_place):
        predicted = np.empty((steps.shape[1], 1, k))

        def step(s, previous, lane, lane_sum):
            # A batched product and sum round as _step_block's per-row calls.
            lane *= np.matmul(previous[:, None, :], matrix, out=predicted)[:, 0]
            lane /= np.add.reduce(lane, axis=1, out=lane_sum)[:, None]
            return lane

        # take copies the same rows as rows[steps], in about half the time.
        return rows.take(steps, axis=0), step

    def take(lo, hi, lane_rows, lane_sums):
        rows[lo:hi] = lane_rows
        sums[lo:hi] = lane_sums

    def fill_block(lo, hi, row):
        cols = rows[lo:hi].copy()
        # A scanned block that passes its check has only positive sums.
        if fill == "scan" and _scan_block(rows, lo, hi, matrix, cols, sums):
            return rows[hi - 1]
        start = lo
        while start < hi:
            _step_block(rows, start, hi, matrix, cols[start - lo :], sums)
            lost = np.flatnonzero(~(sums[start:hi] > 0.0))
            if not lost.size:
                break
            t = start + int(lost[0])
            product = _extended_product(rows[t - 1], matrix, cols[t - lo])
            rescued[t] = None if product is None else product[1]
            if product is None:
                return None
            np.add.reduce(product[0], axis=0, out=rows[t])
            start = t + 1
        return rows[hi - 1]

    last = _fill_blocks(fill, n, _LANE_OVERLAP, rows[0], 1.0 / k, 0.0, prepare, take, fill_block)
    if last is None:
        # The step that stopped the pass is the last one rescued.
        return next(reversed(rescued)), rescued
    return n, rescued


def _step_block(
    rows: np.ndarray,
    lo: int,
    hi: int,
    matrix: np.ndarray,
    cols: np.ndarray,
    sums: np.ndarray,
) -> None:
    """Fill rows[lo:hi] from rows[lo - 1] one step at a time.

    Each row starts as its emission column and is finished in place:
    weight by the prediction, sum, divide, predict.  These are the
    operations of the plain forward recursion in its order.
    """
    block = rows[lo:hi]
    block[...] = cols
    predicted = rows[lo - 1] @ matrix
    for t, row in enumerate(block, lo):
        row *= predicted
        # sums[t, ...] is a 0-d view: numpy divides by it faster than by
        # the scalar row.sum() returns, with the same result.
        row /= np.add.reduce(row, out=sums[t, ...])
        predicted = row @ matrix


def _scan_block(
    rows: np.ndarray,
    lo: int,
    hi: int,
    matrix: np.ndarray,
    cols: np.ndarray,
    sums: np.ndarray,
) -> bool:
    """Fill rows[lo:hi] from rows[lo - 1] by a prefix scan, and check it.

    Row t becomes rows[lo - 1] @ F_lo @ ... @ F_t scaled to sum to one,
    where F_s = matrix @ diag(cols[s - lo]).  The scan is chunked, reduce
    then propagate (Blelloch 1990), so a block of n steps takes O(n)
    matrix products:
    1. The factors are laid out chunk-major, (_SCAN_CHUNK, chunks, K, K),
       the last chunk padded with identities, and _SCAN_CHUNK - 1 batched
       matmuls form every chunk's prefix products at once.
    2. An inclusive Hillis-Steele scan over the chunk totals, but the
       last, gives each chunk the product of all factors before it.
    3. Each chunk's rows are its carry row @ its prefix products: one
       batched vector-matrix product over the block.
    Every product is rescaled to unit sum, so a product over many steps
    does not underflow as a whole.  The carry enters through the first
    factor, whose rows all become rows[lo - 1] @ F_lo: every row of a
    product that starts with it is then the wanted row, so chunk 0 needs
    no carry, and the scanned totals give the later chunks theirs.

    A product can still lose an entry that the per-step recursion keeps,
    to zero or to a subnormal float, where its other entries are far
    larger.  So each row is compared with one step of that recursion from
    the row before it, (rows[t - 1] @ matrix) * cols[t - lo] scaled to sum
    to one, whose sums go to sums[lo:hi].  Returns False when some entry
    differs from its step by more than _SCAN_RTOL relative, which includes
    an impossible step (NaN rows) and a lost entry.
    """
    k = matrix.shape[0]
    ones = np.ones(k * k)
    n = hi - lo
    # A block shorter than a chunk is one chunk of its own length.
    c = min(_SCAN_CHUNK, n)
    m = -(-n // c)
    # Step lo + j * c + i is chunk j's factor i, at [i, j]; flat entry
    # (a, b) of F_s is matrix[a, b] * cols[s - lo, b], and tiling the
    # columns k times over is faster than a broadcast multiply.
    padded = np.zeros((m * c, k))
    padded[:n] = cols
    prods = np.tile(padded.reshape(m, c, k).transpose(1, 0, 2), k)
    prods *= matrix.ravel()
    prods = prods.reshape(c, m, k, k)
    prods[n - (m - 1) * c :, m - 1] = np.eye(k)
    prods[0, 0] = rows[lo - 1] @ prods[0, 0]
    # Products go to joined first, so that no matmul writes over its input.
    joined = np.empty((m, k, k))
    joined_flat = joined.reshape(m, k * k)
    for i in range(1, c):
        np.matmul(prods[i - 1], prods[i], out=joined)
        np.divide(joined, (joined_flat @ ones)[:, None, None], out=prods[i])
    # Chunk 0's products start with the carry, so their row 0 is the row.
    carries = np.zeros((m, 1, k))
    carries[0, 0, 0] = 1.0
    totals = prods[c - 1, :-1].copy()
    d = 1
    while d < m - 1:
        part = np.matmul(totals[:-d], totals[d:], out=joined[: m - 1 - d])
        np.divide(part, (joined_flat[: m - 1 - d] @ ones)[:, None, None], out=totals[d:])
        d *= 2
    carries[1:] = totals[:, :1]
    scanned = np.matmul(carries, prods)
    out = rows[lo:hi]
    out[...] = scanned.transpose(1, 0, 2, 3).reshape(m * c, k)[:n]
    out /= (out @ ones[:k])[:, None]
    step = rows[lo - 1 : hi - 1] @ matrix
    step *= cols
    sums[lo:hi] = step @ ones[:k]
    step /= sums[lo:hi, None]
    error = out - step
    np.abs(error, out=error)
    step *= _SCAN_RTOL
    # A NaN on either side fails the comparison.
    return bool((error <= step).all())


def _extended_product(left, matrix, right) -> tuple[np.ndarray, float] | None:
    """The terms left[i] * matrix[i, j] * right[j] scaled to sum to one,
    and the log of their true sum, where the product underflows as it
    stands: each term's product of mantissas is scaled by 2 to its exponent
    less the largest of a positive term's, so that a term is lost only
    below 2**-1074 times the largest.  None when no term is positive."""
    (lm, le), (mm, me), (rm, re) = np.frexp(left), np.frexp(matrix), np.frexp(right)
    mantissas = lm[:, None] * mm * rm
    exps = le[:, None] + me + re
    positive = mantissas > 0.0
    if not positive.any():
        return None
    shift = int(exps[positive].max())
    terms = np.ldexp(mantissas, exps - shift)
    total = np.add.reduce(terms, axis=None)
    terms /= total
    return terms, float(np.log(total) + shift * np.log(2.0))


def backward_smooth(
    model: DiscreteHMM,
    obs: ObservationSeries,
    forward: CategoricalPosteriorSequence,
) -> SmoothedSequence:
    """Scaled backward recursion combined with the forward pass.

    Smoothed row t is elementwise filtered[t] * beta[t], scaled to sum to
    one; row T equals the filtered row exactly.  The backward variables,
    every row of them, run through _row_recursion with F = A^T over
    reversed time, each row scaled by its own sum, so the normalizers are
    not needed.  A smoothed row with no positive scale, and its pairwise
    slab, come from _extended_product; where even that has no positive
    term, NumericalError names the latest such step.
    """
    y = _check_symbols(obs, model.M)
    T, K = y.shape[0], model.K
    if forward.filtered.shape != (T, K):
        raise ValueError(
            f"forward pass has shape {forward.filtered.shape}, data and model need {(T, K)}"
        )
    transition = model.transition
    filtered = forward.filtered
    smoothed = np.empty((T, K))
    # Row j is e_{T-1-j} * beta[T-1-j] up to scale, and starts as the
    # emission column masked to the states the forward pass allows
    # (filtered > 0): an excluded state's large entry could swamp one the
    # posterior needs, and excluded entries reach no smoothed or pairwise
    # value.  Row t of rescaled below is the backward row of step t + 1.
    reversed_rows = model.emission.T.take(y[:0:-1], axis=0)
    reversed_rows[filtered[:0:-1] == 0.0] = 0.0
    rescaled = reversed_rows[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if T > 1:
            # Row 0's prediction is a row of ones: x * 1.0 == x.
            end, _ = _row_recursion(
                reversed_rows, np.ascontiguousarray(transition.T), np.empty(T - 1), np.ones(K)
            )
            reversed_rows[end:] = np.nan
        # Row t is beta[t] = A @ rescaled[t], then filtered[t] * beta[t].
        np.matmul(rescaled, transition.T, out=smoothed[:-1])
        smoothed[:-1] *= filtered[:-1]
        scale = smoothed[:-1] @ np.ones(K)
    # Scaled last, so that a tiny scale cannot overflow a factor to inf.
    pairwise = np.multiply(filtered[:-1, :, None], transition)
    pairwise *= rescaled[:, None, :]
    # A row with no positive scale is its terms' row sums, latest first.
    for t in np.flatnonzero(~(scale > 0.0))[::-1].tolist():
        product = _extended_product(filtered[t], transition, rescaled[t])
        if product is None:
            raise NumericalError(
                f"backward recursion underflowed: smoothed row at t={t + 1} "
                "has no positive mass"
            )
        pairwise[t] = product[0]
        np.add.reduce(pairwise[t], axis=1, out=smoothed[t])
        scale[t] = 1.0
    smoothed[:-1] /= scale[:, None]
    smoothed[T - 1] = filtered[T - 1]
    pairwise /= scale[:, None, None]
    return SmoothedSequence(smoothed=smoothed, pairwise=pairwise)


def predict_states(model: DiscreteHMM, filtered_t, k: int) -> np.ndarray:
    """Push a filtering distribution j steps ahead for j = 1..k.

    Row j-1 of the output equals filtered_t @ transition**j.
    """
    require_valid(model)
    if k < 1:
        raise ValueError("k must be at least 1")
    current = _check_probability_vector(filtered_t, model.K, "filtered_t")
    out = np.empty((k, model.K))
    for j in range(k):
        current = current @ model.transition
        out[j] = current
    return out


def viterbi(model: DiscreteHMM, obs: ObservationSeries) -> tuple[StatePath, float]:
    """Most probable hidden path and its joint log-probability.

    Max-product recursion in log domain on normalized deltas: each step's
    row of best scores has its maximum subtracted, so the rows stay bounded.
    Scores equal in floating point go to the lower state index.
    _fill_blocks runs the steps after the first, on lanes from rows of
    zeros _VITERBI_OVERLAP steps before their blocks where _block_fill
    gives the series to them; the rows that no certified lane or repair
    lane gives, and every block of a shorter series, run on the kernel
    (_viterbi_block) from the deltas before them.  So the path equals the
    per-step normalized recursion's byte for byte.  log_joint is the sum
    of the path's log terms, added left to right as the plain unnormalized
    recursion adds them along that path.
    """
    require_valid(model)
    y = _check_symbols(obs, model.M)
    T, K = y.shape[0], model.K
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)
    # Row j of trans_t holds the scores' terms of the moves into state j.
    trans_t, emit_cols = np.ascontiguousarray(log_trans.T), np.ascontiguousarray(log_emit.T)
    first = emit_cols[y[0]] + log_init
    top = first.max()
    if top == -np.inf:
        raise ImpossibleObservationError(1)
    first -= top
    fill = _block_fill(K, T, scan=False)
    # Lanes write backpointers up to _VITERBI_OVERLAP + _LANE_BLOCK rows
    # past the series.
    back = np.empty((T + _VITERBI_OVERLAP + _LANE_BLOCK, K), dtype=np.int64)

    def prepare(steps, in_place):
        count = steps.shape[1]
        symbols, scores = y.take(steps), np.empty((count, K, K))
        # scores[b, j, i] is flat[offsets[b, j] + i].
        flat, offsets = scores.reshape(-1), np.arange(0, count * K * K, K).reshape(count, K)
        if in_place:
            # Lane b writes the backpointers of its step 1 + b * _LANE_BLOCK
            # + s in place.  Every lane runs the same number of batched
            # steps, so the lane whose block holds a step writes its row
            # last.
            row, item = back.strides
            pointers = np.lib.stride_tricks.as_strided(
                back[1:], (len(steps), count, K), (row, _LANE_BLOCK * row, item)
            )
        else:
            # A repair lane's rows are kept only where its start was the true
            # row, which the walk decides, so its pointers wait in a buffer of
            # their own.
            pointers = np.empty((len(steps), count, K), dtype=np.int64)

        def step(s, previous, written, maxima):
            # _viterbi_block's step, operation for operation: the maximum
            # added is gathered through the argmax, the value the kernel's
            # max returns.
            np.add(previous[:, None, :], trans_t, out=scores)
            scores.argmax(axis=2, out=written)
            # emit_cols[symbols[s]], in a third of the time fancy indexing takes.
            rows = emit_cols.take(symbols[s], axis=0)
            rows += flat[written + offsets]
            rows -= np.maximum.reduce(rows, axis=1, out=maxima)[:, None]
            return rows

        return pointers, step

    def take(lo, hi, pointers, _):
        # A certified lane's pointers are in place already; a repair lane's
        # are copied.
        if not np.may_share_memory(pointers, back):
            back[lo:hi] = pointers

    def fill_block(lo, hi, delta):
        return _viterbi_block(back, lo, trans_t, emit_cols.take(y[lo:hi], axis=0), delta)

    with np.errstate(invalid="ignore"):
        delta = _fill_blocks(
            fill, T, _VITERBI_OVERLAP, first, 0.0, -np.inf, prepare, take, fill_block
        )
    # Python ints through a memoryview: indexing numpy scalars step by
    # step took about twice as long.
    pointers = memoryview(back.reshape(-1))
    states = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        states.append(pointers[t * K + states[-1]])
    path = np.array(states[::-1], dtype=np.int64)
    # The recursion forms each score as fl(e + fl(d + a)), so the sequence
    # log init + log emit, log trans, log emit, ... summed left to right
    # gives the score of the path.
    terms = np.empty(2 * T - 1)
    terms[0] = log_emit[path[0], y[0]] + log_init[path[0]]
    terms[1::2] = log_trans[path[:-1], path[1:]]
    terms[2::2] = log_emit[path[1:], y[1:]]
    return StatePath(path), float(np.cumsum(terms)[-1])


def _viterbi_block(
    back: np.ndarray, lo: int, trans_t: np.ndarray, rows: np.ndarray, previous: np.ndarray
) -> np.ndarray:
    """Fill back[lo:lo + len(rows)] from the normalized deltas previous of
    step lo - 1, one step at a time, and return the deltas of the block's
    last step.

    rows holds the block's gathered log emission columns, and each is
    finished in place: add the transition terms to the deltas before it,
    take each state's first best predecessor into back and its score, add
    it, and subtract the row's maximum.  A row whose maximum is -inf is an
    impossible observation, raised at its step.
    """
    scores = np.empty(trans_t.shape)
    maxima = np.empty(rows.shape[0])
    for t, row in enumerate(rows, lo):
        np.add(previous, trans_t, out=scores)
        scores.argmax(axis=1, out=back[t])
        row += np.maximum.reduce(scores, axis=1)
        # The maximum is kept, through a 0-d view, for the check below.
        row -= np.maximum.reduce(row, out=maxima[t - lo, ...])
        previous = row
    # Every row after an impossible one is NaN, so the first maximum of
    # -inf is the first impossible step.
    impossible = np.flatnonzero(maxima == -np.inf)
    if impossible.size:
        raise ImpossibleObservationError(lo + int(impossible[0]) + 1)
    return previous


def _expected_counts(
    model: DiscreteHMM, y: np.ndarray, smooth: SmoothedSequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The E-step's expected counts: smoothed row 1 (a view), the K x K
    expected transition counts and the K x M expected symbol counts, for
    the symbols y that smooth was run on."""
    K, M = model.K, model.M
    trans_counts = smooth.pairwise.sum(axis=0) if len(y) > 1 else np.zeros((K, K))
    # Each state's expected symbol counts, summed over t in order.
    emit_counts = np.array(
        [np.bincount(y, weights=weights, minlength=M) for weights in smooth.smoothed.T]
    )
    return smooth.smoothed[0], trans_counts, emit_counts


def baum_welch_step(
    model: DiscreteHMM,
    obs: ObservationSeries,
    forward: CategoricalPosteriorSequence | None = None,
) -> BaumWelchStep:
    """One EM re-estimation step.

    E-step runs the forward and backward passes; M-step sets the initial
    law to smoothed row 1, transition rows to normalized expected
    transition counts, and emission rows to normalized expected symbol
    counts.  A state with zero expected occupancy keeps its input row.

    forward, when given, must be forward_filter(model, obs); it is used
    instead of running the forward pass again, and the result is the same.
    A pass whose shape is not (T steps, K states) raises ValueError.
    """
    y = _check_symbols(obs, model.M)
    if forward is None:
        forward = forward_filter(model, obs)
    smooth = backward_smooth(model, obs, forward)
    first, trans_counts, emit_counts = _expected_counts(model, y, smooth)

    new_initial = first.copy()
    new_initial /= new_initial.sum()

    new_rows, held = [], []
    for counts, rows in ((trans_counts, model.transition), (emit_counts, model.emission)):
        # Rows with no expected occupancy keep the input rows.
        denoms = counts.sum(axis=1)[:, None]
        new_rows.append(np.divide(counts, denoms, out=rows.copy(), where=denoms > 0.0))
        held.append(tuple(np.flatnonzero(~(denoms[:, 0] > 0.0)).tolist()))

    return BaumWelchStep(
        model=DiscreteHMM(new_initial, *new_rows),
        log_likelihood=forward.log_likelihood,
        held_transition_rows=held[0],
        held_emission_rows=held[1],
    )


def fit_em(
    model0: DiscreteHMM,
    obs: ObservationSeries,
    tol: float = 1e-6,
    max_iter: int = 100,
    *,
    _with_forward: bool = False,
) -> tuple[DiscreteHMM, list[float]]:
    """Iterate baum_welch_step until the log-likelihood gain drops below tol.

    The trace starts with the initial model's log-likelihood and gains one
    entry per step whose improvement reached tol, so a start at a fixed
    point yields a single-entry trace.  The trace is nondecreasing within
    1e-9 per step.  max_iter bounds the number of steps taken.  Each model
    is filtered once: its forward pass gives both the tolerance test and
    the next step's E-step, so k steps take k + 1 forward passes.

    _with_forward, for the command line, appends the fitted model's forward
    pass to the returned tuple, so that it need not be run again.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    current = model0
    forward = forward_filter(current, obs)
    trace = [forward.log_likelihood]
    for _ in range(max_iter):
        current = baum_welch_step(current, obs, forward).model
        forward = forward_filter(current, obs)
        if forward.log_likelihood - trace[-1] < tol:
            break
        trace.append(forward.log_likelihood)
    if _with_forward:
        return current, trace, forward
    return current, trace


def exact_posterior_enumeration(
    model: DiscreteHMM, obs: ObservationSeries
) -> EnumerationResult:
    """Brute-force posterior by enumerating all K**T hidden paths.

    Prefix weights are expanded one step at a time with the new state as
    the fastest-varying index, so flat prefix index i encodes the path as
    the base-K digits of i (most significant digit = x_1).  Serves as the
    oracle for the recursive algorithms; guarded to K**T <= 10**6.
    """
    require_valid(model)
    y = _check_symbols(obs, model.M)
    T = y.shape[0]
    K = model.K
    if K**T > ENUMERATION_GUARD:
        raise EnumerationSizeError(
            f"K**T = {K}**{T} exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )
    with np.errstate(divide="ignore"):
        log_init = np.log(model.initial)
        log_trans = np.log(model.transition)
        log_emit = np.log(model.emission)

    filtered = np.empty((T, K))
    logw = log_init + log_emit[:, y[0]]  # flat over paths, last axis = newest state
    last = np.arange(K)

    def _filtered_row(logw_flat: np.ndarray, last_states: np.ndarray, t: int) -> np.ndarray:
        m = np.max(logw_flat)
        if m == -np.inf:
            raise ImpossibleObservationError(t + 1)
        w = np.exp(logw_flat - m)
        row = np.bincount(last_states, weights=w, minlength=K)
        return row / row.sum()

    filtered[0] = _filtered_row(logw, last, 0)
    for t in range(1, T):
        logw = (logw[:, None] + log_trans[last] + log_emit[:, y[t]][None, :]).ravel()
        last = np.tile(np.arange(K), last.shape[0])
        filtered[t] = _filtered_row(logw, last, t)

    m = np.max(logw)
    shifted = np.exp(logw - m)
    total = shifted.sum()
    log_likelihood = float(m + np.log(total))
    post = (shifted / total).reshape((K,) * T)

    smoothed = np.empty((T, K))
    for t in range(T):
        axes = tuple(a for a in range(T) if a != t)
        smoothed[t] = post.sum(axis=axes) if axes else post
    pairwise = np.empty((max(T - 1, 0), K, K))
    for t in range(T - 1):
        axes = tuple(a for a in range(T) if a not in (t, t + 1))
        pairwise[t] = post.sum(axis=axes) if axes else post

    best = np.flatnonzero(logw == m)
    candidates = [np.unravel_index(i, (K,) * T) for i in best]
    map_path = np.array(min(candidates, key=lambda p: tuple(reversed(p))), dtype=np.int64)
    return EnumerationResult(
        filtered=filtered,
        smoothed=smoothed,
        pairwise=pairwise,
        log_likelihood=log_likelihood,
        map_path=map_path,
        map_log_joint=float(m),
    )
