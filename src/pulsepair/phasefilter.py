"""Second-level candidate filtering on the inter-element differential phase.

For a pair of events (a, b) with frequency offset delta_f = f_b - f_a, the
metric is the wrapped change of the east-west phase difference, corrected
for the instrument delay tau_int:

    m = wrap[ (phi_W(b) - phi_E(b)) - (phi_W(a) - phi_E(a))
              + 2 pi delta_f tau_int ]

A genuine point source on the meridian imprints phi_W - phi_E =
fringe_phase(f, tau_geom + tau_int) (channelizer) on each event; the
difference cancels the frequency-independent pieces and the +2 pi delta_f
tau_int term removes the instrument delay, leaving m ~ -2 pi delta_f
tau_geom, which is tiny near transit.  Uncorrelated noise pairs have m
uniform on (-pi, pi], so a half-width of 0.04 rad keeps 0.04/pi ~ 1.27%.

Every function here works on a PairTable (see pairdetect) at once, be it a
whole table's pairs or one chunk of them: the metric, the delta_f window
(delta_f_window, shared by the filter and the delay scan) and the verdicts
are numpy columns aligned with its pairs.

tune_tau_int scans assumed tau_int values and keeps the one whose surviving
candidates maximize the peak in-window Cohen's d; it is how the pipeline
confirms (or discovers) the instrument delay epoch.  The metric of a pair
is linear in tau_int before the wrap, so the scan finds, once per pair,
the runs of taps at which it passes, rather than filtering every pair at
every tap; taps within rounding of a run's edge get the filter's own test,
so each verdict is the one second_level_filter gives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channelizer import TWO_PI, fringe_phase, wrap_phase
from .errors import ValidationError
from .pairdetect import PairTable, write_csv
from .skystats import peak_cohens_d, ra_bin_index

# metric_diagnostics.csv: each column's write_rows conversion, in order
DIAGNOSTIC_COLUMNS = {"delta_f_hz": "%.6g", "log10_delta_f_mhz": "%.6g",
                      "phase_metric_rad": "%.6g", "verdict": "%s"}


@dataclass
class PhaseMetricParams:
    """Second-level filter settings.

    tau_int_s is the assumed instrument delay (negative means the west arm
    is electrically short).  The closed frequency-offset window is expressed
    in log10(|delta_f|/MHz); defaults span 7.9433 Hz to 1.9953 MHz.
    """

    tau_int_s: float = 0.0
    filter_halfwidth_rad: float = 0.04
    log_delta_f_low: float = -5.1
    log_delta_f_high: float = 0.3
    tau_search_low_s: float | None = None
    tau_search_high_s: float | None = None
    tau_search_step_s: float = 1.0e-9

    def __post_init__(self):
        if not self.filter_halfwidth_rad > 0:
            raise ValidationError("filter_halfwidth_rad must be > 0")
        if self.log_delta_f_low > self.log_delta_f_high:
            raise ValidationError("log_delta_f window is inverted")
        if self.tau_search_step_s <= 0:
            raise ValidationError("tau_search_step_s must be > 0")
        if (self.tau_search_low_s is None) != (self.tau_search_high_s is None):
            raise ValidationError("set both or neither tau search bound")
        if (self.tau_search_low_s is not None
                and self.tau_search_high_s <= self.tau_search_low_s):
            raise ValidationError("tau search range is inverted")


def _phase_differences(pairs: PairTable) -> np.ndarray:
    """(phi_W - phi_E)(b) - (phi_W - phi_E)(a) for every pair.

    phi_W - phi_E is taken once per event of the pairs' table (one pair
    chunk) and gathered at b and at a: the same two subtractions per pair
    as four gathers give.
    """
    ev = pairs.events
    phase = ev.phase_west_rad - ev.phase_east_rad
    diff = phase[pairs.b] - phase[pairs.a]
    if not np.isfinite(diff).all():
        raise ValidationError("candidate with non-finite phases")
    return diff


def phase_metrics(pairs: PairTable, tau_int_s: float) -> np.ndarray:
    """Differential-phase metric of every pair, wrapped to (-pi, pi]."""
    return wrap_phase(_phase_differences(pairs)
                      - fringe_phase(pairs.delta_f_hz, tau_int_s))


def _pow10(x: float) -> float:
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


def delta_f_window(pairs: PairTable, params: PhaseMetricParams) -> np.ndarray:
    """True where log10(|delta_f| / 1 MHz) lies in the closed window.

    The default window [-5.1, +0.3] spans 7.9433 Hz to 1.9953 MHz.  A
    degenerate pair with delta_f = 0 never passes.

    |delta_f| / 1 MHz is compared with 10**low and 10**high; math.log10 of
    it decides only the rows within a relative 1e-9 of an edge, so every
    verdict is the one math.log10 gives.  (Near a normal-float edge each
    logarithm is within a few ulp of the true value, far inside the 4e-10
    that 1e-9 moves it.)  An edge that is not a normal float sends every
    row to math.log10.
    """
    lo, hi = params.log_delta_f_low, params.log_delta_f_high
    mhz = np.abs(pairs.delta_f_hz) / 1.0e6
    e_lo, e_hi = _pow10(lo), _pow10(hi)
    if all(sys.float_info.min <= e < math.inf for e in (e_lo, e_hi)):
        ok = mhz > e_lo * (1.0 + 1e-9)
        ok &= mhz < e_hi * (1.0 - 1e-9)
        unsure = mhz >= e_lo * (1.0 - 1e-9)
        unsure &= mhz <= e_hi * (1.0 + 1e-9)
        unsure &= ~ok
    else:
        ok = np.zeros(mhz.size, dtype=bool)
        unsure = mhz != 0.0
    rows = np.flatnonzero(unsure)
    ok[rows] = [lo <= math.log10(v) <= hi for v in mhz[rows].tolist()]
    return ok


_VERDICTS = np.array(["pass", "phase", "delta_f", "delta_f+phase"],
                     dtype=object)


def second_level_filter(candidates: PairTable, params: PhaseMetricParams,
                        explain: bool = False):
    """Keep candidates passing the frequency-offset AND phase windows.

    Both windows are closed.  The phase_metric_rad column of `candidates`
    is filled in for every pair as a side effect (diagnostics plots use the
    rejected ones too).  Returns the surviving PairTable; with explain=True
    returns (survivors, reasons) where reasons is an object array of str
    aligned with the input: "pass", "delta_f", "phase", or "delta_f+phase".
    """
    metric = phase_metrics(candidates, params.tau_int_s)
    candidates.phase_metric_rad = metric
    df_ok = delta_f_window(candidates, params)
    ph_ok = np.abs(metric) <= params.filter_halfwidth_rad
    survivors = candidates.take(np.flatnonzero(df_ok & ph_ok))
    if explain:
        return survivors, _VERDICTS[2 * ~df_ok + ~ph_ok]
    return survivors


# The band around each edge of a pass run in which tune_tau_int tests
# taps one by one is _BAND times max|diff| + max|slope| max|tau| + hw +
# 2 pi radians wide on each side, the maxima over a chunk's pairs: that
# sum bounds every value the metric and the run edges are computed from,
# and their rounding (in diff + slope * tau, in wrap_phase, and in the
# edges' own arithmetic) is a few ulp of it, ~2**-50 of it, far inside
# the band.  So every tap outside a band has the verdict the exact test
# gives.
_BAND = 2.0 ** -40
# (pair, tap) entries tested at once, so a wide band holds bounded memory
_BAND_TAPS = 1 << 20


def _ranges(starts, counts) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1 for each
    i in turn, as one array."""
    ends = np.cumsum(counts)
    return (np.repeat(starts - (ends - counts), counts)
            + np.arange(ends[-1] if ends.size else 0))


def _tally_chunk(pairs: PairTable, params: PhaseMetricParams, taus,
                 bin_edges, table) -> None:
    """Add the pairs of one chunk passing at each tap to `table`.

    `table` is (taps + 1) x bins, int64, and holds the differences along
    the taps of the pass counts: a run [j0, j1) of taps at which a pair
    of RA bin b passes adds +1 at (j0, b) and -1 at (j1, b).  Only the
    pairs in the delta_f window and in an RA bin count.  The metric of a
    pair is linear in tau, so for each multiple 2 pi k its arc reaches it
    passes on the run of taps with |diff + slope tau - 2 pi k| <= hw.
    The taps within a rounding band (_BAND) of a run's edges are decided
    by the exact test abs(wrap_phase(diff + slope * tau)) <= hw, as the
    per-tap filter decides them, and so are all the taps of a pair whose
    arc wraps more often than there are taps, or whose band reaches
    +/-pi, where two wraps' runs could meet.
    """
    diff = _phase_differences(pairs)
    win = np.flatnonzero(delta_f_window(pairs, params))
    # the metric's rate per second of tau
    diff, slope = diff[win], -fringe_phase(pairs.delta_f_hz[win], 1.0)
    n, hw = taus.size, params.filter_halfwidth_rad
    ends = diff + slope * taus[[0, -1], None]
    band = _BAND * (np.abs(diff).max(initial=0.0) + np.abs(slope).max(
        initial=0.0) * np.abs(taus[[0, -1]]).max() + hw + TWO_PI)
    reach = hw + 2.0 * band
    k0 = np.ceil((ends.min(axis=0) - reach) / TWO_PI)
    k1 = np.floor((ends.max(axis=0) + reach) / TWO_PI)
    # the pairs that can pass at some tap, of those in an RA bin
    near = np.flatnonzero(k0 <= k1)
    bins = ra_bin_index(pairs.ra_pointing_hr[win[near]], bin_edges)
    near, bins = near[bins >= 0], bins[bins >= 0]
    diff, slope, k0, k1 = (x[near] for x in (diff, slope, k0, k1))
    every = ~(k1 - k0 < n) | (reach + band >= math.pi)
    # one run per (pair, k); its taps are [j0, c0) band, [c0, c1) sure
    # pass, [c1, j1) band, with j0 <= c0 <= c1 <= j1
    ok = np.flatnonzero(~every)
    runs = (k1[ok] - k0[ok] + 1.0).astype(np.int64)
    pair = np.repeat(ok, runs)
    centre = TWO_PI * _ranges(k0[ok], runs) - diff[pair]
    s = slope[pair]
    outer = np.sign(s) * (hw + band)
    inner = np.sign(s) * (hw - band)
    j0 = np.searchsorted(taus, (centre - outer) / s, "left")
    c0 = np.searchsorted(taus, (centre - inner) / s, "left")
    c1 = np.maximum(c0, np.searchsorted(taus, (centre + inner) / s, "right"))
    j1 = np.searchsorted(taus, (centre + outer) / s, "right")
    width = table.shape[1]
    plus, minus = [c0 * width + bins[pair]], [c1 * width + bins[pair]]
    # the band taps, and every tap of the pairs in `every`
    whole = np.flatnonzero(every)
    seg_pair = np.concatenate([pair, pair, whole])
    seg_lo = np.concatenate([j0, c1, np.zeros(whole.size, dtype=np.int64)])
    seg_n = np.concatenate([c0, j1, np.full(whole.size, n)]) - seg_lo
    seg = np.flatnonzero(seg_n)
    seg_pair, seg_lo, seg_n = seg_pair[seg], seg_lo[seg], seg_n[seg]
    per = max(1, _BAND_TAPS // n)       # segments: each is at most n taps
    for i in range(0, seg_pair.size, per):
        count = seg_n[i:i + per]
        p = np.repeat(seg_pair[i:i + per], count)
        tap = _ranges(seg_lo[i:i + per], count)
        hit = np.abs(wrap_phase(diff[p] + slope[p] * taus[tap])) <= hw
        p, tap = p[hit], tap[hit]
        plus.append(tap * width + bins[p])
        minus.append((tap + 1) * width + bins[p])
    size = table.size
    table += (np.bincount(np.concatenate(plus), minlength=size)
              - np.bincount(np.concatenate(minus), minlength=size)
              ).reshape(table.shape)


def tune_tau_int(chunks, params: PhaseMetricParams, bin_edges, probs):
    """Scan assumed instrument delays; keep the one with the largest peak d.

    Each tau on the grid [tau_search_low_s, tau_search_high_s] (step
    tau_search_step_s) scores peak_cohens_d(counts, probs)[0], the d of
    analyze(...).peak, where counts are the pairs passing the second-level
    filter at that tau in each RA bin of `bin_edges` and `probs` the null
    probabilities (bin_probabilities); no pair in the window scores 0.
    `probs` may also be a function of no arguments that gives them; it is
    called after the last chunk, so a caller can sum the exposure over the
    chunks it yields (pipeline.session_exposure).

    `chunks` is an iterable of PairTables ([pairs] for one table), such
    as (form_pairs(c, K) for c in chunk_events(events, None, K)) gives.
    Of each chunk, the runs of taps at which each pair passes are added to
    a taps x bins table of pass counts (see _tally_chunk), and the chunk
    is dropped before the next is asked for, so chunks made as
    pipeline.consume_session reads the archive hold one chunk of events.
    Every verdict is the one the per-tap filter gives.
    Returns (best_tau_s, best_stat, taus, stats).

    Ties are broken toward the smallest |tau - center of the search range|
    (first such tap on equal distance), so a flat plateau of equally good
    delays reports the tap nearest the scan center rather than an
    arbitrary edge.
    """
    if isinstance(chunks, PairTable):
        raise TypeError("tune_tau_int takes an iterable of PairTable chunks "
                        "([pairs] for one table), not a PairTable")
    if params.tau_search_low_s is None:
        raise ValidationError("tau search range is not set")
    lo, hi, step = (params.tau_search_low_s, params.tau_search_high_s,
                    params.tau_search_step_s)
    taus = np.arange(lo, hi + 0.5 * step, step)
    table = np.zeros((taus.size + 1, len(bin_edges) - 1), dtype=np.int64)
    n_pairs = 0
    for pairs in chunks:
        n_pairs += len(pairs)
        _tally_chunk(pairs, params, taus, bin_edges, table)
        del pairs
    if not n_pairs:
        raise ValidationError("no candidates to tune against")
    if callable(probs):
        probs = probs()
    stats = np.array([peak_cohens_d(counts, probs)[0]
                      for counts in np.cumsum(table[:-1], axis=0)])
    best = float(np.max(stats))
    tied = np.flatnonzero(stats == best)
    center = 0.5 * (lo + hi)
    pick = tied[np.argmin(np.abs(taus[tied] - center))]
    return float(taus[pick]), best, taus, stats


def write_metric_diagnostics_csv(path, candidates: PairTable, verdicts,
                                 append: bool = False) -> None:
    """Dump (delta_f, metric, verdict) per candidate for offline inspection.

    `verdicts` are the reasons second_level_filter(..., explain=True)
    returned for `candidates`, whose phase_metric_rad that call filled in.
    `append` is write_csv's, so a table's chunks can be written in turn.
    """
    write_csv(path, DIAGNOSTIC_COLUMNS, [
        candidates.delta_f_hz, candidates.log10_delta_f_mhz,
        candidates.phase_metric_rad, verdicts], append)
