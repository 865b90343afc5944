"""RA-binned binomial statistics for surviving candidates.

Under the null hypothesis surviving candidates arrive uniformly in pointing
right ascension across the analysis window, so the count in one RA bin of
probability p out of n total candidates is Binomial(n, p).  Significance is
quoted two ways: the effect size (Cohen's d, the excess over the expected
mean in units of the binomial sigma) and the exact binomial tail
probability, computed in log space so n in the tens of thousands with
p ~ 0.025 cannot underflow or lose the tail to cancellation.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .pairdetect import read_columns, write_csv

@dataclass
class RABinStats:
    """Binomial verdict for one RA bin."""

    ra_low_hr: float
    ra_high_hr: float
    trials_n: int
    p_bin: float
    expected_mean: float
    sigma: float
    observed_count: int
    cohens_d: float
    tail_prob_ge: float
    tail_prob_gt: float

    @property
    def center_hr(self) -> float:
        return 0.5 * (self.ra_low_hr + self.ra_high_hr)


# stats.csv: each RABinStats field, in order, to its write_rows conversion
STATS_COLUMNS = {
    "ra_low_hr": "%.6g", "ra_high_hr": "%.6g", "trials_n": "%d",
    "p_bin": "%.8g", "expected_mean": "%.8g", "sigma": "%.8g",
    "observed_count": "%d", "cohens_d": "%.8g", "tail_prob_ge": "%.8g",
    "tail_prob_gt": "%.8g",
}


@dataclass
class AnalysisResult:
    """Per-bin stats over one analysis window plus the peak bin."""

    stats: list
    peak: RABinStats | None
    n_trials: int
    window_lo_hr: float
    window_hi_hr: float


def _check_np(n: int, p) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    arr = np.asarray(p)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValidationError(f"p must be inside (0, 1), got {p}")


def binomial_tail(n: int, p: float, k: int, strict: bool = False) -> float:
    """Exact upper tail of Binomial(n, p): P(X >= k), or P(X > k) if strict.

    Summed in log space from the far tail inward (smallest terms first) so
    the result is accurate even when it is ~1e-300.  k = 0 non-strict
    returns exactly 1.0.
    """
    _check_np(n, p)
    if not isinstance(k, (int, np.integer)):
        raise ValidationError(f"k must be an integer, got {k!r}")
    if k < 0 or k > n:
        raise ValidationError(f"k = {k} outside [0, {n}]")
    lo = k + 1 if strict else k
    if lo > n:
        return 0.0
    if lo <= 0:
        return 1.0
    log_fact = _log_factorials(n)
    j = np.arange(lo, n + 1)
    log_terms = (log_fact[n] - log_fact[j] - log_fact[n - j]
                 + j * math.log(p) + (n - j) * math.log1p(-p))
    top = float(np.max(log_terms))
    # Ascending sort accumulates the tiny far-tail terms before the big ones.
    scaled = np.sort(np.exp(log_terms - top))
    total = top + math.log(float(np.sum(scaled)))
    return float(min(1.0, math.exp(total)))


@functools.lru_cache(maxsize=1)
def _log_factorials(n: int) -> np.ndarray:
    """Read-only log(i!) for i = 0..n; one table serves all tails of one n."""
    table = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    table.flags.writeable = False
    return table


def cohens_d(observed, n: int, p):
    """Effect size (observed - n p) / sqrt(n p (1 - p)).

    `observed` and `p` may be per-bin arrays; every bin is then scored at
    once, with the same arithmetic as one bin alone.
    """
    _check_np(n, p)
    return (observed - n * p) / np.sqrt(n * p * (1.0 - p))


def bin_counts(ra_hr, bin_edges) -> np.ndarray:
    """In-window entries per RA bin (ra_bin_index), as int64: candidates,
    as analyze's trials, or first-level events, as the exposure of
    bin_probabilities.  Counts of a session's parts add up to the
    session's."""
    bins = ra_bin_index(ra_hr, bin_edges)
    return np.bincount(bins[bins >= 0], minlength=len(bin_edges) - 1)


def bin_probabilities(bin_edges, mode: str = "uniform",
                      exposure=None) -> np.ndarray:
    """Null per-bin probabilities for the RA bins defined by `bin_edges`.

    uniform: p_i proportional to bin width (exactly width/window for equal
    coverage), and exactly 1/n_bins for every bin when the widths agree to
    a relative 1e-9, so that equal counts in equal bins score the same d
    and a tie is never decided by float noise in the widths.  exposure:
    p_i proportional to `exposure`, the number of first-level events in
    each bin (bin_counts), for sessions with uneven time on sky.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValidationError("need at least 2 bin edges")
    if not np.all(np.diff(edges) > 0):
        raise ValidationError("bin edges must be strictly increasing")
    if mode == "uniform":
        widths = np.diff(edges)
        if np.ptp(widths) <= 1e-9 * widths.max():
            return np.full(widths.size, 1.0 / widths.size)
        return widths / (edges[-1] - edges[0])
    if mode == "exposure":
        if exposure is None:
            raise ValidationError("exposure mode needs first-level event "
                                  "counts")
        counts = np.asarray(exposure)
        if counts.shape != (edges.size - 1,):
            raise ValidationError("exposure needs one count per RA bin")
        total = counts.sum()
        if total == 0:
            raise ValidationError("no exposure events inside the window")
        if np.any(counts == 0):
            raise ValidationError(
                "exposure mode found an empty bin; its null probability "
                "would be 0 and the binomial model undefined")
        return counts / total
    raise ValidationError(f"unknown probability mode {mode!r}")


def ra_bin_index(ra_hr, bin_edges) -> np.ndarray:
    """RA bin of each entry; -1 outside the window (not a trial).

    Bin i holds edges[i] <= ra < edges[i+1]: the one binning rule for
    candidates, exposure events and every scorer.
    """
    ra = np.asarray(ra_hr, dtype=float)
    idx = np.searchsorted(bin_edges, ra, side="right") - 1
    return np.where((ra >= bin_edges[0]) & (ra < bin_edges[-1]), idx, -1)


def peak_cohens_d(counts, probs) -> tuple:
    """(d, i): the largest Cohen's d over the RA bins, and its first bin,
    the peak of analyze, null-mc and the delay scan alike.

    `counts` holds each bin's in-window trials (bin_counts; n is their
    sum), `probs` the null per-bin probabilities (bin_probabilities).  No
    trials give (0.0, 0): no signal is no evidence.  No tie is decided by
    float noise: equal bins get bit-identical p (1/n_bins exactly, or c /
    total for equal exposure counts c), so equal counts get equal d.
    """
    n = int(counts.sum())
    if n == 0:
        return 0.0, 0
    d = cohens_d(counts, n, probs)
    i = int(np.argmax(d))
    return float(d[i]), i


def peak_bin(stats) -> RABinStats | None:
    """The peak of a stats list, as analyze picks it: the bin that
    peak_cohens_d picks from its observed counts and p; None for no bins.
    So report.txt, the figure and its caption all name one bin."""
    if not stats:
        return None
    counts = np.array([s.observed_count for s in stats], dtype=np.int64)
    probs = np.array([s.p_bin for s in stats], dtype=float)
    return stats[peak_cohens_d(counts, probs)[1]]


def analyze(candidate_ra_hr, bin_edges, p_mode: str = "uniform",
            exposure=None) -> AnalysisResult:
    """Bin candidate RAs and score every bin against the binomial null.

    Candidates outside [edges[0], edges[-1]) are not trials (the window IS
    the experiment); the peak is peak_bin's, the first bin of largest
    Cohen's d, as peak_cohens_d picks it.

    `exposure` is the per-bin first-level event counts p_mode "exposure"
    needs (see bin_probabilities).  An empty window is not an error: it
    warns and returns empty stats with peak None, so a pipeline run on a
    quiet sky still completes.
    """
    ra = np.asarray(candidate_ra_hr, dtype=float)
    if ra.ndim != 1:
        raise ValidationError("candidate RAs must be 1-D")
    edges = np.asarray(bin_edges, dtype=float)
    probs = bin_probabilities(edges, p_mode, exposure)
    counts = bin_counts(ra, edges)
    n = int(counts.sum())
    if n == 0:
        warnings.warn("no candidates inside the analysis window",
                      stacklevel=2)
        return AnalysisResult([], None, 0, float(edges[0]), float(edges[-1]))
    d = cohens_d(counts, n, probs)
    stats = []
    for i, (k, p) in enumerate(zip(counts.tolist(), probs.tolist())):
        stats.append(RABinStats(
            ra_low_hr=float(edges[i]),
            ra_high_hr=float(edges[i + 1]),
            trials_n=n,
            p_bin=p,
            expected_mean=n * p,
            sigma=math.sqrt(n * p * (1.0 - p)),
            observed_count=k,
            cohens_d=float(d[i]),
            tail_prob_ge=binomial_tail(n, p, k, strict=False),
            tail_prob_gt=binomial_tail(n, p, k, strict=True),
        ))
    return AnalysisResult(stats, peak_bin(stats), n, float(edges[0]),
                          float(edges[-1]))


def write_stats_csv(path, stats) -> None:
    """Write per-bin stats as STATS_COLUMNS declares them."""
    write_csv(path, STATS_COLUMNS, [[getattr(s, name) for s in stats]
                                    for name in STATS_COLUMNS])


def read_stats_csv(path) -> list:
    """Read back a stats CSV (round-trips write_stats_csv)."""
    cols = read_columns(path, STATS_COLUMNS).values()
    return [RABinStats(*row) for row in zip(*(c.tolist() for c in cols))]
