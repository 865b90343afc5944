"""FFT channelization and per-bin detection statistics.

Conventions, fixed across the package:

* Frames of `frame_seconds` of complex baseband are transformed with a plain
  DFT scaled by 1/N, so a bin-centered tone of voltage amplitude A lands in
  one bin with power A**2 regardless of frame length.  Under that gain a
  noise stream of per-sample variance N yields unit mean bin power; the
  simulator targets a unit per-bin noise floor, and every SNR in the package
  is relative to that floor's local estimate.
* Bin k of a frame spans rf = band_low + k / frame_seconds; bin width is
  exactly 1 / frame_seconds (3.7037 Hz for the standard 0.27 s frame).
* SNR is segment-relative: bins are grouped into consecutive segments of
  `bins_per_segment` (256 by default) and each bin's power is compared with
  the mean power of its own segment.  By default the bin under test is
  included in that mean, which biases strong bins down slightly; the
  estimator-corrected crossing probability below accounts for it exactly.
* Phases are wrapped to the half-open interval (-pi, pi].
* A tone reaching the west element tau late has phase(W) - phase(E) =
  fringe_phase(f, tau) = -2 pi f tau: a delay is a phase lag.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

DEFAULT_BINS_PER_SEGMENT = 256
TWO_PI = 2.0 * math.pi


def wrap_phase(phi):
    """Wrap angle(s) into (-pi, pi]: m = np.mod(phi, 2 pi), less 2 pi
    where m > pi, to the bit.

    It takes np.mod's steps without its division: for |x| <= 4 pi,
    fmod's result is x folded once by 2 pi, which is exact (Sterbenz); a
    negative remainder then gets + 2 pi, rounded, as np.mod adds it, and
    adding 0.0 elsewhere turns -0.0 into np.mod's +0.0.  Rows beyond
    4 pi, and non-finite rows, take np.mod itself.  Masks are applied as
    products, as a select on a random mask mispredicts its branches.
    """
    x = np.asarray(phi, dtype=float)
    flat = x.reshape(-1)
    far = np.flatnonzero(~(np.abs(flat) <= 2.0 * TWO_PI))
    m = flat - TWO_PI * (flat >= TWO_PI)
    m += TWO_PI * (m <= -TWO_PI)
    m[far] = np.mod(flat[far], TWO_PI)
    m += TWO_PI * (m < 0.0)
    m -= TWO_PI * (m > math.pi)
    return m.reshape(x.shape)


def fringe_phase(rf_hz, delay_s):
    """phase(W) - phase(E) of a tone of rf_hz reaching W delay_s late."""
    return -TWO_PI * rf_hz * delay_s


def fft_frame(samples, frame_seconds: float,
              sample_rate_hz: float) -> np.ndarray:
    """Channelize one frame of complex baseband: FFT(samples) / N.

    The sample count must equal round(frame_seconds * sample_rate_hz) and
    match it to better than half a sample; a stream that drifts off the
    frame grid is a configuration error, not something to hide with
    resampling.
    """
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValidationError("samples must be 1-D")
    if frame_seconds <= 0 or sample_rate_hz <= 0:
        raise ValidationError("frame_seconds and sample_rate_hz must be > 0")
    expected = frame_seconds * sample_rate_hz
    n = x.size
    if abs(n - expected) > 0.5:
        raise ValidationError(
            f"got {n} samples for a {frame_seconds} s frame at "
            f"{sample_rate_hz} Hz (expected {expected:.1f})")
    if n == 0:
        raise ValidationError("empty frame")
    return np.fft.fft(x) / n


def snr_db(bin_power: float, segment_powers, include_self: bool = True) -> float:
    """Segment-relative SNR of one bin: 10 log10(power / segment mean).

    `segment_powers` is the full segment including the bin under test.  With
    include_self=False the bin's own power is removed from the mean first.
    """
    seg = np.asarray(segment_powers, dtype=float)
    if seg.ndim != 1 or seg.size < 2:
        raise ValidationError("segment must be a 1-D array of at least 2 bins")
    if bin_power <= 0:
        raise ValidationError(f"non-positive bin power {bin_power}")
    if include_self:
        mean = float(np.mean(seg))
    else:
        mean = (float(np.sum(seg)) - bin_power) / (seg.size - 1)
    if mean <= 0:
        raise ValidationError("non-positive segment mean power")
    return 10.0 * math.log10(bin_power / mean)


def segment_power(bins, bins_per_segment: int = DEFAULT_BINS_PER_SEGMENT):
    """(power, segments, sums) of spectra along their last axis: each bin's
    power, re * re + im * im as float; its complete segments, shape
    [..., n_seg, m] (trailing bins of a partial segment left out); and each
    segment's power sum, shape [..., n_seg, 1]."""
    b = np.asarray(bins)
    power = b.real * b.real
    power += b.imag * b.imag
    power = np.asarray(power, dtype=float)
    m = bins_per_segment
    head = power[..., :power.shape[-1] // m * m]
    segments = head.reshape(*head.shape[:-1], -1, m)
    return power, segments, segments.sum(axis=-1, keepdims=True)


def segment_ratio(power, sums, bins_per_segment: int = DEFAULT_BINS_PER_SEGMENT,
                  include_self: bool = True) -> np.ndarray:
    """Each bin's power over the mean power of its segment, whose power sum
    is `sums` (broadcast against power): sums / m with the bin in the mean,
    (sums - power) / (m - 1) without it.

    Elementwise, so a few bins taken out of a spectrum get the bits the
    whole spectrum gives them.  An all-zero segment gives nan.
    """
    m = bins_per_segment
    if include_self:
        denom = sums / m
    else:
        denom = sums - power
        denom /= m - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return power / denom


def bin_phase(bins) -> np.ndarray:
    """Each bin's phase in (-pi, pi], nan for a zero bin."""
    b = np.asarray(bins)
    phase = np.angle(b)
    phase[phase <= -np.pi] += 2.0 * np.pi
    phase[b == 0] = np.nan
    return phase


def frame_bin_stats(bins: np.ndarray,
                    bins_per_segment: int = DEFAULT_BINS_PER_SEGMENT,
                    include_self: bool = True):
    """Vectorized per-bin statistics for one channelized frame.

    Returns (power, snr_db, phase_rad, scored): scored marks bins belonging
    to a complete segment; trailing bins of a partial segment are left
    unscored (snr = -inf) rather than judged against a truncated mean.
    """
    b = np.asarray(bins)
    if b.ndim != 1:
        raise ValidationError("bins must be 1-D")
    if bins_per_segment < 2:
        raise ValidationError("bins_per_segment must be >= 2")
    power, segments, sums = segment_power(b, bins_per_segment)
    ratio = segment_ratio(segments, sums, bins_per_segment,
                          include_self).reshape(-1)
    snr = np.full(b.size, -np.inf)
    # a ratio of 0 or nan keeps its bin's -inf
    snr_head = snr[:ratio.size]
    np.log10(ratio, where=ratio > 0, out=snr_head)
    snr_head *= 10.0
    scored = np.zeros(b.size, dtype=bool)
    scored[:ratio.size] = True
    return power, snr, bin_phase(b), scored


def single_element_crossing_prob(threshold_db: float) -> float:
    """P(bin SNR > threshold) for a pure-noise bin against the TRUE mean.

    Rayleigh voltage noise gives exponentially distributed bin power, so the
    idealized crossing probability is exp(-10**(threshold/10)).
    """
    return math.exp(-(10.0 ** (threshold_db / 10.0)))


def estimator_corrected_crossing_prob(
        threshold_db: float,
        bins_per_segment: int = DEFAULT_BINS_PER_SEGMENT,
        include_self: bool = True) -> float:
    """Exact noise crossing probability against the ESTIMATED segment mean.

    For unit-mean exponential bin powers and a segment of m bins the event
    "p > r0 * mean" has closed form:

        include_self:  P = (1 + r0/(m - r0))**-(m-1)   (0 if r0 >= m)
        exclude_self:  P = (1 + r0/(m - 1))**-(m-1)

    where r0 = 10**(threshold/10).  Including the bin under test deflates
    the rate (the bin inflates its own denominator): about -6.9% at 8.5 dB
    with 256-bin segments, versus +10.1% inflation when excluding it.
    """
    if bins_per_segment < 2:
        raise ValidationError("bins_per_segment must be >= 2")
    r0 = 10.0 ** (threshold_db / 10.0)
    m = bins_per_segment
    if include_self:
        if r0 >= m:
            return 0.0
        base = 1.0 + r0 / (m - r0)
    else:
        base = 1.0 + r0 / (m - 1)
    return float(base ** (-(m - 1)))
