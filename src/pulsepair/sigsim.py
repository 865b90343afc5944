"""Synthetic two-element observations.

Three generation paths, from most physical to most scalable:

* mode="time": complex baseband sampled at the band rate, tones injected in
  the time domain, then channelized with the package FFT.  The
  contract-fidelity path; cost scales with bandwidth x duration.
* mode="freq": per-bin synthesis of the channelized frames directly (complex
  Gaussian noise per bin, bin-centered tones added in place).  Statistically
  identical for bin-centered signals at a fraction of the cost.
* simulate_level1_events: event-level sampler that draws first-level
  SURVIVORS directly from their exact statistics (Poisson dual-crossing
  counts at the estimator-corrected rate, uniform bins and phases,
  threshold-conditioned SNR tails) plus geometry-consistent injected pairs,
  as an EventTable whose noise columns are drawn as whole arrays.  The
  usable bins are held as [start, stop) runs, so its time and memory scale
  with the events drawn, not with the band's bin count.  This is what makes
  multi-transit full-band experiments fit in seconds; it is calibrated
  against the per-bin path in the test suite.

Noise normalization: the per-bin noise floor is the unit of power, 1.0
under the package's unit-tone-gain FFT, i.e. time-domain per-sample variance
equals the frame length.  Every SNR is a ratio to that floor and every
phase an angle, so a scale on all powers alike would change no output; no
setting scales them.

Inter-element phase convention: a plane wave with total delay tau (geometry
plus instrument) reaches the west element late, so
phase(W) - phase(E) = phase_sign * 2 pi f tau with phase_sign = -1.0 by
default (a delay is a phase lag).  The flag exists so convention experiments
can flip it and watch the delay scan land on -tau instead.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .calib import SIDEREAL_DAY_S, lst_hours, pointing_ra_hr, utc_at_lst
from .channelizer import (estimator_corrected_crossing_prob, fft_frame,
                          wrap_phase)
from .errors import ValidationError
from .pairdetect import (EVENT_DTYPES, EventTable, FirstLevelFilterParams,
                         check_tags)

C_LIGHT_M_S = 299792458.0
TWO_PI = 2.0 * math.pi


def geometric_delay(baseline_m: float, dec_deg: float, hour_angle_rad):
    """East-west baseline delay: (B/c) cos(dec) sin(HA).  Array-aware in HA.

    Positive HA (source west of the meridian) gives positive delay; the
    delay vanishes at transit for any declination.
    """
    if baseline_m <= 0:
        raise ValidationError("baseline must be > 0 m")
    if not -90.0 < dec_deg < 90.0:
        raise ValidationError(f"declination {dec_deg} outside (-90, 90)")
    ha = np.asarray(hour_angle_rad, dtype=float)
    d = (baseline_m / C_LIGHT_M_S) * math.cos(math.radians(dec_deg)) * np.sin(ha)
    if np.isscalar(hour_angle_rad):
        return float(d)
    return d


@dataclass
class ObservationConfig:
    """Everything fixed about a simulated observing session."""

    band_low_hz: float = 1405.0e6
    band_high_hz: float = 1455.0e6
    frame_seconds: float = 0.27
    hop_seconds: float | None = None    # frame cadence; None = gapless
    baseline_m: float = 30.0
    latitude_deg: float = 38.433
    longitude_deg: float = -79.8398
    dec_deg: float = -8.0
    azimuth_deg: float = 180.0
    tau_int_true_s: float = 0.0
    polarization_tags: tuple = ("LHCP",)
    phase_sign: float = -1.0
    beam_fwhm_ra_deg: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.hop_seconds is None:
            self.hop_seconds = self.frame_seconds
        if not self.band_high_hz > self.band_low_hz:
            raise ValidationError("band_high_hz must exceed band_low_hz")
        if self.frame_seconds <= 0 or self.hop_seconds <= 0:
            raise ValidationError("frame_seconds and hop_seconds must be > 0")
        width_bins = (self.band_high_hz - self.band_low_hz) * self.frame_seconds
        if abs(width_bins - round(width_bins)) > 1e-6:
            raise ValidationError(
                f"band width x frame_seconds = {width_bins} is not an "
                "integer bin count; align the band edges to the bin grid")
        if round(width_bins) < 1:
            raise ValidationError("band narrower than one bin")
        if not self.polarization_tags:
            raise ValidationError("need at least one polarization tag")
        if len(set(self.polarization_tags)) != len(self.polarization_tags):
            raise ValidationError("duplicate polarization tags")
        check_tags(self.polarization_tags)
        if self.phase_sign not in (-1.0, 1.0):
            raise ValidationError("phase_sign must be -1.0 or +1.0")
        if not -90.0 <= self.latitude_deg <= 90.0:
            raise ValidationError("latitude outside [-90, 90]")
        if not -180.0 <= self.longitude_deg <= 180.0:
            raise ValidationError("longitude outside [-180, 180]")
        if not -90.0 < self.dec_deg < 90.0:
            raise ValidationError("declination outside (-90, 90)")
        if abs(self.azimuth_deg - 180.0) >= 5.0:
            raise ValidationError("azimuth must be within 5 deg of due south")
        if self.beam_fwhm_ra_deg is not None and self.beam_fwhm_ra_deg <= 0:
            raise ValidationError("beam_fwhm_ra_deg must be > 0")
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")

    @property
    def n_bins(self) -> int:
        return int(round((self.band_high_hz - self.band_low_hz)
                         * self.frame_seconds))

    @property
    def bin_hz(self) -> float:
        return 1.0 / self.frame_seconds

    def rf_freqs(self) -> np.ndarray:
        """Bin-center RF of every bin: band_low + k / frame_seconds."""
        return self.band_low_hz + np.arange(self.n_bins) / self.frame_seconds

    def pointing_ra(self, lst_hr):
        return pointing_ra_hr(lst_hr, self.azimuth_deg, self.dec_deg,
                              self.latitude_deg)


@dataclass
class SourceSpec:
    """A repeating pulse-pair emitter at a fixed sky position.

    Each emitted pair is two bin-centered tones at frequencies f and
    f + delta_f, with delta_f drawn log-uniformly from
    [delta_f_low_hz, delta_f_high_hz]; the second component lands
    delta_t_frames frames after the first.  snr_db is the per-element bin
    SNR of one component against the noise floor.  Pairs are emitted at
    pulse_rate_per_frame (Poisson) while the source is inside its emission
    window: within transit_halfwidth_hr of its RA in hour angle.
    """

    name: str
    ra_hr: float
    dec_deg: float
    snr_db: float
    pulse_rate_per_frame: float
    delta_f_low_hz: float = 20.0
    delta_f_high_hz: float = 2000.0
    delta_t_frames: int = 0
    polarization_tag: str = "LHCP"
    transit_halfwidth_hr: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.ra_hr < 24.0:
            raise ValidationError(f"source RA {self.ra_hr} outside [0, 24)")
        if not -90.0 < self.dec_deg < 90.0:
            raise ValidationError("source declination outside (-90, 90)")
        if self.pulse_rate_per_frame < 0:
            raise ValidationError("pulse_rate_per_frame must be >= 0")
        if not 0 < self.delta_f_low_hz <= self.delta_f_high_hz:
            raise ValidationError("need 0 < delta_f_low_hz <= delta_f_high_hz")
        if self.delta_t_frames < 0:
            raise ValidationError("delta_t_frames must be >= 0")
        if self.transit_halfwidth_hr <= 0:
            raise ValidationError("transit_halfwidth_hr must be > 0")


@dataclass
class RfiSpec:
    """Terrestrial interference added to both elements.

    It reaches the west element sidelobe_delay_s after the east one: the
    path difference of a transmitter far off axis, or zero for common-mode
    interference (shared-LO leakage and the like).  narrowband_carrier is
    one bin-centered carrier at rf_freq_hz with a fresh random phase each
    frame; broadband_flat raises the whole band's noise floor while active.
    duty_cycle gates frames at random.
    """

    kind: str
    power_rel_noise: float
    rf_freq_hz: float = 0.0
    sidelobe_delay_s: float = 0.0
    duty_cycle: float = 1.0

    def __post_init__(self):
        if self.kind not in ("narrowband_carrier", "broadband_flat"):
            raise ValidationError(f"unknown RFI kind {self.kind!r}")
        if self.power_rel_noise <= 0:
            raise ValidationError("power_rel_noise must be > 0")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValidationError("duty_cycle outside [0, 1]")


def _hour_angle_hr(lst_hr, ra_hr):
    """Wrapped hour angle lst - ra in hours, in [-12, 12)."""
    return np.mod(np.asarray(lst_hr) - ra_hr + 12.0, 24.0) - 12.0


def _beam_power_weight(config: ObservationConfig, ha_hr):
    if config.beam_fwhm_ra_deg is None:
        return np.ones_like(np.asarray(ha_hr, dtype=float))
    off_deg = np.asarray(ha_hr, dtype=float) * 15.0
    return np.exp(-4.0 * math.log(2.0)
                  * (off_deg / config.beam_fwhm_ra_deg) ** 2)


def _validate_sources(config: ObservationConfig, sources, lst_start_hr: float,
                      duration_hr: float) -> None:
    """Reject sources that never enter their emission window during the run,
    or whose frequency offsets cannot fit inside the RF band."""
    band_width = config.band_high_hz - config.band_low_hz
    for src in sources:
        if src.polarization_tag not in config.polarization_tags:
            raise ValidationError(
                f"source {src.name}: polarization {src.polarization_tag!r} "
                f"not among config tags {config.polarization_tags}")
        if abs(src.dec_deg - config.dec_deg) > 20.0:
            raise ValidationError(
                f"source {src.name}: declination {src.dec_deg} is "
                f"{abs(src.dec_deg - config.dec_deg):.1f} deg from the "
                "pointing declination; it never enters the beam")
        if src.delta_f_high_hz >= band_width - 2.0 * config.bin_hz:
            raise ValidationError(
                f"source {src.name}: delta_f up to {src.delta_f_high_hz} Hz "
                f"cannot fit inside a {band_width:.0f} Hz band")
        if duration_hr >= 24.0:
            continue  # a full sidereal day covers every RA
        ha0 = float(_hour_angle_hr(lst_start_hr, src.ra_hr))
        half = src.transit_halfwidth_hr
        if ha0 < -half:
            hours_until_open = -half - ha0
        elif ha0 > half:
            hours_until_open = 24.0 - ha0 - half
        else:
            hours_until_open = 0.0
        if hours_until_open > duration_hr:
            raise ValidationError(
                f"source {src.name}: RA {src.ra_hr} hr never enters its "
                f"emission window during the simulated span "
                f"({duration_hr:.3f} sidereal hr from LST {lst_start_hr:.3f})")


def _source_draws(config: ObservationConfig, src: SourceSpec, src_idx: int,
                  frame_index: int, pol_idx: int):
    """Pair parameters whose FIRST component is emitted at `frame_index`.

    Keyed purely on (seed, frame, pol, source) so any frame's draws can be
    replayed in isolation; the delayed second component is reconstructed by
    the receiving frame without re-rolling the stream.
    """
    rng = np.random.default_rng(
        [config.seed, 0xB1A5, frame_index, pol_idx, src_idx])
    count = int(rng.poisson(src.pulse_rate_per_frame))
    draws = []
    n_bins = config.n_bins
    for _ in range(count):
        delta_f = 10.0 ** rng.uniform(math.log10(src.delta_f_low_hz),
                                      math.log10(src.delta_f_high_hz))
        dk = max(1, int(round(delta_f * config.frame_seconds)))
        if dk >= n_bins:
            continue
        k_a = int(rng.integers(0, n_bins - dk))
        phase_a = float(rng.uniform(-math.pi, math.pi))
        phase_b = float(rng.uniform(-math.pi, math.pi))
        draws.append((k_a, k_a + dk, phase_a, phase_b))
    return draws


def _tones_for_frame(config: ObservationConfig, sources, frame_index: int,
                     pol_idx: int, pol_tag: str, lst_hr: float):
    """Tones landing in this frame: (bin, amplitude, east phase, total delay).

    Covers both the same-frame first components and the delayed second
    components of pairs emitted delta_t_frames earlier.  Amplitude, beam
    weight, and delay are evaluated at the ARRIVAL frame's geometry.
    """
    tones = []
    hop_hr = config.hop_seconds * 24.0 / SIDEREAL_DAY_S
    for s_idx, src in enumerate(sources):
        if src.polarization_tag != pol_tag:
            continue
        ha_now_hr = float(_hour_angle_hr(lst_hr, src.ra_hr))
        tau_tot = (geometric_delay(config.baseline_m, src.dec_deg,
                                   ha_now_hr * math.pi / 12.0)
                   + config.tau_int_true_s)
        amp = math.sqrt(10.0 ** (src.snr_db / 10.0)
                        * float(_beam_power_weight(config, ha_now_hr)))
        for origin in sorted({frame_index, frame_index - src.delta_t_frames}):
            if origin < 0:
                continue
            ha_origin = float(_hour_angle_hr(
                lst_hr - (frame_index - origin) * hop_hr, src.ra_hr))
            if abs(ha_origin) > src.transit_halfwidth_hr:
                continue
            for (k_a, k_b, ph_a, ph_b) in _source_draws(
                    config, src, s_idx, origin, pol_idx):
                if origin == frame_index:
                    tones.append((k_a, amp, ph_a, tau_tot))
                if origin + src.delta_t_frames == frame_index:
                    tones.append((k_b, amp, ph_b, tau_tot))
    return tones


def _rfi_for_frame(config: ObservationConfig, rfi, frame_index: int,
                   pol_idx: int, east, west, rf: np.ndarray,
                   mode: str) -> None:
    """Add active interferers in place to both elements' bins or samples."""
    n = config.n_bins
    sign = config.phase_sign
    for r_idx, r in enumerate(rfi):
        rng = np.random.default_rng(
            [config.seed, 0xAF1, frame_index, pol_idx, r_idx])
        if rng.random() >= r.duty_cycle:
            continue
        if r.kind == "narrowband_carrier":
            k = int(round((r.rf_freq_hz - config.band_low_hz)
                          * config.frame_seconds))
            k = min(max(k, 0), n - 1)
            amp = math.sqrt(r.power_rel_noise)
            ph = float(rng.uniform(-math.pi, math.pi))
            shift = sign * TWO_PI * rf[k] * r.sidelobe_delay_s
            if mode == "freq":
                east[k] += amp * np.exp(1j * ph)
                west[k] += amp * np.exp(1j * (ph + shift))
            else:
                t = np.arange(n)
                east += amp * np.exp(1j * (TWO_PI * k * t / n + ph))
                west += amp * np.exp(1j * (TWO_PI * k * t / n + ph + shift))
        else:  # broadband_flat
            scale = math.sqrt(r.power_rel_noise / 2.0)
            if mode == "freq":
                g = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * scale
                east += g
                west += g * np.exp(1j * sign * TWO_PI * rf * r.sidelobe_delay_s)
            else:
                # zero delay only (validated); identical samples both sides
                gt = (rng.standard_normal(n)
                      + 1j * rng.standard_normal(n)) * (scale * math.sqrt(n))
                east += gt
                west += gt


def simulate_frames(config: ObservationConfig, sources=(), rfi=(),
                    n_frames: int = 1, start_utc_s: float = 0.0,
                    mode: str = "freq"):
    """Generate channelized east/west frames for every polarization.

    Yields (frame_index, utc_s, pol_tag, east, west, rf_freqs) tuples, as
    pipeline.load_frames_npz does, frame-major and polarization-minor.
    RNG streams are keyed on (seed, frame, polarization[, source/interferer])
    so any frame is reproducible in isolation and resumed or parallel runs
    produce identical bytes.

    mode="time" samples the band at the Nyquist rate, injects tones in the
    time domain, and channelizes with the package FFT (slow, maximally
    faithful); mode="freq" synthesizes bins directly.  Delayed broadband
    RFI needs per-bin phase slopes and is only supported in freq mode.
    """
    if mode not in ("freq", "time"):
        raise ValidationError(f"unknown mode {mode!r}")
    if n_frames < 1:
        raise ValidationError("n_frames must be >= 1")
    for r in rfi:
        if r.kind == "narrowband_carrier":
            if not (config.band_low_hz <= r.rf_freq_hz <= config.band_high_hz):
                raise ValidationError(
                    f"RFI carrier {r.rf_freq_hz} Hz outside the band")
        if (mode == "time" and r.kind == "broadband_flat"
                and r.sidelobe_delay_s != 0.0):
            raise ValidationError(
                "delayed broadband RFI is only supported in freq mode")
    lst0 = float(lst_hours(start_utc_s, config.longitude_deg))
    duration_hr = n_frames * config.hop_seconds * 24.0 / SIDEREAL_DAY_S
    _validate_sources(config, sources, lst0, duration_hr)

    n = config.n_bins
    band_width = config.band_high_hz - config.band_low_hz
    rf = config.rf_freqs()
    sign = config.phase_sign
    # unit noise floor per bin; a time-mode frame's FFT sums n samples
    scale = math.sqrt((1 if mode == "freq" else n) / 2.0)
    for frame_index in range(n_frames):
        utc = start_utc_s + frame_index * config.hop_seconds
        lst = float(lst_hours(utc, config.longitude_deg))
        for pol_idx, pol_tag in enumerate(config.polarization_tags):
            rng = np.random.default_rng(
                [config.seed, 0x5EED, frame_index, pol_idx])
            east = (rng.standard_normal(n)
                    + 1j * rng.standard_normal(n)) * scale
            west = (rng.standard_normal(n)
                    + 1j * rng.standard_normal(n)) * scale

            tones = _tones_for_frame(config, sources, frame_index, pol_idx,
                                     pol_tag, lst)
            if mode == "freq":
                for (k, amp, ph, tau) in tones:
                    east[k] += amp * np.exp(1j * ph)
                    west[k] += amp * np.exp(
                        1j * (ph + sign * TWO_PI * rf[k] * tau))
            else:
                t = np.arange(n)
                for (k, amp, ph, tau) in tones:
                    carrier = TWO_PI * k * t / n
                    east += amp * np.exp(1j * (carrier + ph))
                    west += amp * np.exp(
                        1j * (carrier + ph + sign * TWO_PI * rf[k] * tau))

            _rfi_for_frame(config, rfi, frame_index, pol_idx, east, west,
                           rf, mode)

            if mode == "time":
                east = fft_frame(east, config.frame_seconds, band_width)
                west = fft_frame(west, config.frame_seconds, band_width)
            yield frame_index, utc, pol_tag, east, west, rf


def simulate_correlator_frames(rf_freqs_hz, n_frames: int, corr_power: float,
                               true_delay_s: float, noise_power: float = 1.0,
                               seed: int = 0, phase_sign: float = -1.0):
    """Frames of a broadband correlated calibrator for delay scans.

    Each bin holds a common complex-Gaussian signal of power `corr_power`
    seen by both elements (the west copy rotated by the delay) plus
    independent noise of power `noise_power` per element.  Returns
    (east_frames, west_frames) as two lists of arrays.
    """
    if n_frames < 1:
        raise ValidationError("n_frames must be >= 1")
    if corr_power < 0 or noise_power < 0:
        raise ValidationError("powers must be >= 0")
    rf = np.asarray(rf_freqs_hz, dtype=float)
    rot = np.exp(1j * phase_sign * TWO_PI * rf * true_delay_s)
    east_frames, west_frames = [], []
    for i in range(n_frames):
        rng = np.random.default_rng([seed, 0xC0, i])
        s = ((rng.standard_normal(rf.size) + 1j * rng.standard_normal(rf.size))
             * math.sqrt(corr_power / 2.0))
        ne = ((rng.standard_normal(rf.size) + 1j * rng.standard_normal(rf.size))
              * math.sqrt(noise_power / 2.0))
        nw = ((rng.standard_normal(rf.size) + 1j * rng.standard_normal(rf.size))
              * math.sqrt(noise_power / 2.0))
        east_frames.append(s + ne)
        west_frames.append(s * rot + nw)
    return east_frames, west_frames


def _usable_runs(config: ObservationConfig,
                 params: FirstLevelFilterParams) -> tuple:
    """Bins that can yield events (complete segments, accepted RF) as at
    most two ascending [start, stop) runs.

    Each edge bisects the exact per-bin formula of rf_freqs(), which rises
    with the bin, so no array of the band's bins is ever built.
    """
    top = (config.n_bins // params.bins_per_segment) * params.bins_per_segment

    def first(hit) -> int:
        """Lowest complete-segment bin whose RF satisfies `hit`, else top."""
        return bisect.bisect_left(range(top), True, key=lambda k: hit(
            config.band_low_hz + k / config.frame_seconds))

    lo = first(lambda f: f >= params.accept_band_low_hz)
    hi = first(lambda f: f > params.accept_band_high_hz)
    cut_lo = first(lambda f: f >= params.excision_low_hz)
    cut_hi = first(lambda f: f > params.excision_high_hz)
    return tuple((start, stop) for start, stop in
                 ((lo, min(hi, cut_lo)), (max(lo, cut_hi), hi))
                 if start < stop)


def _run_bins(runs, draws):
    """Bin of each draw in [0, n_usable), the runs laid end to end."""
    bins = draws + runs[0][0]
    for (_, stop), (start, _) in zip(runs, runs[1:]):
        bins += (bins >= stop) * (start - stop)
    return bins


def _in_runs(runs, k: int) -> bool:
    return any(start <= k < stop for start, stop in runs)


def _injected_rows(config: ObservationConfig, sources, params,
                   window_lo_hr: float, transit: int, n_frames: int,
                   runs: tuple) -> list:
    """Survivor components of one transit's injected pairs, one (frame,
    bin, tag code, snr_e, snr_w, phase_e, phase_w) tuple each."""
    hop_hr = config.hop_seconds * 24.0 / SIDEREAL_DAY_S
    n_usable = sum(stop - start for start, stop in runs)
    tags = tuple(sorted(config.polarization_tags))
    rows = []
    for s_idx, src in enumerate(sources):
        rng_s = np.random.default_rng([config.seed, 0x50CE, transit, s_idx])
        snr_lin = 10.0 ** (src.snr_db / 10.0)
        sigma_phi = 1.0 / math.sqrt(2.0 * snr_lin)
        # measured SNR of a strong tone: when it counts in its own segment
        # mean, its power inflates the mean, deflating the ratio by 1 + snr/m.
        deflate = (1.0 + snr_lin / params.bins_per_segment
                   if params.segment_include_self else 1.0)
        snr_rec_db = 10.0 * math.log10(snr_lin / deflate)
        code = tags.index(src.polarization_tag)
        half = src.transit_halfwidth_hr
        lst_frames = window_lo_hr + np.arange(n_frames) * hop_hr
        active = np.flatnonzero(
            np.abs(_hour_angle_hr(lst_frames, src.ra_hr)) <= half)
        if active.size == 0:
            continue
        n_pairs = int(rng_s.poisson(src.pulse_rate_per_frame * active.size))
        for _ in range(n_pairs):
            j_a = int(active[rng_s.integers(0, active.size)])
            j_b = j_a + src.delta_t_frames
            if j_b >= n_frames:
                continue
            delta_f = 10.0 ** rng_s.uniform(
                math.log10(src.delta_f_low_hz),
                math.log10(src.delta_f_high_hz))
            dk = max(1, int(round(delta_f * config.frame_seconds)))
            if dk >= config.n_bins:
                continue
            k_a = int(_run_bins(runs, rng_s.integers(0, n_usable)))
            k_b = k_a + dk
            if not _in_runs(runs, k_b):
                continue  # pair would land outside the accepted band
            for (j, k) in ((j_a, k_a), (j_b, k_b)):
                lst_j = window_lo_hr + j * hop_hr
                f = config.band_low_hz + k / config.frame_seconds
                ha_rad = float(_hour_angle_hr(lst_j, src.ra_hr)) * math.pi / 12.0
                tau = (geometric_delay(config.baseline_m, src.dec_deg, ha_rad)
                       + config.tau_int_true_s)
                base = float(rng_s.uniform(-math.pi, math.pi))
                phi_e = float(wrap_phase(base + rng_s.normal(0.0, sigma_phi)))
                phi_w = float(wrap_phase(
                    base + config.phase_sign * TWO_PI * f * tau
                    + rng_s.normal(0.0, sigma_phi)))
                rows.append((j, k, code, snr_rec_db, snr_rec_db,
                             phi_e, phi_w))
    return rows


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """np.argsort(key, kind="stable"), from numpy's default (SIMD, unstable)
    sort: each run of equal sorted keys is put back in index order, with one
    lexsort over the rows of all such runs."""
    order = np.argsort(key)
    sorted_key = key[order]
    tie = sorted_key[1:] == sorted_key[:-1]
    if tie.any():
        in_run = np.zeros(key.size, dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        rows = np.flatnonzero(in_run)
        runs = order[rows]
        order[rows] = runs[np.lexsort((runs, sorted_key[rows]))]
    return order


def _fill_transit(config: ObservationConfig, params, window_lo_hr: float,
                  transit: int, n_frames: int, utc_start: float, runs: tuple,
                  rng, count: int, injected: list, out: dict) -> None:
    """Draw one transit's `count` noise events (dual crossings, uniform over
    frame, polarization and usable bin) and write them with its `injected`
    rows, in (frame, tag, bin) order, into `out`, that transit's slices of
    the event columns.

    The float columns are drawn after the sort, one at a time, and written
    at once, so a transit's working arrays never outgrow a few columns.
    """
    hop_hr = config.hop_seconds * 24.0 / SIDEREAL_DAY_S
    n_pol = len(config.polarization_tags)
    n_usable = sum(stop - start for start, stop in runs)
    r0 = 10.0 ** (params.snr_threshold_db / 10.0)
    tags = tuple(sorted(config.polarization_tags))
    tag_rank = np.array([tags.index(t) for t in config.polarization_tags])
    extra = [np.array(col) for col in zip(*injected)]

    def with_injected(drawn, i):
        return np.concatenate((drawn, extra[i])) if injected else drawn

    frames = with_injected(rng.integers(0, n_frames, count), 0)
    codes = with_injected(tag_rank[rng.integers(0, n_pol, count)], 2)
    bins = with_injected(_run_bins(runs, rng.integers(0, n_usable, count)), 1)
    # one sort on the packed (frame, tag, bin) key, equal keys in draw order;
    # simulate_level1_events checked that the key fits int64
    key = frames * n_pol
    key += codes
    key *= config.n_bins
    key += bins
    order = _stable_argsort(key)
    del key

    def put(name, column):
        # order holds valid indices; with `out`, mode="raise" would gather
        # through a temporary buffer
        np.take(column, order, out=out[name], mode="clip")

    frame_index, utc_s, rf = (out["frame_index"], out["utc_s"],
                              out["rf_freq_hz"])
    put("frame_index", frames)
    np.multiply(frame_index, config.hop_seconds, out=utc_s)
    utc_s += utc_start
    np.take(config.pointing_ra(window_lo_hr + np.arange(n_frames) * hop_hr),
            frame_index, out=out["ra_pointing_hr"], mode="clip")
    frame_index += transit * n_frames
    put("bin_index", bins)
    np.divide(out["bin_index"], config.frame_seconds, out=rf)
    rf += config.band_low_hz
    put("pol_code", codes)
    del frames, bins, codes
    # SNR ratio conditioned on crossing: r0 + unit exponential, each element.
    for i, name in ((3, "snr_east_db"), (4, "snr_west_db")):
        snr = rng.exponential(1.0, count)
        snr += r0
        np.log10(snr, out=snr)
        snr *= 10.0
        put(name, with_injected(snr, i))
    for i, name in ((5, "phase_east_rad"), (6, "phase_west_rad")):
        put(name, with_injected(rng.uniform(-math.pi, math.pi, count), i))


def _start_on_own_cpu(slots) -> None:
    """Pool initializer: move the new worker thread to the next CPU the
    process may use, then give it back the whole set.

    Some kernels leave a pool's new threads on the CPU that spawned them and
    do not rebalance while they run: two transits then take turns on one
    core, as slow as one thread, while the other core idles.  Only where the
    worker starts is chosen; the scheduler may still move it later.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) > 1:
            os.sched_setaffinity(0, {allowed[next(slots) % len(allowed)]})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def thread_pool(threads: int) -> ThreadPoolExecutor:
    """A pool of `threads` workers, each started on its own CPU."""
    return ThreadPoolExecutor(max_workers=threads,
                              initializer=_start_on_own_cpu,
                              initargs=(itertools.count(),))


def _window_anchor(config: ObservationConfig, window_lo_hr: float,
                   start_utc_s: float) -> float:
    """utc0: the first time from start_utc_s on at which the LST is
    window_lo_hr.  Transit t's window opens at utc0 + t * SIDEREAL_DAY_S."""
    return utc_at_lst(window_lo_hr % 24.0, config.longitude_deg,
                      near_utc_s=start_utc_s)


def transit_index(utc_s, config: ObservationConfig, window_lo_hr: float,
                  window_hi_hr: float, start_utc_s: float = 0.0) -> np.ndarray:
    """Each event's transit: floor((utc - utc0) / SIDEREAL_DAY_S), as int64.

    utc0 is the window anchor simulate_level1_events uses.  The floor is
    taken half the gap between two windows early, so an event is given the
    transit whose window centre is nearest: the archive's millisecond
    rounding puts some events of a transit's first frame a hair before its
    window opens.
    """
    duration_s = (window_hi_hr - window_lo_hr) / 24.0 * SIDEREAL_DAY_S
    t = np.subtract(utc_s, _window_anchor(config, window_lo_hr, start_utc_s)
                    - 0.5 * (SIDEREAL_DAY_S - duration_s))
    t /= SIDEREAL_DAY_S
    return np.floor(t, out=t).astype(np.int64)


def simulate_level1_events(config: ObservationConfig, sources,
                           params: FirstLevelFilterParams, n_transits: int,
                           window_lo_hr: float, window_hi_hr: float,
                           start_utc_s: float = 0.0,
                           threads: int = 1, rfi=()) -> EventTable:
    """Draw the level-1 survivor population directly (no per-bin synthesis).

    Noise events follow the exact survivor statistics of the per-bin path:
    per (frame, polarization) the number of dual crossings is Poisson with
    mean n_usable_bins * p1**2 at the estimator-corrected single-element
    rate p1, uniform over usable bins, with independent uniform phases and
    threshold-conditioned SNR tails.  Injected sources must be strong
    (>= threshold + 6 dB) so their survival probability is ~1; weak-source
    studies belong on the per-bin path, and so do a beam taper and
    interference: a non-empty `rfi` is rejected.

    The session covers `n_transits` consecutive sidereal passes over the LST
    window [window_lo_hr, window_hi_hr]; every pass revisits the same RA at
    the same frame offsets.  Time and memory scale with the events drawn,
    not with the band's bin count: the usable bins are held as runs.  The
    event columns are allocated once, and each transit (on a pool of
    `threads` workers when threads > 1) writes its own slice of them: the
    bytes never depend on how the workers interleave, and the memory only
    through each transit's few working columns.
    """
    if n_transits < 1:
        raise ValidationError("n_transits must be >= 1")
    if config.beam_fwhm_ra_deg is not None:
        raise ValidationError(
            "config.beam_fwhm_ra_deg: the event-level sampler draws an "
            "untapered beam; use run.mode = freq or time for a beam taper")
    if rfi:
        raise ValidationError(
            "rfi.N: the event-level sampler draws no interference; use "
            "run.mode = freq or time for RFI")
    if not window_hi_hr > window_lo_hr:
        raise ValidationError("window_hi_hr must exceed window_lo_hr")
    for src in sources:
        if src.snr_db < params.snr_threshold_db + 6.0:
            raise ValidationError(
                f"source {src.name}: {src.snr_db} dB is too weak for the "
                "event-level sampler (needs threshold + 6 dB); use the "
                "per-bin path")
    duration_hr = window_hi_hr - window_lo_hr
    _validate_sources(config, sources, window_lo_hr % 24.0, duration_hr)
    runs = _usable_runs(config, params)
    if not runs:
        raise ValidationError("no usable bins: band and segments misaligned")
    p_single = estimator_corrected_crossing_prob(
        params.snr_threshold_db, params.bins_per_segment,
        params.segment_include_self)
    n_frames = int(round(duration_hr / 24.0 * SIDEREAL_DAY_S
                         / config.hop_seconds))
    if n_frames < 1:
        raise ValidationError("window shorter than one frame")
    if n_frames * len(config.polarization_tags) * config.n_bins >= 2 ** 63:
        raise ValidationError(
            f"{n_frames} frames x {len(config.polarization_tags)} "
            f"polarizations x {config.n_bins} bins per transit do not fit "
            "the sampler's int64 sort key; shorten the window or the band")
    utc0 = _window_anchor(config, window_lo_hr, start_utc_s)
    # Each transit's event count is its noise stream's first draw plus its
    # injected rows, so the columns are allocated once and every transit
    # writes its own slice of them.
    n_usable = sum(stop - start for start, stop in runs)
    lam = len(config.polarization_tags) * n_usable * p_single * p_single
    rngs = [np.random.default_rng([config.seed, 0x4015E, transit])
            for transit in range(n_transits)]
    counts = [int(rng.poisson(lam * n_frames)) for rng in rngs]
    injected = [_injected_rows(config, sources, params, window_lo_hr,
                               transit, n_frames, runs)
                for transit in range(n_transits)]
    edges = list(itertools.accumulate(
        (count + len(rows) for count, rows in zip(counts, injected)),
        initial=0))
    columns = {name: np.empty(edges[-1], dtype)
               for name, dtype in EVENT_DTYPES.items()}

    def one(transit: int):
        part = slice(edges[transit], edges[transit + 1])
        _fill_transit(config, params, window_lo_hr, transit, n_frames,
                      utc0 + transit * SIDEREAL_DAY_S, runs, rngs[transit],
                      counts[transit], injected[transit],
                      {name: col[part] for name, col in columns.items()})

    if threads > 1:
        with thread_pool(threads) as pool:
            list(pool.map(one, range(n_transits)))
    else:
        for transit in range(n_transits):
            one(transit)
    return EventTable(tags=tuple(sorted(config.polarization_tags)), **columns)
