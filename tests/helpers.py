"""Shared builders for the test suite.

Kept deliberately small: anything a test asserts against should be visible
in the test itself, not buried here.
"""
import warnings
from dataclasses import dataclass

import numpy as np

from pulsepair.channelizer import (estimator_corrected_crossing_prob,
                                   single_element_crossing_prob)
from pulsepair.errors import ValidationError
from pulsepair.pairdetect import (EVENT_COLUMNS, EventTable,
                                  FirstLevelFilterParams,
                                  consume_level1_archive, form_pairs)
from pulsepair.phasefilter import PhaseMetricParams, second_level_filter
from pulsepair.pipeline import ExperimentManifest, simulate_events
from pulsepair.sigsim import (ObservationConfig, RfiSpec, SourceSpec,
                              simulate_frames, simulate_level1_events)
from pulsepair.skystats import _check_np, analyze

OBS_LON = -79.8398


def event_table(frame=0, utc=0.0, k=0, rf=1410.0e6, pol="LHCP", ra=5.0,
                phase_e=0.1, phase_w=0.2, snr=10.0):
    """An EventTable from per-event column values.

    Each argument is a sequence (one value per event) or a scalar, which
    fills every row; all scalars give one event.  Both elements share `snr`.
    """
    frame, utc, k, rf, pol, ra, phase_e, phase_w, snr = (
        c.copy() for c in np.broadcast_arrays(*map(np.atleast_1d, (
            frame, utc, k, rf, pol, ra, phase_e, phase_w, snr))))
    tags = sorted(set(pol.tolist()))
    return EventTable(
        frame_index=frame, utc_s=utc, bin_index=k, rf_freq_hz=rf,
        snr_east_db=snr, snr_west_db=snr, phase_east_rad=phase_e,
        phase_west_rad=phase_w,
        pol_code=[tags.index(p) for p in pol.tolist()], ra_pointing_hr=ra,
        tags=tags)


def archive_events(path):
    """A level-1 archive's events as one table (an archive read without a
    transit map is exactly one chunk)."""
    (events,) = consume_level1_archive(path, list)
    return events


def event_columns(events):
    """Every column of an EventTable as a list, and its tags, for ==."""
    return ({name: getattr(events, name).tolist() for name in EVENT_COLUMNS},
            events.tags)


def detect_events(config, sources, rfi, n_frames, params, start_utc_s=0.0,
                  mode="freq"):
    """Simulate frames and run the first-level filter on every one: the
    frame-mode simulate stage (simulate_events), as one table."""
    (events,) = simulate_events(ExperimentManifest(
        config=config, sources=list(sources), rfi=list(rfi), filter=params,
        mode=mode, n_frames=n_frames, start_utc_s=start_utc_s))
    return events


def calibrator_frames(n_frames, power, delay_s, seed, band_hz=50.0e6,
                      n_bins=2048):
    """Freq-mode frames of a band from 1405 MHz that holds a broadband_flat
    emitter of `power` over unit noise, reaching the west element delay_s
    late; power 0 leaves noise alone.  Returns (east frames, west frames,
    bin RFs)."""
    config = ObservationConfig(band_low_hz=1405.0e6,
                               band_high_hz=1405.0e6 + band_hz,
                               frame_seconds=n_bins / band_hz, seed=seed)
    rfi = [RfiSpec(kind="broadband_flat", power_rel_noise=power,
                   sidelobe_delay_s=delay_s)] if power else []
    frames = list(simulate_frames(config, rfi=rfi, n_frames=n_frames))
    return ([f[3] for f in frames], [f[4] for f in frames],
            config.rf_freqs())


def wide_band_params(snr_threshold_db=12.0):
    """First-level params for the 2.5 MHz synthetic band (no excision)."""
    return FirstLevelFilterParams(
        snr_threshold_db=snr_threshold_db,
        accept_band_low_hz=1445.0e6, accept_band_high_hz=1447.5e6,
        excision_low_hz=1445.0e6, excision_high_hz=1445.0e6)


def scaled_survey_cohens_d(seed, inject):
    """One scaled survey realization; returns per-bin Cohen's d (40 bins).

    1 MHz band, 0.52 s frames, two polarizations, six passes over the
    3.30-7.30 hr window.  Noise-only candidate mean is ~8.8 per 0.1 hr bin;
    the optional beacon at RA 5.25 hr adds ~24 expected survivors, all inside
    bin 19 ([5.20, 5.30) hr).
    """
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
        polarization_tags=("LHCP", "RHCP"), seed=seed)
    params = FirstLevelFilterParams(
        snr_threshold_db=8.5, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    sources = []
    if inject:
        sources = [SourceSpec(name="beacon", ra_hr=5.25, dec_deg=-8.0,
                              snr_db=45.0, pulse_rate_per_frame=0.0058,
                              transit_halfwidth_hr=0.05)]
    events = EventTable.concat(
        simulate_level1_events(config, sources, params, 6, 3.30, 7.30))
    pairs = form_pairs(events)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        survivors = second_level_filter(pairs, PhaseMetricParams())
        result = analyze(survivors.ra_pointing_hr,
                         3.30 + 0.1 * np.arange(41), "uniform")
    return np.array([b.cohens_d for b in result.stats])


def enumerate_tail(n: int, p: float, k: int, strict: bool = False) -> float:
    """Brute-force tail by enumerating all 2**n outcomes (oracle, n <= 20)."""
    _check_np(n, p)
    if n > 20:
        raise ValidationError("enumeration oracle is limited to n <= 20")
    masks = np.arange(1 << n, dtype=np.uint32)
    ones = np.zeros(masks.size, dtype=np.int64)
    for b in range(n):
        ones += (masks >> np.uint32(b)) & np.uint32(1)
    weights = (p ** ones) * ((1.0 - p) ** (n - ones))
    sel = ones > k if strict else ones >= k
    return float(np.sum(weights[sel]))


@dataclass
class FalseAlarmCheck:
    """Monte Carlo vs analytic single-element crossing rates."""

    empirical_rate: float
    predicted_ideal: float
    predicted_corrected: float
    n_trials: int
    n_crossings: int
    low_stats_warning: bool


def false_alarm_tail_check(threshold_db: float, n_trials: int, seed: int = 0,
                           bins_per_segment: int = 256,
                           include_self: bool = True) -> FalseAlarmCheck:
    """Empirical noise crossing rate vs exp(-r0) and the corrected form.

    Draws unit-mean exponential segment powers and counts bins whose power
    exceeds r0 times their own segment's mean estimate.  Sets
    low_stats_warning when fewer than 100 crossings are expected, in which
    case the empirical rate is too noisy to compare at the percent level.
    """
    if n_trials < bins_per_segment:
        raise ValidationError("n_trials smaller than one segment")
    r0 = 10.0 ** (threshold_db / 10.0)
    m = bins_per_segment
    n_seg = n_trials // m
    rng = np.random.default_rng(seed)
    crossings = 0
    chunk = max(1, min(n_seg, 2_000_000 // m))
    done = 0
    while done < n_seg:
        take = min(chunk, n_seg - done)
        powers = rng.exponential(1.0, size=(take, m))
        if include_self:
            mean = powers.mean(axis=1, keepdims=True)
        else:
            mean = (powers.sum(axis=1, keepdims=True) - powers) / (m - 1)
        crossings += int(np.count_nonzero(powers > r0 * mean))
        done += take
    n_used = n_seg * m
    predicted = single_element_crossing_prob(threshold_db)
    corrected = estimator_corrected_crossing_prob(threshold_db, m,
                                                  include_self)
    return FalseAlarmCheck(
        empirical_rate=crossings / n_used,
        predicted_ideal=predicted,
        predicted_corrected=corrected,
        n_trials=n_used,
        n_crossings=crossings,
        low_stats_warning=(n_used * corrected) < 100.0,
    )
