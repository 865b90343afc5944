"""Shared builders for the test suite.

Kept deliberately small: anything a test asserts against should be visible
in the test itself, not buried here.
"""
import warnings

import numpy as np

from pulsepair.pairdetect import (EVENT_COLUMNS, EventTable,
                                  FirstLevelFilterParams, form_pairs)
from pulsepair.phasefilter import PhaseMetricParams, second_level_filter
from pulsepair.pipeline import detect_frames
from pulsepair.sigsim import (ObservationConfig, SourceSpec,
                              simulate_frames, simulate_level1_events)
from pulsepair.skystats import analyze

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


def event_columns(events):
    """Every column of an EventTable as a list, and its tags, for ==."""
    return ({name: getattr(events, name).tolist() for name in EVENT_COLUMNS},
            events.tags)


def detect_events(config, sources, rfi, n_frames, params, start_utc_s=0.0,
                  mode="freq"):
    """Simulate frames and run the first-level filter on every one."""
    return detect_frames(config, params, simulate_frames(
        config, sources, rfi, n_frames, start_utc_s=start_utc_s, mode=mode))


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
    events = simulate_level1_events(config, sources, params, 6, 3.30, 7.30)
    pairs = form_pairs(events)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        survivors = second_level_filter(pairs, PhaseMetricParams())
        result = analyze(survivors.ra_pointing_hr,
                         3.30 + 0.1 * np.arange(41), "uniform")
    return np.array([b.cohens_d for b in result.stats])
