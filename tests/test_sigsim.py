import functools
import itertools
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import (calibrator_frames, detect_events, event_columns,
                     wide_band_params)
from pulsepair import pairdetect, sigsim
from pulsepair.calib import SIDEREAL_DAY_S, lst_hours
from pulsepair.channelizer import frame_bin_stats, fringe_phase, wrap_phase
from pulsepair.errors import ValidationError
from pulsepair.pairdetect import (EVENT_COLUMNS, EventTable,
                                  FirstLevelFilterParams)
from pulsepair.sigsim import (C_LIGHT_M_S, ObservationConfig, RfiSpec,
                              SourceSpec, geometric_delay, simulate_frames,
                              simulate_level1_events, transit_index)

TWO_PI = 2.0 * math.pi


def test_geometric_delay_values():
    # 30 m baseline, source on the celestial equator, HA = 6 hr: B/c exactly
    assert geometric_delay(30.0, 0.0, math.pi / 2.0) == pytest.approx(
        1.0006922855944561e-7, rel=1e-12)
    assert geometric_delay(30.0, 0.0, 0.0) == 0.0
    # cos(dec) forshortens the projected baseline
    assert geometric_delay(30.0, 60.0, math.pi / 2.0) == pytest.approx(
        0.5 * 30.0 / C_LIGHT_M_S, rel=1e-12)
    assert geometric_delay(30.0, 0.0, -math.pi / 2.0) < 0.0


def test_config_validation():
    with pytest.raises(ValidationError):
        ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.0e6 + 1.0e3,
                          frame_seconds=0.0015)     # 1.5 bins
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.5)
    assert cfg.n_bins == 500_000
    rf = cfg.rf_freqs()
    assert rf[0] == 1445.0e6
    assert rf[1] - rf[0] == pytest.approx(2.0)       # 1/frame_seconds


@pytest.mark.parametrize("tag", ['"q"', "a,b", "", "tab\tx", "r\u00e9"])
def test_a_bad_tag_fails_at_config_load(tag):
    with pytest.raises(ValidationError, match="polarization_tag"):
        ObservationConfig(polarization_tags=("LHCP", tag))


def test_noise_floor_is_unit():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.1e6,
                            frame_seconds=0.02, seed=1)   # 2000 bins
    (_, _, _, east, west, _), = list(simulate_frames(cfg, n_frames=1))
    for bins in (east, west):
        mean = float(np.mean(np.abs(bins) ** 2))
        assert abs(mean - 1.0) < 0.1
    assert not np.allclose(east, west)               # independent noise


def test_frames_deterministic():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.1e6,
                            frame_seconds=0.02, seed=7)
    a = [(f[3].copy(), f[4].copy()) for f in simulate_frames(cfg, n_frames=3)]
    b = [(f[3].copy(), f[4].copy()) for f in simulate_frames(cfg, n_frames=3)]
    for (ea, wa), (eb, wb) in zip(a, b):
        assert np.array_equal(ea, eb)
        assert np.array_equal(wa, wb)


def test_time_mode_matches_freq_mode_levels():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.05e6,
                            frame_seconds=0.02, seed=3)   # 1000 bins
    ef = next(simulate_frames(cfg, n_frames=1, mode="freq"))[3]
    et = next(simulate_frames(cfg, n_frames=1, mode="time"))[3]
    assert ef.size == et.size == 1000
    assert float(np.mean(np.abs(et) ** 2)) == pytest.approx(
        float(np.mean(np.abs(ef) ** 2)), rel=0.2)


def test_injected_tone_phase_convention():
    # west lags east on both simulators: at high SNR every injected
    # component has wrap(phi_w - phi_e - fringe_phase(f, tau)) ~ 0, tau the
    # geometric delay at its frame plus tau_int_true_s.  The per-bin path's
    # events are all the source's; the sampler's injected rows are those
    # above threshold + 6 dB, which no noise row reaches
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1447.5e6,
                            frame_seconds=0.1, tau_int_true_s=-144.0e-9,
                            seed=13)
    lst0 = float(lst_hours(0.0, cfg.longitude_deg))
    src = SourceSpec(name="s", ra_hr=lst0, dec_deg=-8.0, snr_db=60.0,
                     pulse_rate_per_frame=2.0, delta_f_low_hz=1.0e5,
                     delta_f_high_hz=2.0e6)
    params = wide_band_params()
    frames = detect_events(cfg, [src], [], 20, params)
    sampled = EventTable.concat(simulate_level1_events(
        cfg, [src], params, 1, lst0 - 0.002, lst0 + 0.002))
    injected = sampled.snr_east_db > params.snr_threshold_db + 6.0
    assert (sampled.snr_east_db[injected]
            == sampled.snr_west_db[injected]).all()
    sampled = sampled.take(np.flatnonzero(injected))
    # the phase noise of phi_w - phi_e: 1 / sqrt(snr) of the tone
    sigma = 10.0 ** (-src.snr_db / 20.0)
    for events in (frames, sampled):
        assert len(events) > 20
        assert (events.snr_east_db > 20.0).all()
        ha = ((lst_hours(events.utc_s, cfg.longitude_deg) - src.ra_hr)
              * math.pi / 12.0)
        tau = (geometric_delay(cfg.baseline_m, src.dec_deg, ha)
               + cfg.tau_int_true_s)
        resid = wrap_phase(events.phase_west_rad - events.phase_east_rad
                           - fringe_phase(events.rf_freq_hz, tau))
        assert np.abs(resid).max() < 6.0 * sigma


def test_source_validation():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.5)
    lst0 = float(lst_hours(0.0, cfg.longitude_deg))
    ok = dict(ra_hr=lst0, dec_deg=-8.0, snr_db=30.0, pulse_rate_per_frame=0.1)
    with pytest.raises(ValidationError):   # polarization not in the config
        list(simulate_frames(cfg, [SourceSpec(name="x", polarization_tag="RHCP",
                                              **ok)], n_frames=1))
    with pytest.raises(ValidationError):   # declination outside the beam track
        list(simulate_frames(cfg, [SourceSpec(name="x", ra_hr=lst0,
                                              dec_deg=30.0, snr_db=30.0,
                                              pulse_rate_per_frame=0.1)],
                             n_frames=1))
    with pytest.raises(ValidationError):   # delta f exceeds the band
        list(simulate_frames(cfg, [SourceSpec(name="x", ra_hr=lst0,
                                              dec_deg=-8.0, snr_db=30.0,
                                              pulse_rate_per_frame=0.1,
                                              delta_f_high_hz=5.0e6)],
                             n_frames=1))
    with pytest.raises(ValidationError):   # never transits during the run
        list(simulate_frames(cfg, [SourceSpec(name="x", ra_hr=lst0 + 12.0,
                                              dec_deg=-8.0, snr_db=30.0,
                                              pulse_rate_per_frame=0.1,
                                              transit_halfwidth_hr=0.05)],
                             n_frames=4))


def test_rfi_common_mode_vs_sidelobe():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.1e6,
                            frame_seconds=0.02, seed=4)
    common = RfiSpec(kind="narrowband_carrier", power_rel_noise=1.0e6,
                     rf_freq_hz=1445.05e6)
    side = RfiSpec(kind="narrowband_carrier", power_rel_noise=1.0e6,
                   rf_freq_hz=1445.05e6, sidelobe_delay_s=100.0e-9)
    params = FirstLevelFilterParams(
        snr_threshold_db=12.0, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1445.1e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    ev_c = detect_events(cfg, [], [common], 5, params)
    ev_s = detect_events(cfg, [], [side], 5, params)
    assert len(ev_c) == 5 and len(ev_s) == 5
    diff_c = wrap_phase(ev_c.phase_west_rad - ev_c.phase_east_rad)
    assert (np.abs(diff_c) < 0.01).all()
    shift = fringe_phase(1445.05e6, 100.0e-9)
    diff_s = wrap_phase(ev_s.phase_west_rad - ev_s.phase_east_rad - shift)
    assert (np.abs(diff_s) < 0.01).all()


def test_rfi_validation():
    with pytest.raises(ValidationError):
        RfiSpec(kind="narrowband_carrier", power_rel_noise=10.0,
                rf_freq_hz=1445.0e6, duty_cycle=1.5)   # outside [0, 1]
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.1e6,
                            frame_seconds=0.02)
    flat = RfiSpec(kind="broadband_flat", power_rel_noise=10.0,
                   sidelobe_delay_s=100.0e-9)
    with pytest.raises(ValidationError):   # needs per-bin slopes: freq only
        list(simulate_frames(cfg, [], [flat], n_frames=1, mode="time"))
    flat.sidelobe_delay_s = 0.0              # zero delay: time mode too
    assert len(list(simulate_frames(cfg, [], [flat], n_frames=1,
                                    mode="time"))) == 1


def test_rfi_duty_cycle_zero_is_silent():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.1e6,
                            frame_seconds=0.02, seed=5)
    quiet = RfiSpec(kind="narrowband_carrier", power_rel_noise=1.0e6,
                    rf_freq_hz=1445.05e6, duty_cycle=0.0)
    params = FirstLevelFilterParams(
        snr_threshold_db=12.0, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1445.1e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    assert len(detect_events(cfg, [], [quiet], 5, params)) == 0


@pytest.mark.parametrize("bins_per_segment, include_self",
                         [(256, True), (64, False)])
def test_sampler_statistics(bins_per_segment, include_self):
    # the sampler draws the survivors of the filter's own segment rule
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52,
                            polarization_tags=("LHCP", "RHCP"), seed=2)
    params = FirstLevelFilterParams(
        snr_threshold_db=8.5, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6, bins_per_segment=bins_per_segment,
        segment_include_self=include_self)
    events = EventTable.concat(
        simulate_level1_events(cfg, [], params, 1, 3.30, 7.30))
    # expectation: n_pols * n_usable * p1^2 per frame over the window
    from pulsepair.calib import SIDEREAL_DAY_S
    from pulsepair.channelizer import estimator_corrected_crossing_prob
    p1 = estimator_corrected_crossing_prob(
        8.5, params.bins_per_segment, params.segment_include_self)
    m = params.bins_per_segment
    usable = (520_000 // m) * m - 1                # one edge bin excised
    n_frames = round(4.0 / 24.0 * SIDEREAL_DAY_S / 0.52)
    lam = 2 * usable * p1 * p1 * n_frames
    assert abs(len(events) - lam) < 5.0 * math.sqrt(lam)
    snr = events.snr_east_db
    assert float(snr.min()) >= 8.5                  # conditioned on crossing
    ra = events.ra_pointing_hr
    assert ra.min() >= 3.30 and ra.max() < 7.30


@pytest.mark.parametrize("include_self", [True, False])
def test_sampler_injected_snr_follows_segment_rule(include_self):
    # an injected tone carries the SNR the detector would measure for it
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=3)
    params = FirstLevelFilterParams(
        accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
        excision_low_hz=1445.0e6, excision_high_hz=1445.0e6,
        segment_include_self=include_self)
    src = SourceSpec(name="b", ra_hr=5.25, dec_deg=-8.0, snr_db=30.0,
                     pulse_rate_per_frame=0.05, transit_halfwidth_hr=0.05)
    events = EventTable.concat(
        simulate_level1_events(cfg, [src], params, 1, 5.0, 5.5))
    injected = float(events.snr_east_db.max())     # noise tails stay < 20 dB
    bins = np.ones(256, complex)
    bins[17] = math.sqrt(1000.0)                   # 30 dB over a unit floor
    _, snr, _, _ = frame_bin_stats(bins, 256, include_self)
    assert injected == pytest.approx(snr[17], abs=0.05)


def test_sampler_is_deterministic():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=6)
    params = FirstLevelFilterParams(
        snr_threshold_db=8.5, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    # two draws of one session give the same events
    one, two = (EventTable.concat(simulate_level1_events(
        cfg, [], params, 3, 5.0, 5.5)) for _ in range(2))
    assert event_columns(one) == event_columns(two)
    assert len(one) > 100


def test_sampler_rejects_weak_sources():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=6)
    params = FirstLevelFilterParams(
        snr_threshold_db=8.5, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    weak = SourceSpec(name="w", ra_hr=5.25, dec_deg=-8.0, snr_db=10.0,
                      pulse_rate_per_frame=0.01)
    with pytest.raises(ValidationError):
        simulate_level1_events(cfg, [weak], params, 1, 5.0, 5.5)
    # a window over 24 h: a transit's part would hold rows of three
    with pytest.raises(ValidationError, match="window_hi_hr"):
        simulate_level1_events(cfg, [], params, 2, 5.0, 30.0)


def _mask_usable(config, params):
    # the full-band mask the sampler used to build, kept as the reference
    n = config.n_bins
    top = (n // params.bins_per_segment) * params.bins_per_segment
    return np.flatnonzero((np.arange(n) < top)
                          & params.rf_accepted(config.rf_freqs()))


def _band(**kw):
    # 1000 bins of 1 kHz from 1445 MHz, 100-bin segments, nothing excised
    base = dict(accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
                excision_low_hz=1400.0e6, excision_high_hz=1401.0e6,
                bins_per_segment=100)
    base.update(kw)
    return FirstLevelFilterParams(**base)


_GRID = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                          frame_seconds=0.001)


@pytest.mark.parametrize("config, params", [
    (_GRID, _band()),                                     # excision outside
    (_GRID, _band(excision_low_hz=1444.5e6,               # low accept edge
                  excision_high_hz=1445.0e6)),
    (_GRID, _band(accept_band_low_hz=1445.2e6, excision_low_hz=1445.1e6,
                  excision_high_hz=1445.2e6)),
    (_GRID, _band(accept_band_high_hz=1445.5e6,           # high accept edge
                  excision_low_hz=1445.5e6, excision_high_hz=1446.0e6)),
    (_GRID, _band(excision_low_hz=1445.7e6, excision_high_hz=1445.999e6)),
    (_GRID, _band(excision_low_hz=1445.3e6,               # lo = hi on a bin
                  excision_high_hz=1445.3e6)),
    (_GRID, _band(excision_low_hz=1445.3005e6,            # lo = hi between
                  excision_high_hz=1445.3005e6)),
    (_GRID, _band(accept_band_low_hz=1445.0005e6,         # edges off grid
                  accept_band_high_hz=1445.9995e6,
                  excision_low_hz=1445.4003e6, excision_high_hz=1445.5997e6)),
    (_GRID, _band(bins_per_segment=300)),                 # 100 bins cut
    (_GRID, _band(bins_per_segment=300, excision_low_hz=1445.85e6,
                  excision_high_hz=1445.95e6)),
    (_GRID, _band(accept_band_low_hz=1445.3995e6,         # one usable bin
                  accept_band_high_hz=1445.4005e6)),
    (_GRID, _band(excision_low_hz=1445.001e6,             # bin 0 alone
                  excision_high_hz=1446.0e6)),
    (ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                       frame_seconds=0.000123),           # 1/fs inexact
     _band(accept_band_low_hz=1445.0e6 + 17 / 0.000123,
           accept_band_high_hz=1445.0e6 + 101 / 0.000123,
           excision_low_hz=1445.0e6 + 40 / 0.000123,
           excision_high_hz=1445.0e6 + 41 / 0.000123, bins_per_segment=7)),
])
def test_usable_runs_match_the_full_band_mask(config, params):
    runs = sigsim._usable_runs(config, params)
    want = _mask_usable(config, params)
    assert want.size > 0
    got = np.concatenate([np.arange(start, stop) for start, stop in runs])
    assert got.tolist() == want.tolist()
    # draws map to the bins the mask gave them
    draws = np.arange(want.size)
    assert sigsim._run_bins(runs, draws).tolist() == want.tolist()
    assert sigsim._run_bins(runs, draws[-1]) == want[-1]
    # the injected pairs' membership test, at both ends of every run
    usable = set(want.tolist())
    for start, stop in runs:
        for k in (start - 1, start, stop - 1, stop):
            assert sigsim._in_runs(runs, k) == (k in usable), k


def test_usable_runs_at_float_edges():
    # accept and excision edges on a bin's exact RF or one ulp either side
    config = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1445.1e6,
                               frame_seconds=0.00301)   # 301 bins
    rf = config.rf_freqs()
    rng = np.random.default_rng(5)
    for _ in range(200):
        edges = [float(rf[k]) + ulp * np.spacing(rf[k]) for k, ulp in zip(
            rng.integers(0, rf.size, 4), rng.integers(-1, 2, 4))]
        lo, hi, cut_lo, cut_hi = edges[0], edges[1], *sorted(edges[2:])
        if not hi > lo:
            continue
        params = _band(accept_band_low_hz=lo, accept_band_high_hz=hi,
                       excision_low_hz=cut_lo, excision_high_hz=cut_hi,
                       bins_per_segment=int(rng.integers(2, 40)))
        runs = sigsim._usable_runs(config, params)
        got = [k for start, stop in runs for k in range(start, stop)]
        assert got == _mask_usable(config, params).tolist()


def test_sampler_memory_scales_with_events_not_bins():
    # 10**10 bins: a full-band mask alone would need 10 GB
    cfg = ObservationConfig(frame_seconds=200.0, hop_seconds=1.0, seed=4)
    assert cfg.n_bins == 10 ** 10
    window_hr = 4.0 * 24.0 / SIDEREAL_DAY_S                # 4 frames
    tracemalloc.start()
    try:
        events = EventTable.concat(simulate_level1_events(
            cfg, [], FirstLevelFilterParams(), 1, 5.0, 5.0 + window_hr))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 1000
    assert peak < 8 * cfg.n_bins / 1000
    rf = events.rf_freq_hz
    assert rf.min() >= 1405.0e6 and rf.max() <= 1455.0e6
    assert not ((rf >= 1424.0e6) & (rf <= 1426.0e6)).any()
    assert events.frame_index.tolist() == sorted(events.frame_index.tolist())


def test_sampler_holds_the_output_once():
    # a transit is drawn only when the stream is consumed, and no array of
    # its ten columns is made: it holds its sorted key, the sort's order and
    # its four float draws (6 of 10 columns' bytes) while each pair chunk
    # is made from them, into its own columns with no copy
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=6)
    params = _band(snr_threshold_db=7.0)
    for _ in simulate_level1_events(cfg, [], params, 1, 5.0, 5.1):
        pass                        # the imports made while sampling
    tracemalloc.start()
    try:
        stream = simulate_level1_events(cfg, [], params, 1, 5.0, 7.0)
        # nothing is drawn before the stream is consumed
        assert tracemalloc.get_traced_memory()[0] < 64 * 1024
        sizes = []
        for events in stream:
            sizes.append(sum(getattr(events, name).nbytes
                             for name in EVENT_COLUMNS))
            assert all(getattr(events, name).base is events.frame_index.base
                       for name in EVENT_COLUMNS)
            del events
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stream) > 250_000 and len(sizes) > 10
    columns = 8 * len(EVENT_COLUMNS) * len(stream)
    assert sum(sizes) == columns
    chunk = 8 * len(EVENT_COLUMNS) * pairdetect._CHUNK_ROWS
    assert max(sizes) < 1.01 * chunk
    # measured 0.609 x the columns beside the largest chunk (0.669 x in
    # all); a transit drawn into its ten columns peaked at 1.22 x
    assert peak < 0.6 * columns + 1.5 * chunk


@pytest.mark.parametrize("tags", [("LHCP",), ("RHCP", "LHCP")],
                         ids=["one-tag", "two-tags"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_sampler_chunks_are_chunk_events_of_the_session(tags, k):
    # the sampler cuts each transit's sorted key as chunk_events cuts the
    # whole session: the same cuts and the same rows, bit for bit, with an
    # injected source's rows sorted in among the noise.  3,452 frames a
    # transit, not a multiple of 2K + 1, so a frame block spans two transits
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=9,
                            polarization_tags=tags)
    params = _band(snr_threshold_db=7.0)
    src = SourceSpec(name="s", ra_hr=5.25, dec_deg=-8.0, snr_db=30.0,
                     pulse_rate_per_frame=0.05, transit_halfwidth_hr=0.1)

    def session(sources, window):
        return simulate_level1_events(cfg, sources, params, 2, 5.0, 5.5,
                                      pairing_window_frames=window)

    chunks = list(session([src], k))
    whole = EventTable.concat(session([src], 0))
    assert len(whole) > len(session([], 0)) + 100       # injected rows
    transit_of = functools.partial(transit_index, config=cfg,
                                   window_lo_hr=5.0, window_hi_hr=5.5)
    want = list(pairdetect.chunk_events(whole, transit_of, k))
    assert len(chunks) == len(want) >= 2 * 4 * len(tags)
    for got, expect in zip(chunks, want):
        assert got.tags == expect.tags == tuple(sorted(tags))
        for name in EVENT_COLUMNS:
            assert np.array_equal(getattr(got, name).view(np.int64),
                                  getattr(expect, name).view(np.int64)), name


@pytest.mark.parametrize("seed", [0, 6, 42, 2 ** 40 + 3])
def test_float_draws_into_a_buffer_are_the_sized_draws(seed):
    # the sampler draws its float columns with `out`: the same bits, and the
    # same stream after, as the sized draws exponential(1.0, n) and
    # uniform(-pi, pi, n)
    for n in (0, 1, 3, 1001, 68_433):
        sized, into = np.random.default_rng(seed), np.random.default_rng(seed)
        buffer = np.empty(n)
        expect = sized.exponential(1.0, n)
        into.standard_exponential(out=buffer)
        assert np.array_equal(buffer.view(np.int64), expect.view(np.int64))
        expect = sized.uniform(-math.pi, math.pi, n)
        into.random(out=buffer)
        buffer *= math.pi - -math.pi
        buffer += -math.pi
        assert np.array_equal(buffer.view(np.int64), expect.view(np.int64))
        assert into.bit_generator.state == sized.bit_generator.state, n


def test_a_one_tag_draw_takes_no_bits():
    # the sampler skips a one-tag session's tag draw: integers(0, 1, n)
    # must be all zeros and leave the stream where it was
    rng = np.random.default_rng(7)
    rng.random(3)
    state = rng.bit_generator.state
    for n in (0, 1, 1001, 68_433):
        assert not rng.integers(0, 1, n).any()
        assert rng.bit_generator.state == state, n


def test_sampler_keeps_transits_in_order():
    # two tags, injected pairs in every transit: each transit is one block
    # of rows in (frame, tag, bin) order
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=2,
                            polarization_tags=("RHCP", "LHCP"))
    params = _band(snr_threshold_db=8.5, bins_per_segment=64,
                   segment_include_self=False,
                   excision_low_hz=1445.3e6, excision_high_hz=1445.4e6)
    sources = [SourceSpec(name=name, ra_hr=ra, dec_deg=dec, snr_db=30.0,
                          pulse_rate_per_frame=0.08, transit_halfwidth_hr=0.05,
                          polarization_tag=tag)
               for name, ra, dec, tag in (("b", 5.25, -8.0, "LHCP"),
                                          ("c", 5.30, 10.0, "RHCP"))]
    one = EventTable.concat(simulate_level1_events(cfg, sources, params, 3,
                                                   5.0, 5.5))
    assert one.tags == ("LHCP", "RHCP")
    injected = one.snr_east_db > 20.0              # noise tails stay < 20 dB
    assert set(one.pol_code[injected].tolist()) == {0, 1}
    n_frames = round(0.5 / 24.0 * SIDEREAL_DAY_S / 0.52)
    transit = one.frame_index // n_frames
    assert set(transit[injected].tolist()) == {0, 1, 2}
    key = list(zip(transit.tolist(), one.frame_index.tolist(),
                   one.pol_code.tolist(), one.bin_index.tolist()))
    assert key == sorted(key)
    in_transit = one.frame_index - transit * n_frames
    utc0 = one.utc_s[0] - in_transit[0] * cfg.hop_seconds
    assert np.allclose(one.utc_s, utc0 + transit * SIDEREAL_DAY_S
                       + in_transit * cfg.hop_seconds, rtol=0.0, atol=1e-6)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_pool_workers_keep_every_cpu(monkeypatch):
    allowed = os.sched_getaffinity(0)
    seen = []

    def worker():
        pairdetect._start_on_own_cpu(itertools.count())
        seen.append(os.sched_getaffinity(0))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [allowed]

    def refuse(pid, cpus):
        raise PermissionError("affinity not allowed")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    pairdetect._start_on_own_cpu(itertools.count())      # a hint, never an error


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_pool_workers_start_after_the_callers_cpu(monkeypatch):
    if os.path.exists("/proc/thread-self/stat"):
        assert pairdetect._caller_cpu() in os.sched_getaffinity(0)
    pins, lock = [], threading.Lock()

    def pin(pid, cpus):
        with lock:
            pins.append(set(cpus))

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "sched_setaffinity", pin)
    # the first worker starts on the CPU after the caller's, wrapping; a
    # caller on no CPU the process may use, or unknown, starts at the first
    for caller, starts in ((1, {2, 3}), (3, {0, 1}), (2, {3, 0}),
                           (9, {0, 1}), (None, {0, 1})):
        monkeypatch.setattr(pairdetect, "_caller_cpu", lambda: caller)
        del pins[:]
        both = threading.Barrier(2, timeout=10.0)
        with pairdetect.thread_pool(2) as pool:
            # each task waits for the other, so two workers start
            for task in [pool.submit(both.wait) for _ in range(2)]:
                task.result(timeout=10.0)
        assert sorted(min(p) for p in pins if len(p) == 1) == sorted(
            starts), caller
        assert pins.count({0, 1, 2, 3}) == 2


def test_sampler_rejects_a_sort_key_beyond_int64():
    # 10**13 bins x ~1.4e6 frames: the packed (frame, tag, bin) key overflows
    cfg = ObservationConfig(band_low_hz=1.0e9, band_high_hz=2.0e9,
                            frame_seconds=1.0e4, hop_seconds=0.01)
    with pytest.raises(ValidationError, match="int64"):
        simulate_level1_events(cfg, [], FirstLevelFilterParams(), 1, 5.0, 9.0)


def _run_sort_key(monkeypatch, key, span):
    """sigsim._sort_key's (order, sorted keys) on a copy of `key`, and
    whether it packed the key rather than call _stable_argsort."""
    real, calls = sigsim._stable_argsort, []
    monkeypatch.setattr(sigsim, "_stable_argsort",
                        lambda k: calls.append(k.size) or real(k))
    order, out = sigsim._sort_key(key.copy(), span)
    monkeypatch.undo()
    return order, out, not calls


@pytest.mark.parametrize("case", [
    "all equal", "empty", "one row", "ties at the ends",
    "ties at the packing limit", "random"])
def test_sampler_sort_is_the_stable_argsort(monkeypatch, case):
    rng = np.random.default_rng(15)
    if case == "all equal":
        key = np.full(5000, 7, dtype=np.int64)
    elif case == "empty":
        key = np.zeros(0, dtype=np.int64)
    elif case == "one row":
        key = np.array([3], dtype=np.int64)
    elif case.startswith("ties"):
        # the smallest and the largest key each drawn several times, at
        # the first and the last position among others; at the packing
        # limit the largest is the last key that packs beside a 12-bit
        # index
        key = rng.integers(10, 1000, 3000)
        key[[0, 5, 2999]] = 0
        key[[1, 17, 2998]] = (2 ** 62 if case == "ties at the ends"
                              else 2 ** 51 - 1)
    else:
        # a transit's worth of packed keys, with 2,000 rows forced to repeat
        # another row's key
        key = rng.integers(0, 2 ** 40, 424_000)
        key[rng.choice(key.size, 2000, replace=False)] = key[
            rng.choice(key.size, 2000, replace=False)]
    b = max(key.size - 1, 0).bit_length()
    expect = np.argsort(key, kind="stable")
    # the widest span that packs beside the index, where the keys fit in
    # it, and one that never packs
    spans = [(2 ** 64, False)]
    if key.size == 0 or key.max() < 2 ** (63 - b):
        spans.insert(0, (2 ** (63 - b), True))
    for span, packed in spans:
        order, out, got = _run_sort_key(monkeypatch, key, span)
        assert got == packed, span
        assert np.array_equal(order, expect), span
        assert np.array_equal(out, key[expect]), span


def test_sampler_sort_packs_while_the_key_fits_beside_its_index(monkeypatch):
    # 3,000 keys take a 12-bit index: 2**51 - 1 is the last value that
    # packs beside it, and 2**51 the first that does not
    rng = np.random.default_rng(16)
    key = rng.integers(0, 50, 3000)
    for top, packed in ((2 ** 51 - 1, True), (2 ** 51, False)):
        key[[3, 40, 2999]] = top
        key[[0, 41]] = top - 1
        order, out, got = _run_sort_key(monkeypatch, key, top + 1)
        assert got == packed, top
        expect = np.argsort(key, kind="stable")
        assert np.array_equal(order, expect), top
        assert np.array_equal(out, key[expect]), top


def test_correlator_frames_phase():
    # a delayed broadband interferer 1e8 over unit noise: each bin's cross
    # phase is the delay's alone
    east, west, rf = calibrator_frames(400, 1.0e8, 50.0e-9, seed=9,
                                       band_hz=6.4e6, n_bins=64)
    cross = np.zeros(64, complex)
    for e, w in zip(east, west):
        cross += e * np.conj(w)
    got = np.angle(cross)
    expect = wrap_phase(TWO_PI * rf * 50.0e-9)     # conj flips the lag sign
    err = wrap_phase(got - expect)
    assert float(np.max(np.abs(err))) < 1e-3
