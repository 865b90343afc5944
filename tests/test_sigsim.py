import itertools
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import detect_events, event_columns, wide_band_params
from pulsepair import sigsim
from pulsepair.calib import SIDEREAL_DAY_S, lst_hours
from pulsepair.channelizer import frame_bin_stats, wrap_phase
from pulsepair.errors import ValidationError
from pulsepair.pairdetect import EVENT_COLUMNS, FirstLevelFilterParams
from pulsepair.sigsim import (C_LIGHT_M_S, ObservationConfig, RfiSpec,
                              SourceSpec, geometric_delay,
                              simulate_correlator_frames, simulate_frames,
                              simulate_level1_events)

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
    # west lags east: wrap(phi_w - phi_e - sign*2*pi*f*tau) ~ 0 at high SNR
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1447.5e6,
                            frame_seconds=0.1, tau_int_true_s=-144.0e-9,
                            seed=13)
    lst0 = float(lst_hours(0.0, cfg.longitude_deg))
    src = SourceSpec(name="s", ra_hr=lst0, dec_deg=-8.0, snr_db=60.0,
                     pulse_rate_per_frame=2.0, delta_f_low_hz=1.0e5,
                     delta_f_high_hz=2.0e6)
    events = detect_events(cfg, [src], [], 20, wide_band_params())
    assert len(events) > 20
    for utc, rf, phase_e, phase_w, snr_e in zip(
            events.utc_s.tolist(), events.rf_freq_hz.tolist(),
            events.phase_east_rad.tolist(), events.phase_west_rad.tolist(),
            events.snr_east_db.tolist()):
        tau = geometric_delay(cfg.baseline_m, src.dec_deg,
                              (float(lst_hours(utc, cfg.longitude_deg))
                               - src.ra_hr) * math.pi / 12.0)
        tau += cfg.tau_int_true_s
        resid = wrap_phase(phase_w - phase_e
                           - cfg.phase_sign * TWO_PI * rf * tau)
        assert abs(resid) < 0.02                    # ~14 sigma at 60 dB
        assert snr_e > 20.0


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
    shift = cfg.phase_sign * TWO_PI * 1445.05e6 * 100.0e-9
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
    events = simulate_level1_events(cfg, [], params, 1, 3.30, 7.30)
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
    events = simulate_level1_events(cfg, [src], params, 1, 5.0, 5.5)
    injected = float(events.snr_east_db.max())     # noise tails stay < 20 dB
    bins = np.ones(256, complex)
    bins[17] = math.sqrt(1000.0)                   # 30 dB over a unit floor
    _, snr, _, _ = frame_bin_stats(bins, 256, include_self)
    assert injected == pytest.approx(snr[17], abs=0.05)


def test_sampler_deterministic_and_threaded():
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=6)
    params = FirstLevelFilterParams(
        snr_threshold_db=8.5, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    one = simulate_level1_events(cfg, [], params, 3, 5.0, 5.5, threads=1)
    two = simulate_level1_events(cfg, [], params, 3, 5.0, 5.5, threads=2)
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
        events = simulate_level1_events(cfg, [], FirstLevelFilterParams(), 1,
                                        5.0, 5.0 + window_hr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 1000
    assert peak < 8 * cfg.n_bins / 1000
    rf = events.rf_freq_hz
    assert rf.min() >= 1405.0e6 and rf.max() <= 1455.0e6
    assert not ((rf >= 1424.0e6) & (rf <= 1426.0e6)).any()
    assert events.frame_index.tolist() == sorted(events.frame_index.tolist())


@pytest.mark.parametrize("threads", [1, 2])
def test_sampler_holds_the_output_once(threads):
    # the transits write into one set of columns: no per-transit tables and
    # no concatenated copy, whatever the threads do
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                            frame_seconds=0.52, seed=6)
    params = _band(snr_threshold_db=7.0)
    tracemalloc.start()
    try:
        events = simulate_level1_events(cfg, [], params, 2, 5.0, 5.5,
                                        threads=threads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 100_000
    output = sum(getattr(events, name).nbytes for name in EVENT_COLUMNS)
    assert peak < 2 * output


def test_sampler_threads_keep_transits_in_order():
    # two tags, injected pairs in every transit: each transit is one block
    # of rows in (frame, tag, bin) order, the same at any thread count
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
    one = simulate_level1_events(cfg, sources, params, 3, 5.0, 5.5,
                                 threads=1)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)      # more thread switches while they write
    try:
        three = simulate_level1_events(cfg, sources, params, 3, 5.0, 5.5,
                                       threads=3)
    finally:
        sys.setswitchinterval(switch)
    assert one.tags == three.tags == ("LHCP", "RHCP")
    for name in EVENT_COLUMNS:
        assert np.array_equal(getattr(one, name), getattr(three, name)), name
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
        sigsim._start_on_own_cpu(itertools.count())
        seen.append(os.sched_getaffinity(0))

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [allowed]

    def refuse(pid, cpus):
        raise PermissionError("affinity not allowed")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    sigsim._start_on_own_cpu(itertools.count())      # a hint, never an error


def test_sampler_rejects_a_sort_key_beyond_int64():
    # 10**13 bins x ~1.4e6 frames: the packed (frame, tag, bin) key overflows
    cfg = ObservationConfig(band_low_hz=1.0e9, band_high_hz=2.0e9,
                            frame_seconds=1.0e4, hop_seconds=0.01)
    with pytest.raises(ValidationError, match="int64"):
        simulate_level1_events(cfg, [], FirstLevelFilterParams(), 1, 5.0, 9.0)


@pytest.mark.parametrize("case", [
    "all equal", "empty", "one row", "ties at the ends", "random"])
def test_sampler_sort_is_the_stable_argsort(case):
    rng = np.random.default_rng(15)
    if case == "all equal":
        key = np.full(5000, 7, dtype=np.int64)
    elif case == "empty":
        key = np.zeros(0, dtype=np.int64)
    elif case == "one row":
        key = np.array([3], dtype=np.int64)
    elif case == "ties at the ends":
        # the smallest and the largest key each drawn several times, at
        # the first and the last position among others
        key = rng.integers(10, 1000, 3000)
        key[[0, 5, 2999]] = 0
        key[[1, 17, 2998]] = 2 ** 62
    else:
        # a transit's worth of packed keys, with 2,000 rows forced to repeat
        # another row's key
        key = rng.integers(0, 2 ** 40, 424_000)
        key[rng.choice(key.size, 2000, replace=False)] = key[
            rng.choice(key.size, 2000, replace=False)]
    assert np.array_equal(sigsim._stable_argsort(key),
                          np.argsort(key, kind="stable"))


def test_correlator_frames_phase():
    rf = 1405.0e6 + np.arange(64) * 1.0e5
    east, west = simulate_correlator_frames(rf, 400, corr_power=100.0,
                                            true_delay_s=50.0e-9,
                                            noise_power=1e-6, seed=9)
    cross = np.zeros(64, complex)
    for e, w in zip(east, west):
        cross += e * np.conj(w)
    got = np.angle(cross)
    expect = wrap_phase(TWO_PI * rf * 50.0e-9)     # conj flips the lag sign
    err = wrap_phase(got - expect)
    assert float(np.max(np.abs(err))) < 1e-3
