"""Acceptance checklist: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the checklist lines.
Every test re-derives its expectation from first principles (closed forms,
brute-force enumeration, or Monte Carlo) rather than trusting package
internals, so a regression anywhere in the chain shows up here.
"""
import math
import time

import numpy as np

from helpers import OBS_LON, detect_events, scaled_survey_cohens_d
from pulsepair.calib import (DriftScan, FWHM_PER_SIGMA, continuum_snr_db,
                             fit_gauss_flat, lst_hours, tau_int_scan,
                             utc_at_lst)
from pulsepair.pairdetect import FirstLevelFilterParams, form_pairs
from pulsepair.phasefilter import (PhaseMetricParams, phase_metrics,
                                   second_level_filter, tune_tau_int)
from pulsepair.pipeline import ExperimentManifest, run_experiment, sha256_file
from pulsepair.sigsim import (ObservationConfig, RfiSpec, SourceSpec,
                              simulate_correlator_frames,
                              simulate_level1_events)
from pulsepair.skystats import (bin_probabilities, binomial_tail, cohens_d,
                                false_alarm_tail_check)


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def _wide_params(threshold_db: float = 12.0) -> FirstLevelFilterParams:
    return FirstLevelFilterParams(
        snr_threshold_db=threshold_db,
        accept_band_low_hz=1445.0e6, accept_band_high_hz=1447.5e6,
        excision_low_hz=1445.0e6, excision_high_hz=1445.0e6)


def test_01_tail_probability_328_trials():
    t0 = time.perf_counter()
    exact = binomial_tail(328, 0.025, 19, strict=True)
    draws = np.random.default_rng(1).binomial(328, 0.025, 10_000_000)
    mc = float(np.mean(draws > 19))
    sigma = math.sqrt(exact * (1.0 - exact) / draws.size)
    z = abs(mc - exact) / sigma
    ok = (2.5e-4 <= exact <= 3.1e-4) and z <= 3.0
    _check(1, ok, f"P(X>19; n=328, p=0.025) = {exact:.4e} in [2.5e-4, 3.1e-4]; "
                  f"1e7-trial MC {mc:.4e} is {z:.2f} sigma away "
                  f"({time.perf_counter() - t0:.1f}s)")


def test_02_tail_probability_246_trials_both_conventions():
    n, p = 246, 6.1 / 246
    ge = binomial_tail(n, p, 15, strict=False)
    gt = binomial_tail(n, p, 15, strict=True)
    draws = np.random.default_rng(2).binomial(n, p, 10_000_000)
    z_ge = abs(float(np.mean(draws >= 15)) - ge) / math.sqrt(
        ge * (1.0 - ge) / draws.size)
    z_gt = abs(float(np.mean(draws > 15)) - gt) / math.sqrt(
        gt * (1.0 - gt) / draws.size)
    # the two counting conventions bracket the quoted 9e-4: which one a
    # caption means depends on whether the observed bin itself is included
    ok = (abs(ge - 1.4e-3) < 0.05e-3 and abs(gt - 4.9e-4) < 0.1e-4
          and gt < 9.0e-4 < ge and z_ge <= 3.0 and z_gt <= 3.0)
    _check(2, ok, f"P(X>=15; n=246, p=6.1/246) = {ge:.4e}, "
                  f"P(X>15) = {gt:.4e}; conventions bracket 9.0e-4 "
                  f"(MC z: {z_ge:.2f}, {z_gt:.2f})")


def test_03_effect_size_arithmetic():
    sigma = math.sqrt(328 * 0.025 * 0.975)
    d = cohens_d(19, 328, 0.025)
    ok = abs(sigma - 2.828) <= 0.001 and abs(d - 3.82) <= 0.005
    _check(3, ok, f"sigma = {sigma:.6f} (2.828 +/- 0.001), "
                  f"d = (19 - 8.2)/sigma = {d:.6f} (3.82 +/- 0.005)")


def test_04_noise_only_crossing_rate():
    t0 = time.perf_counter()
    chk = false_alarm_tail_check(8.5, n_trials=25_600_000, seed=4)
    rel = (chk.empirical_rate - chk.predicted_ideal) / chk.predicted_ideal
    sigma = math.sqrt(chk.predicted_corrected
                      * (1.0 - chk.predicted_corrected) / chk.n_trials)
    z_corr = abs(chk.empirical_rate - chk.predicted_corrected) / sigma
    ok = abs(rel) <= 0.10 and not chk.low_stats_warning
    _check(4, ok, f"8.5 dB crossings over {chk.n_trials} bins: "
                  f"{chk.empirical_rate:.4e} vs ideal exp(-10^0.85) = "
                  f"{chk.predicted_ideal:.4e} ({rel * 100:+.1f}%); "
                  f"256-bin estimator correction predicts "
                  f"{chk.predicted_corrected:.4e} ({z_corr:.2f} sigma off) "
                  f"({time.perf_counter() - t0:.1f}s)")


def test_05_differential_phase_discrimination():
    # (a) co-directional pulse pairs, assumed delay off by 2.85 ns:
    # with |delta_f| <= 2 MHz the metric stays within 2*pi*2e6*2.85e-9
    # = 0.036 < 0.04 rad, so essentially every pair must pass.
    params = _wide_params()
    lst0 = float(lst_hours(0.0, OBS_LON))
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1447.5e6, frame_seconds=0.1,
        tau_int_true_s=-144.0e-9, seed=5)
    src = SourceSpec(name="pairgen", ra_hr=lst0, dec_deg=-8.0, snr_db=60.0,
                     pulse_rate_per_frame=2.0, delta_f_low_hz=1.0e3,
                     delta_f_high_hz=2.0e6)
    events = detect_events(config, [src], [], 250, params)
    pairs = form_pairs(events)
    m = np.asarray(phase_metrics(pairs, tau_int_s=-144.0e-9 + 2.85e-9))
    df = np.abs(pairs.delta_f_hz)
    sel = (df > 0) & (df <= 2.0e6)
    pass_frac = float(np.mean(np.abs(m[sel]) <= 0.04))

    # (b) two sidelobe carriers with a 100 ns path difference: their pair
    # passes only while 2*pi*spacing*100ns < 0.04, i.e. below ~64 kHz.
    verdicts = []
    for spacing_khz in (8.0, 16.0, 32.0, 48.0, 96.0, 192.0):
        rfi = [RfiSpec(kind="narrowband_carrier", power_rel_noise=1.0e6,
                       rf_freq_hz=1445.3e6, sidelobe_delay_s=100.0e-9),
               RfiSpec(kind="narrowband_carrier", power_rel_noise=1.0e6,
                       rf_freq_hz=1445.3e6 + spacing_khz * 1e3,
                       sidelobe_delay_s=100.0e-9)]
        cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1447.5e6,
                                frame_seconds=0.1, seed=6)
        ev = detect_events(cfg, [], rfi, 25, params)
        prs = form_pairs(ev)
        prs = prs.take(np.flatnonzero(prs.delta_f_hz != 0.0))
        mm = np.asarray(phase_metrics(prs, tau_int_s=0.0))
        frac = float(np.mean(np.abs(mm) <= 0.04)) if len(prs) else 0.0
        verdicts.append((spacing_khz, frac >= 0.5))
    passing = [s for s, v in verdicts if v]
    failing = [s for s, v in verdicts if not v]
    monotone = passing and failing and max(passing) < min(failing)
    cutoff_khz = math.sqrt(max(passing) * min(failing)) if monotone else 0.0
    ref_khz = 0.04 / (2.0 * math.pi * 100.0e-9) / 1e3
    ok = (pass_frac >= 0.99 and monotone
          and ref_khz / 2.0 <= cutoff_khz <= ref_khz * 2.0)
    _check(5, ok, f"2.85 ns-residual pairs pass at {pass_frac:.4f} "
                  f"(>= 0.99, {int(sel.sum())} pairs); 100 ns sidelobe "
                  f"carriers cut off near {cutoff_khz:.1f} kHz vs "
                  f"0.04/(2 pi 100ns) = {ref_khz:.1f} kHz")


def test_06_injection_recovery_and_null_rate():
    t0 = time.perf_counter()
    src_bin = 19                           # [5.20, 5.30) holds RA 5.25
    hits = 0
    for seed in range(20):
        ds = scaled_survey_cohens_d(seed, inject=True)
        if int(np.argmax(ds)) == src_bin and ds[src_bin] >= 3.5:
            hits += 1
    clean = 0
    for seed in range(100, 120):
        ds = scaled_survey_cohens_d(seed, inject=False)
        if float(np.max(np.abs(ds))) < 3.5:
            clean += 1
    ok = hits >= 18 and clean >= 19
    _check(6, ok, f"scaled surveys: injected beacon recovered with peak "
                  f"d >= 3.5 in bin 19 for {hits}/20 seeds (>= 18); "
                  f"null runs stay below |d| = 3.5 for {clean}/20 "
                  f"(>= 19) ({time.perf_counter() - t0:.0f}s)")


def test_07_instrument_delay_recovery():
    # coherent broadband scan, 4 ns taps over +/-512 ns
    rf = 1405.0e6 + np.arange(2048) * (50.0e6 / 2048)
    east, west = simulate_correlator_frames(rf, 128, corr_power=0.5,
                                            true_delay_s=-144.0e-9, seed=7)
    best_scan, step = tau_int_scan(east, west, rf,
                                   tap_range_s=(-512.0e-9, 512.0e-9),
                                   tap_step_s=4.0e-9)
    scan_err = abs(best_scan - (-144.0e-9))

    # grid tune on detected pairs, 1 ns steps over a +/-10 ns window
    # centered on the assumed (here: true) delay
    params = _wide_params()
    lst0 = float(lst_hours(0.0, OBS_LON))
    cfg = ObservationConfig(band_low_hz=1445.0e6, band_high_hz=1447.5e6,
                            frame_seconds=0.1, tau_int_true_s=-144.0e-9,
                            seed=8)
    src = SourceSpec(name="beacon", ra_hr=lst0, dec_deg=-8.0, snr_db=60.0,
                     pulse_rate_per_frame=2.0, delta_f_low_hz=1.0e6,
                     delta_f_high_hz=2.0e6)
    pairs = form_pairs(detect_events(cfg, [src], [], 250, params))
    phase = PhaseMetricParams(tau_search_low_s=-154.0e-9,
                              tau_search_high_s=-134.0e-9,
                              tau_search_step_s=1.0e-9)
    edges = lst0 - 0.2 + 0.1 * np.arange(5)
    best_tune, _, _, _ = tune_tau_int(pairs, phase, edges,
                                      bin_probabilities(edges))
    tune_err = abs(best_tune - (-144.0e-9))
    ok = scan_err <= step + 1e-15 and tune_err <= 1.0e-9 + 1e-15
    _check(7, ok, f"-144 ns delay: coherent scan err "
                  f"{scan_err * 1e9:.2f} ns (<= {step * 1e9:.0f} ns tap), "
                  f"pair-metric tune err {tune_err * 1e9:.2f} ns (<= 1 ns)")


def test_08_drift_scan_fit_recovery():
    worsts = []
    for (fwhm_deg, snr_db_true, seed) in ((9.0, 0.18, 21), (8.2, 0.25, 22)):
        sigma_hr = fwhm_deg / 15.0 / FWHM_PER_SIGMA
        amp = 10.0 ** (snr_db_true / 10.0) - 1.0    # flat floor at 1.0
        n = 20_000
        utc0 = utc_at_lst(5.25, OBS_LON, near_utc_s=1.7e9)
        utc = utc0 + np.linspace(-1.5, 1.5, n) * 3600.0
        ra = DriftScan(utc_s=utc, power=np.ones(n)).ra_hr()
        truth = 1.0 + amp * np.exp(-0.5 * ((ra - 5.25) / sigma_hr) ** 2)
        noise = np.random.default_rng(seed).normal(0.0, 0.01, n)
        scan = DriftScan(utc_s=utc, power=truth + noise)
        fit = fit_gauss_flat(scan)
        worst = max(abs(fit.fwhm_ra_deg - fwhm_deg) / fwhm_deg,
                    abs(fit.amplitude - amp) / amp,
                    abs(fit.floor - 1.0),
                    abs(continuum_snr_db(fit) - snr_db_true) / snr_db_true,
                    abs(fit.center_ra_hr - 5.25))
        worsts.append(worst)
    ok = all(w <= 0.02 for w in worsts)
    _check(8, ok, "FWHM 9.0deg/0.18dB and 8.2deg/0.25dB scans at 1% rms "
                  "floor noise: worst parameter errors "
                  + ", ".join(f"{w * 100:.2f}%" for w in worsts)
                  + " (<= 2%)")


def test_09_oracle_equivalence_and_filter_monotonicity():
    # exact tail vs direct summation for every k at n <= 20
    rng = np.random.default_rng(9)
    max_diff = 0.0
    for n in range(1, 21):
        for p in (0.5, 0.025, float(rng.uniform(0.01, 0.99))):
            for k in range(0, n + 1):
                for strict in (False, True):
                    lo = k + 1 if strict else k
                    brute = sum(math.comb(n, j) * p ** j
                                * (1.0 - p) ** (n - j)
                                for j in range(lo, n + 1))
                    diff = abs(binomial_tail(n, p, k, strict) - brute)
                    max_diff = max(max_diff, diff)

    # widening any second-level window may only add survivors
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
        polarization_tags=("LHCP", "RHCP"), seed=33)
    params = FirstLevelFilterParams(
        snr_threshold_db=8.0, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
        excision_high_hz=1445.0e6)
    events = simulate_level1_events(config, [], params, 1, 3.30, 3.90)
    assert len(events) >= 10_000
    pairs = form_pairs(events.take(np.arange(10_000)))
    _, base_reasons = second_level_filter(pairs, PhaseMetricParams(),
                                          explain=True)
    base_pass = {i for i, r in enumerate(base_reasons) if r == "pass"}
    wrng = np.random.default_rng(90)
    violations = 0
    for _ in range(50):
        wide = PhaseMetricParams(
            filter_halfwidth_rad=0.04 + float(wrng.uniform(0.0, 0.4)),
            log_delta_f_low=-5.1 - float(wrng.uniform(0.0, 3.0)),
            log_delta_f_high=0.3 + float(wrng.uniform(0.0, 0.5)))
        _, reasons = second_level_filter(pairs, wide, explain=True)
        wide_pass = {i for i, r in enumerate(reasons) if r == "pass"}
        if not base_pass <= wide_pass:
            violations += 1
    ok = max_diff <= 1e-12 and violations == 0
    _check(9, ok, f"tail vs enumeration max |diff| = {max_diff:.2e} "
                  f"(<= 1e-12, n <= 20); {violations}/50 random filter "
                  f"widenings lost a survivor (pairs from a fixed "
                  f"10^4-event archive)")


def test_10_thread_count_never_changes_bytes(tmp_path):
    digests = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        res = run_experiment(ExperimentManifest(
            config=ObservationConfig(
                band_low_hz=1445.0e6, band_high_hz=1446.0e6,
                frame_seconds=0.52, polarization_tags=("LHCP", "RHCP"),
                seed=0),
            filter=FirstLevelFilterParams(
                accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
                excision_low_hz=1445.0e6, excision_high_hz=1445.0e6),
            mode="events", n_transits=2, window_lo_hr=5.0, window_hi_hr=5.5,
            ra_bin_hr=0.1, threads=threads, out_dir=str(out)))
        assert res.status == "ok"
        digests.append(tuple(sha256_file(out / name) for name in (
            "level1.csv", "candidates.csv", "stats.csv", "figure.svg")))
    ok = digests[0] == digests[1] == digests[2]
    _check(10, ok, f"level1.csv + candidates.csv + stats.csv + figure.svg "
                   f"sha256 identical across 1/2/8 threads "
                   f"({', '.join(d[:12] + '...' for d in digests[0])})")
