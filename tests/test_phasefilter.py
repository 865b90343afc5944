import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pulsepair import phasefilter
from pulsepair.channelizer import wrap_phase
from pulsepair.errors import ValidationError
from pulsepair.pairdetect import EventTable, PairTable, form_pairs
from pulsepair.pipeline import ExperimentManifest, simulate_events
from pulsepair.phasefilter import (PhaseMetricParams, phase_metrics,
                                   second_level_filter, tune_tau_int,
                                   write_metric_diagnostics_csv)
from pulsepair.skystats import analyze, bin_counts, bin_probabilities

from helpers import event_table
from test_golden import SURVEY_CFG

TWO_PI = 2.0 * math.pi
# two equal RA bins around the test events' 5.0 h: d = sqrt(n) when all n
# survivors fall in the upper one
EDGES = np.array([4.5, 5.0, 5.5])
PROBS = bin_probabilities(EDGES)


def _pair(df_hz, diff_a=0.0, diff_b=0.0, f0=1410.0e6):
    """Events (a, b) of one pair, as event_table arguments, for _pairs."""
    return (dict(k=0, rf=f0, phase_e=0.1, phase_w=wrap_phase(0.1 + diff_a)),
            dict(k=1, rf=f0 + df_hz, phase_e=-0.4,
                 phase_w=wrap_phase(-0.4 + diff_b)))


def _consistent_pair(df_hz, tau_s, f0=1410.0e6):
    # both events carry west-east phase = -2 pi f tau (delay as a lag)
    return _pair(df_hz, diff_a=-TWO_PI * f0 * tau_s,
                 diff_b=-TWO_PI * (f0 + df_hz) * tau_s)


def _pairs(*pairs):
    """A PairTable whose i-th pair is pairs[i] (each in its own frame)."""
    events = [dict(e, frame=frame) for frame, pair in enumerate(pairs)
              for e in pair]
    return form_pairs(event_table(snr=20.0, **{
        name: [e[name] for e in events]
        for name in ("frame", "k", "rf", "phase_e", "phase_w")}))


def test_phase_metric_hand_value():
    pair = _pairs(_pair(1.0e5, diff_a=0.7, diff_b=0.9))
    got, = phase_metrics(pair, tau_int_s=3.0e-6)
    expect = wrap_phase((0.9 - 0.7) + TWO_PI * 1.0e5 * 3.0e-6)
    assert got == pytest.approx(expect, rel=1e-12)


def test_phase_metric_zeroes_at_true_delay():
    tau = -144.0e-9
    for df in (1.0e3, 5.0e5, 1.9e6):
        pair = _pairs(_consistent_pair(df, tau))
        assert phase_metrics(pair, tau_int_s=tau)[0] == pytest.approx(
            0.0, abs=1e-9)
        # offsetting the assumed delay moves the metric by 2 pi df dtau
        off, = phase_metrics(pair, tau_int_s=tau + 2.0e-9)
        assert off == pytest.approx(TWO_PI * df * 2.0e-9, rel=1e-6)


def test_phase_metrics_vectorized():
    pairs = _pairs(_pair(1.0e4, diff_b=0.3), _pair(2.0e4, diff_b=-0.2))
    m = phase_metrics(pairs, tau_int_s=0.0)
    assert m.shape == (2,)
    # each entry equals the metric of its pair computed on its own
    assert m[0] == pytest.approx(phase_metrics(
        _pairs(_pair(1.0e4, diff_b=0.3)), 0.0)[0])
    assert m[1] == pytest.approx(phase_metrics(
        _pairs(_pair(2.0e4, diff_b=-0.2)), 0.0)[0])
    assert m.tolist() == pytest.approx([0.3, -0.2])


def test_phase_differences_are_the_four_gather_values_bit_for_bit():
    # the tiny survey's transit in the sampler's pair chunks at K = 1
    kv = dict(line.split(" = ") for line in SURVEY_CFG.splitlines())
    kv["run.pairing_window_frames"] = "1"
    chunks = [form_pairs(c, 1)
              for c in simulate_events(ExperimentManifest.from_kv(kv))]
    assert len(chunks) == 2
    for pairs in chunks:
        west, east = pairs.events.phase_west_rad, pairs.events.phase_east_rad
        a, b = pairs.a, pairs.b
        want = (west[b] - east[b]) - (west[a] - east[a])
        got = phasefilter._phase_differences(pairs)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert phasefilter._phase_differences(form_pairs(
        event_table().take([]))).size == 0


def test_phase_metric_rejects_bad_phase():
    a, b = _pair(1.0e4)
    a["phase_e"] = float("nan")
    with pytest.raises(ValidationError):
        phase_metrics(_pairs((a, b)), 0.0)


def test_second_level_filter_reasons():
    params = PhaseMetricParams()
    pairs = _pairs(
        _pair(1.0e4, diff_b=0.02),                # good: |m| = 0.02 <= 0.04
        _pair(1.0e4, diff_b=0.30),                # hot: phase fail
        _pair(2.0, diff_b=0.0),                   # narrow: delta f fail
        _pair(2.0, diff_b=0.30))                  # both
    survivors, reasons = second_level_filter(pairs, params, explain=True)
    assert list(survivors) == list(pairs)[:1]
    assert reasons.tolist() == ["pass", "phase", "delta_f", "delta_f+phase"]
    # the metric is recorded on every candidate, survivor or not
    assert not np.isnan(pairs.phase_metric_rad).any()
    assert pairs.phase_metric_rad[1] == pytest.approx(0.30)


def test_second_level_window_edges():
    params = PhaseMetricParams()
    assert len(second_level_filter(
        _pairs(_pair(1.0e4, diff_b=0.0399)), params)) == 1
    assert len(second_level_filter(
        _pairs(_pair(1.0e4, diff_b=0.0401)), params)) == 0
    assert len(second_level_filter(
        _pairs(_pair(0.0, diff_b=0.0)), params)) == 0


def test_params_validation():
    with pytest.raises(ValidationError):
        PhaseMetricParams(filter_halfwidth_rad=0.0)
    with pytest.raises(ValidationError):
        PhaseMetricParams(log_delta_f_low=0.5, log_delta_f_high=0.3)
    with pytest.raises(ValidationError):
        PhaseMetricParams(tau_search_low_s=-1e-9)   # bounds come in pairs
    with pytest.raises(ValidationError):
        PhaseMetricParams(tau_search_low_s=1e-9, tau_search_high_s=-1e-9,
                          tau_search_step_s=1e-10)


def test_tune_tau_recovers_plateau_delay():
    # high-SNR pairs at known delay: the tying taps bracket the truth and
    # a truth-centered scan reports it exactly
    tau = -144.0e-9
    rng = np.random.default_rng(5)
    pairs = _pairs(*(
        _consistent_pair(10.0 ** rng.uniform(6.0, math.log10(1.99e6)), tau)
        for _ in range(200)))
    params = PhaseMetricParams(tau_search_low_s=-154.0e-9,
                               tau_search_high_s=-134.0e-9,
                               tau_search_step_s=1.0e-9)
    best, stat, taus, stats = tune_tau_int([pairs], params, EDGES, PROBS)
    assert taus.size == 21
    assert stat == pytest.approx(math.sqrt(200.0))
    assert best == pytest.approx(tau)
    # everything beyond the pass plateau loses pairs
    assert stats[0] < stat and stats[-1] < stat


def test_tune_tau_ties_break_toward_scan_center():
    # one pair at -9 ns with df = 1.9 MHz passes at -10, -8 and -6 ns
    # (|2 pi df dtau| <= 0.04 up to |dtau| = 3.35 ns) and the tie goes to
    # the tap nearest the middle of the scan range, not a plateau edge
    pair = _pairs(_consistent_pair(1.9e6, -9.0e-9))
    params = PhaseMetricParams(tau_search_low_s=-10.0e-9,
                               tau_search_high_s=-3.5e-9,
                               tau_search_step_s=2.0e-9)
    best, stat, taus, stats = tune_tau_int([pair], params, EDGES, PROBS)
    assert stats.tolist() == [1.0, 1.0, 1.0, 0.0]
    assert stat == 1.0
    assert best == pytest.approx(-6.0e-9)   # scan center is -6.75 ns


def test_tune_tau_validation():
    params = PhaseMetricParams(tau_search_low_s=-1e-9, tau_search_high_s=1e-9,
                               tau_search_step_s=1e-10)
    with pytest.raises(ValidationError):
        tune_tau_int([_pairs()], params, EDGES, PROBS)
    with pytest.raises(ValidationError):
        tune_tau_int([_pairs(_pair(1e4))], PhaseMetricParams(), EDGES,
                     PROBS)
    # a non-finite phase is an error even on a pair no tap would score
    a, b = _pair(2.0)
    a["phase_e"] = float("nan")
    with pytest.raises(ValidationError):
        tune_tau_int([_pairs(_pair(1e4), (a, b))], params, EDGES, PROBS)


def test_tune_tau_takes_chunks_not_a_bare_table():
    # a PairTable iterates rows, so it would be walked as row "chunks"
    params = PhaseMetricParams(tau_search_low_s=-1e-9, tau_search_high_s=1e-9)
    pairs = _pairs(_pair(2.0))
    with pytest.raises(TypeError, match=r"\[pairs\] for one table"):
        tune_tau_int(pairs, params, EDGES, PROBS)
    assert tune_tau_int([pairs], params, EDGES, PROBS)[2].size == 3


def _taps(params):
    return np.arange(params.tau_search_low_s,
                     params.tau_search_high_s + 0.5 * params.tau_search_step_s,
                     params.tau_search_step_s)


def _reference_scan(pairs, params, edges, p_mode, exposure):
    """Filter at every tap, then the peak d analyze reports (0 if none)."""
    taus = _taps(params)
    stats = []
    for tau in taus:
        survivors = second_level_filter(pairs, replace(params, tau_int_s=tau))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = analyze(survivors.ra_pointing_hr, edges, p_mode,
                          exposure=exposure)
        stats.append(0.0 if res.peak is None else res.peak.cohens_d)
    return taus, np.array(stats)


def _random_pairs(rng, params, n=3000):
    """Pairs (a = 2i, b = 2i + 1) over random phases, delta_f and RAs.

    A quarter of the pairs sit at |metric| == half-width exactly at a
    random tap each (the half-width is dyadic, so the sum can land on it);
    a quarter have |delta_f| near 2 MHz, whose metric sweeps past +/-pi
    over a wide scan; a few lie outside the delta_f window.  RAs cover the
    window, both sides of it and every edge (edges[-1] is outside).
    Returns the pairs and how many sit on the half-width at their tap.
    """
    hw = params.filter_halfwidth_rad
    df = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(1.0, 6.3, n)
    df[: n // 4] = rng.choice([-1.0, 1.0], n // 4) * rng.uniform(
        1.9e6, 1.9953e6, n // 4)
    df[n // 4: n // 4 + 20] = rng.choice([0.0, 3.0, 2.5e6], 20)
    diff = rng.uniform(-math.pi, math.pi, n)
    edge = np.arange(n // 2, 3 * n // 4)
    x = TWO_PI * df[edge] * rng.choice(_taps(params), edge.size)
    first = (rng.choice([-hw, hw], edge.size)
             + TWO_PI * rng.integers(-1, 2, edge.size) - x)
    d = first
    for cand in (np.nextafter(first, np.inf), np.nextafter(first, -np.inf)):
        d = np.where(np.abs(wrap_phase(d + x)) == hw, d, cand)
    diff[edge] = d
    ra = rng.choice(np.concatenate([rng.uniform(4.4, 5.6, 40), EDGES]), n)
    ra[:100] = rng.uniform(4.45, 5.55, 100)
    zeros = np.zeros(2 * n)
    events = EventTable(
        frame_index=np.arange(2 * n) // 2, utc_s=zeros, bin_index=zeros,
        rf_freq_hz=np.ravel(np.column_stack([np.full(n, 1.4e9), 1.4e9 + df])),
        snr_east_db=zeros, snr_west_db=zeros, phase_east_rad=zeros,
        phase_west_rad=np.ravel(np.column_stack([np.zeros(n), diff])),
        pol_code=zeros, ra_pointing_hr=np.repeat(ra, 2), tags=("LHCP",))
    pairs = PairTable(events, a=2 * np.arange(n), b=2 * np.arange(n) + 1,
                      delta_t_s=np.zeros(n), delta_f_hz=df,
                      phase_metric_rad=np.zeros(n))
    on_edge = np.abs(wrap_phase(diff[edge] + x)) == hw
    return pairs, int(np.count_nonzero(on_edge))


@pytest.mark.parametrize("low, high, step", [
    (-10.0e-9, 10.0e-9, 1.0e-9),        # arcs shorter than the window
    (-300.0e-9, 300.0e-9, 3.0e-9),      # 2 MHz arcs sweep past +/-pi
    (-4.0e-9, -3.5e-9, 1.0e-9),         # a single tap
    # a 1e-15 s step: the rounding band of a 10 Hz pair spans 100+ taps
    (-20.0e-15, 20.0e-15, 1.0e-15),
    (-1.0e-6, 1.0e-6, 1.0e-8),          # 2 MHz arcs wrap 4 times
    # 2 MHz arcs wrap 12 times over 4 taps: each tap is tested alone
    (-3.0e-6, 3.0e-6, 2.0e-6),
])
def test_tune_tau_matches_per_tap_filter_and_analyze(low, high, step):
    rng = np.random.default_rng(11)
    params = PhaseMetricParams(filter_halfwidth_rad=0.0390625,
                               tau_search_low_s=low, tau_search_high_s=high,
                               tau_search_step_s=step)
    pairs, on_edge = _random_pairs(rng, params)
    assert on_edge >= 700
    exposure = bin_counts(rng.uniform(4.5, 5.5, 200), EDGES)
    # the same pairs in chunks, the first of them empty
    chunks = [pairs.take(rows) for rows in
              np.array_split(np.arange(len(pairs)), [0, 700, 701, 2400])]
    for p_mode in ("uniform", "exposure"):
        probs = bin_probabilities(EDGES, p_mode, exposure)
        best, stat, taus, stats = tune_tau_int([pairs], params, EDGES, probs)
        ref_taus, ref_stats = _reference_scan(pairs, params, EDGES, p_mode,
                                              exposure)
        assert np.array_equal(taus, ref_taus)
        assert np.array_equal(stats, ref_stats)
        assert stat == ref_stats.max() and best in taus
        got = tune_tau_int(chunks, params, EDGES, lambda: probs)
        assert got[:2] == (best, stat) and np.array_equal(got[3], stats)


@pytest.mark.parametrize("halfwidth", [math.pi - 1e-12, math.pi, 4.0])
def test_tune_tau_counts_each_tap_once_where_wraps_meet(halfwidth):
    # within rounding of +/-pi the runs of two wraps meet; from pi on
    # every pair passes at every tap
    params = PhaseMetricParams(filter_halfwidth_rad=halfwidth,
                               tau_search_low_s=-300.0e-9,
                               tau_search_high_s=300.0e-9,
                               tau_search_step_s=3.0e-9)
    pairs, on_edge = _random_pairs(np.random.default_rng(3), params)
    assert on_edge > 0 or halfwidth > math.pi
    _, _, _, stats = tune_tau_int([pairs], params, EDGES, PROBS)
    assert np.array_equal(
        stats, _reference_scan(pairs, params, EDGES, "uniform", None)[1])


def test_metric_diagnostics_csv(tmp_path):
    path = tmp_path / "diag.csv"
    pairs = _pairs(_pair(1.0e4, diff_b=0.02), _pair(2.0, diff_b=0.5))
    _, verdicts = second_level_filter(pairs, PhaseMetricParams(),
                                      explain=True)
    write_metric_diagnostics_csv(path, pairs, verdicts)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_f_hz,log10_delta_f_mhz,phase_metric_rad,verdict"
    assert len(lines) == 3
    assert lines[1].endswith("pass")
