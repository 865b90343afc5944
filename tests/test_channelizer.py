import math

import numpy as np
import pytest

from pulsepair.channelizer import (estimator_corrected_crossing_prob,
                                   fft_frame, frame_bin_stats,
                                   single_element_crossing_prob, snr_db,
                                   wrap_phase)
from pulsepair.errors import ValidationError


def test_wrap_phase_interval():
    assert wrap_phase(3.0 * math.pi / 2.0) == pytest.approx(-math.pi / 2.0)
    assert wrap_phase(math.pi) == pytest.approx(math.pi)       # +pi kept
    assert wrap_phase(-math.pi) == pytest.approx(math.pi)      # -pi folds up
    assert wrap_phase(0.25) == pytest.approx(0.25)
    arr = wrap_phase(np.array([7.0, -7.0]))
    assert np.all(arr > -math.pi) and np.all(arr <= math.pi)


def test_fft_frame_unit_tone_gain():
    # amplitude-A complex tone at bin k must come out with |X_k|^2 = A^2
    n = 1024
    t = np.arange(n)
    samples = 2.0 * np.exp(2j * math.pi * 37 * t / n)
    bins = fft_frame(samples, frame_seconds=n / 1.0e6, sample_rate_hz=1.0e6)
    assert bins.size == n
    assert abs(bins[37]) ** 2 == pytest.approx(4.0, rel=1e-12)
    others = np.delete(np.abs(bins) ** 2, 37)
    assert float(others.max()) < 1e-20


def test_fft_frame_length_check():
    with pytest.raises(ValidationError):
        fft_frame(np.zeros(1000, complex), frame_seconds=0.001,
                  sample_rate_hz=1.2e6)  # expects 1200 samples


def test_frame_bin_stats_segment_mean():
    # one segment of 256 bins, a single hot bin; check the ratio by hand
    power = np.ones(256)
    power[17] = 100.0
    bins = np.sqrt(power).astype(complex)
    _, snr, _, scored = frame_bin_stats(bins, bins_per_segment=256)
    mean_incl = (255.0 + 100.0) / 256.0
    assert scored[17]
    assert snr[17] == pytest.approx(10.0 * math.log10(100.0 / mean_incl))
    _, snr_x, _, _ = frame_bin_stats(bins, bins_per_segment=256,
                                     include_self=False)
    assert snr_x[17] == pytest.approx(10.0 * math.log10(100.0))
    # phases lie in (-pi, pi]: np.angle puts -1 - 0j at -pi, which folds
    # to +pi; a zero bin has no phase
    bins[3] = complex(-1.0, -0.0)
    bins[4] = 0.0
    _, snr, phase, _ = frame_bin_stats(bins, bins_per_segment=256)
    assert snr[4] == -math.inf
    assert np.angle(bins[3]) == -math.pi
    assert phase[3] == math.pi
    assert np.isnan(phase[4])
    assert phase[0] == 0.0


def test_frame_bin_stats_partial_tail_unscored():
    bins = np.ones(600, complex)  # 2 full segments + 88 leftover bins
    _, snr, _, scored = frame_bin_stats(bins, bins_per_segment=256)
    assert scored[:512].all()
    assert not scored[512:].any()
    assert np.all(np.isneginf(snr[512:]))


def test_snr_db_matches_vector_path():
    rng = np.random.default_rng(0)
    power = rng.exponential(1.0, 256)
    bins = np.sqrt(power) * np.exp(2j * math.pi * rng.random(256))
    _, snr_vec, _, _ = frame_bin_stats(bins, bins_per_segment=256)
    k = 123
    assert snr_db(power[k], power) == pytest.approx(snr_vec[k], rel=1e-12)


def test_crossing_prob_values():
    # exp(-r0) at 8.5 dB and the closed-form 256-bin estimator corrections
    assert single_element_crossing_prob(8.5) == pytest.approx(
        8.4222964461004458e-4, rel=1e-12)
    assert estimator_corrected_crossing_prob(8.5, 256, True) == pytest.approx(
        7.8396575334164482e-4, rel=1e-12)
    assert estimator_corrected_crossing_prob(8.5, 256, False) == pytest.approx(
        9.2754648739630625e-4, rel=1e-12)
    # a tone cannot beat the mean by more than m with the self term included
    assert estimator_corrected_crossing_prob(
        10.0 * math.log10(256.0), 256, True) == 0.0


def test_crossing_prob_monte_carlo():
    # 4e6 noise bins against the include-self closed form (4 sigma gate)
    rng = np.random.default_rng(11)
    n_seg = 4_000_000 // 256
    power = rng.exponential(1.0, (n_seg, 256))
    ratio = power / power.mean(axis=1, keepdims=True)
    rate = float(np.mean(ratio >= 10.0 ** 0.85))
    p = estimator_corrected_crossing_prob(8.5, 256, True)
    sigma = math.sqrt(p * (1 - p) / (n_seg * 256))
    assert abs(rate - p) < 4.0 * sigma
