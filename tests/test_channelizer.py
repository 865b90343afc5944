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


def _np_mod_wrap(phi):
    """The np.mod and np.where formula wrap_phase must give to the bit."""
    arr = np.mod(np.asarray(phi, dtype=float), 2.0 * np.pi)
    return np.where(arr > np.pi, arr - 2.0 * np.pi, arr)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _edge_inputs():
    """+-k pi for k <= 6 with three nextafter neighbours on each side,
    signed zeros and subnormals, values at which np.mod rounds a tiny
    negative remainder up to 2 pi, and nan, +-inf and huge values."""
    values = []
    for k in range(-6, 7):
        v = below = above = k * math.pi
        values.append(v)
        for _ in range(3):
            below, above = np.nextafter(below, -np.inf), np.nextafter(
                above, np.inf)
            values += [below, above]
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, -1e-20,
               1e-20, math.nan, -math.nan, math.inf, -math.inf, 1e300,
               -1e300, 4.0 * math.pi + 1e-9, -4.0 * math.pi - 1e-9]
    return np.array(values)


def test_wrap_phase_is_np_mod_to_the_bit():
    rng = np.random.default_rng(3)
    edges = _edge_inputs()
    arrays = {
        "edges": edges,
        # only some rows beyond 4 pi or non-finite take np.mod
        "mixed": np.concatenate([rng.uniform(-13.0, 13.0, 5000), edges,
                                 rng.uniform(-1e6, 1e6, 50)]),
        "tiny": rng.uniform(-1e-15, 1e-15, 2000),
        "2-d": rng.uniform(-20.0, 20.0, (30, 40))[:, ::3],
        "empty": np.zeros(0),
    }
    with np.errstate(invalid="ignore"):
        for name, x in arrays.items():
            got = wrap_phase(x)
            assert got.shape == x.shape, name
            assert np.array_equal(_bits(got), _bits(_np_mod_wrap(x))), name
        for v in edges.tolist():
            expect = _bits(_np_mod_wrap(v))
            got = wrap_phase(np.array(v))          # 0-d in, 0-d out
            assert got.shape == () and _bits(got) == expect, v
            for scalar in (v, np.float64(v)):      # Python's or numpy's
                assert _bits(wrap_phase(scalar)) == expect, v


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
