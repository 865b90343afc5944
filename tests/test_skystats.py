import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pulsepair import cli
from pulsepair.kvconfig import read_kv_file
from pulsepair.pipeline import ExperimentManifest, _write_report
from pulsepair.errors import ValidationError
from pulsepair.plotting import caption_line
from pulsepair.skystats import (analyze, bin_counts, bin_probabilities,
                                binomial_tail, cohens_d, peak_bin,
                                peak_cohens_d, ra_bin_index, read_stats_csv,
                                write_stats_csv)

from helpers import enumerate_tail, false_alarm_tail_check

# closed-form via exact rational arithmetic, frozen
TAIL_328_GT19 = 2.7860933750065e-4
TAIL_246_GE15 = 1.3998858498717e-3
TAIL_246_GT15 = 4.9768626811394e-4


def test_frozen_tail_values():
    assert binomial_tail(328, 0.025, 19, strict=True) == pytest.approx(
        TAIL_328_GT19, rel=1e-10)
    p = 6.1 / 246.0
    assert binomial_tail(246, p, 15) == pytest.approx(TAIL_246_GE15, rel=1e-10)
    assert binomial_tail(246, p, 15, strict=True) == pytest.approx(
        TAIL_246_GT15, rel=1e-10)


def test_tail_edge_cases():
    assert binomial_tail(10, 0.1, 0) == 1.0
    assert binomial_tail(10, 0.1, 10, strict=True) == 0.0
    # degenerate p is a configuration error, not a probability
    with pytest.raises(ValidationError):
        binomial_tail(10, 0.0, 1)
    with pytest.raises(ValidationError):
        binomial_tail(10, 1.5, 3)
    with pytest.raises(ValidationError):
        binomial_tail(-1, 0.5, 0)


def test_tail_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        p = float(rng.uniform(0.01, 0.99))
        k = int(rng.integers(0, n + 1))
        strict = bool(rng.integers(0, 2))
        assert binomial_tail(n, p, k, strict) == pytest.approx(
            enumerate_tail(n, p, k, strict), abs=1e-13)
    with pytest.raises(ValidationError):
        enumerate_tail(21, 0.5, 3)


def test_cohens_d_values():
    assert cohens_d(19, 328, 0.025) == pytest.approx(3.8195704207246,
                                                     rel=1e-12)
    assert math.sqrt(328 * 0.025 * 0.975) == pytest.approx(2.8275431031197,
                                                           rel=1e-12)
    assert cohens_d(8, 320, 0.025) == 0.0     # exactly at the mean


def test_bin_probabilities():
    edges = np.array([0.0, 1.0, 3.0, 4.0])
    p = bin_probabilities(edges)
    assert p == pytest.approx([0.25, 0.5, 0.25])
    expo = bin_probabilities(edges, mode="exposure", exposure=bin_counts(
        np.array([0.5, 1.5, 1.6, 3.5]), edges))
    assert expo == pytest.approx([0.25, 0.5, 0.25])
    with pytest.raises(ValidationError):
        bin_probabilities(edges, mode="exposure", exposure=bin_counts(
            np.array([0.5, 0.6]), edges))
    # an event on the last edge is no trial, as ra_bin_index counts them
    edges = np.array([3.0, 4.0, 5.0])
    expo = bin_probabilities(edges, mode="exposure", exposure=bin_counts(
        np.array([3.5, 4.5, 5.0, 5.0]), edges))
    assert expo.tolist() == [0.5, 0.5]


def test_analyze_hand_counts():
    edges = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
    ra = np.array([3.5] * 3 + [4.5] * 9 + [6.5] * 2 + [11.0])  # last: outside
    res = analyze(ra, edges)
    assert res.n_trials == 14
    counts = [b.observed_count for b in res.stats]
    assert counts == [3, 9, 0, 2]
    b = res.stats[1]
    assert b.p_bin == pytest.approx(0.25)
    assert b.expected_mean == pytest.approx(14 * 0.25)
    assert b.cohens_d == pytest.approx(
        (9 - 3.5) / math.sqrt(14 * 0.25 * 0.75))
    assert b.tail_prob_ge == pytest.approx(binomial_tail(14, 0.25, 9))
    assert res.peak is b


def test_analyze_empty_window_warns():
    with pytest.warns(UserWarning):
        res = analyze(np.array([11.0]), np.array([3.0, 4.0]))
    assert res.n_trials == 0
    assert res.peak is None
    assert res.stats == []


def test_peak_cohens_d_matches_analyze():
    # RAs on every edge, outside the window and NaN bin as analyze counts
    edges = np.array([3.0, 4.0, 5.0, 6.0, 7.0])
    ra = np.array([3.0, 3.5, 4.0, 4.5, 4.5, 6.99, 7.0, 2.9, np.nan, 4.5, 6.0])
    bins = ra_bin_index(ra, edges)
    assert bins.tolist() == [0, 0, 1, 1, 1, 3, -1, -1, -1, 1, 3]
    counts = bin_counts(ra, edges)
    assert counts.tolist() == [2, 4, 0, 2]
    expo = bin_counts(np.array([3.5, 4.5, 4.6, 5.5, 6.5, 6.6, 6.7]), edges)
    for mode in ("uniform", "exposure"):
        res = analyze(ra, edges, mode, exposure=expo)
        assert [s.observed_count for s in res.stats] == counts.tolist()
        d, i = peak_cohens_d(counts, bin_probabilities(edges, mode, expo))
        assert d == res.peak.cohens_d
        assert edges[i] == res.peak.ra_low_hr
    # a tie goes to the first bin, as analyze's peak does
    d, i = peak_cohens_d(np.array([1, 0, 0, 1]), bin_probabilities(edges))
    assert (d, i) == (cohens_d(1, 2, 0.25), 0)


# 40 bins of 0.1 h over 3.25-7.25 h, as ExperimentManifest.bin_edges makes
# the quick start's: their float widths differ in the last bits
EDGES_40 = 3.25 + 0.1 * np.arange(41)


def test_equal_bins_get_bit_identical_probabilities():
    assert len(set(np.diff(EDGES_40).tolist())) > 1
    assert bin_probabilities(EDGES_40).tolist() == [1.0 / 40] * 40
    # widths that differ by more than a relative 1e-9 keep their share
    edges = np.array([0.0, 1.0, 2.0 + 1e-6])
    assert bin_probabilities(edges).tolist() == (np.diff(edges)
                                                 / edges[-1]).tolist()


@pytest.mark.parametrize("tied", [list(range(40)), [8, 9], [16, 39]])
def test_a_tied_maximum_count_goes_to_the_first_tied_bin(tmp_path, tied):
    # bins 8 and 16 have the widest float widths and bin 9 the narrowest:
    # width / span would rank them by float noise.  In exposure mode the
    # tied bins share an exposure count and the others have more
    counts = np.full(40, 3)
    counts[tied] = 7
    ra = np.repeat(EDGES_40[:-1] + 0.05, counts)
    exposure = np.full(40, 1013)
    exposure[tied] = 997
    first = tied[0]
    for p_mode in ("uniform", "exposure"):
        probs = bin_probabilities(EDGES_40, p_mode, exposure)
        assert len(set(probs[tied].tolist())) == 1
        res = analyze(ra, EDGES_40, p_mode, exposure)
        assert res.peak is res.stats[first]
        assert peak_cohens_d(bin_counts(ra, EDGES_40), probs)[1] == first
        stats = tmp_path / "stats.csv"
        write_stats_csv(stats, res.stats)
        report = tmp_path / "report.txt"
        _write_report(report, ExperimentManifest(p_mode=p_mode), res)
        caption = read_kv_file(report)["caption"]
        assert caption == caption_line(res.stats[first])
        for fmt in ("csv", "svg"):
            assert cli.main(["report", "--stats", str(stats), "--out",
                             str(tmp_path), "--format", fmt]) == 0
        assert ((tmp_path / "figure_caption.csv").read_text()
                == f'caption\n"{caption}"\n')
        # the figure's last line of text is its caption
        texts = ET.parse(tmp_path / "figure.svg").getroot().iter(
            "{http://www.w3.org/2000/svg}text")
        assert list(texts)[-1].text == caption


def test_peak_cohens_d_empty():
    probs = bin_probabilities(np.array([3.0, 4.0]))
    assert peak_cohens_d(np.zeros(1, dtype=np.int64), probs) == (0.0, 0)
    assert peak_bin([]) is None


def test_every_trial_in_one_bin():
    # no count can exceed the peak's; the caption writes that chance as 0
    res = analyze(np.array([3.5, 3.6, 3.7]), np.array([3.0, 4.0, 5.0]))
    assert res.peak is res.stats[0]
    assert res.peak.tail_prob_gt == 0.0
    assert caption_line(res.peak).endswith("= 0")


def test_false_alarm_check_statistics():
    chk = false_alarm_tail_check(8.5, n_trials=2_000_000, seed=1)
    sigma = math.sqrt(chk.predicted_corrected / chk.n_trials)
    assert chk.n_trials == 2_000_000 - (2_000_000 % 256)  # whole segments
    assert not chk.low_stats_warning
    assert abs(chk.empirical_rate - chk.predicted_corrected) < 4.0 * sigma
    assert chk.predicted_ideal == pytest.approx(8.4222964461e-4, rel=1e-9)
    weak = false_alarm_tail_check(8.5, n_trials=25_600, seed=1)
    assert weak.low_stats_warning


def test_stats_csv_roundtrip(tmp_path):
    edges = np.array([3.0, 4.0, 5.0])
    res = analyze(np.array([3.5, 3.6, 4.5]), edges)
    path = tmp_path / "stats.csv"
    write_stats_csv(path, res.stats)
    back = read_stats_csv(path)
    assert len(back) == 2
    assert back[0].observed_count == 2
    assert back[0].cohens_d == pytest.approx(res.stats[0].cohens_d, rel=1e-6)
    # fixed formats mean identical bytes on rewrite
    path2 = tmp_path / "stats2.csv"
    write_stats_csv(path2, back)
    assert path.read_bytes() == path2.read_bytes()
