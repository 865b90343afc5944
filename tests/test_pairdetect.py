import io
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest

from pulsepair import calib, pairdetect, phasefilter, pipeline, skystats
from pulsepair.channelizer import (frame_bin_stats, segment_power,
                                   segment_ratio)
from pulsepair.errors import ArchiveFormatError, ValidationError
from pulsepair.pairdetect import (ARCHIVE_COLUMNS, EVENT_COLUMNS,
                                  EventStream, EventTable,
                                  FirstLevelFilterParams, PairTable,
                                  first_level_filter_frame,
                                  first_level_filter_frames, form_pairs,
                                  write_level1_archive, write_rows)
from pulsepair.phasefilter import PhaseMetricParams, delta_f_window

from helpers import archive_events, event_columns, event_table
from test_golden import SURVEY_CFG


def _params(**kw):
    base = dict(snr_threshold_db=8.5, accept_band_low_hz=1405.0e6,
                accept_band_high_hz=1455.0e6, excision_low_hz=1424.0e6,
                excision_high_hz=1426.0e6)
    base.update(kw)
    return FirstLevelFilterParams(**base)


def _frame(hot, n=512, amp=40.0, phase=0.3):
    bins = np.full(n, 1.0 + 0.0j)
    for k in hot:
        bins[k] = amp * np.exp(1j * phase)
    return bins


def test_first_level_needs_both_elements():
    rf = 1410.0e6 + np.arange(512) * 100.0
    east = _frame([17])
    west_hot = _frame([17], phase=-0.5)
    west_cold = _frame([])
    both = first_level_filter_frames([0], [0.0], ["LHCP"], [east],
                                     [west_hot], rf, _params(), [5.0])
    assert both.bin_index.tolist() == [17]
    assert both.rf_freq_hz.tolist() == [rf[17]]
    assert both.phase_east_rad.tolist() == pytest.approx([0.3])
    assert both.phase_west_rad.tolist() == pytest.approx([-0.5])
    assert both.ra_pointing_hr.tolist() == [5.0]
    only_east = first_level_filter_frames([0], [0.0], ["LHCP"], [east],
                                          [west_cold], rf, _params(), [5.0])
    assert len(only_east) == 0


def test_first_level_excision_window():
    rf = 1423.9e6 + np.arange(512) * 10.0e3   # spans the excised notch
    hot = [2, 20, 300]                         # 1423.92, 1424.1, 1426.9 MHz
    east = _frame(hot)
    west = _frame(hot)
    events = first_level_filter_frames([0], [0.0], ["LHCP"], [east], [west],
                                       rf, _params(), [5.0])
    kept = sorted(events.bin_index.tolist())
    assert kept == [2, 300]                    # 1424.1 MHz is inside the notch


def test_first_level_band_edges_inclusive():
    rf = np.array([1404.999e6, 1405.0e6, 1455.0e6, 1455.001e6])
    bins = np.array([1.0, 30.0, 30.0, 1.0], dtype=complex)
    events = first_level_filter_frames(
        [0], [0.0], ["LHCP"], [bins], [bins], rf,
        _params(bins_per_segment=4, snr_threshold_db=0.1), [5.0])
    kept = sorted(events.rf_freq_hz.tolist())
    assert kept == [1405.0e6, 1455.0e6]


def per_frame_reference(frame_index, utc_s, polarization_tag, east, west,
                        rf, params, ra_pointing_hr):
    """The per-frame first-level filter: frame_bin_stats of both elements of
    each frame, and the dB test on every bin."""
    tables = []
    for frame, utc, tag, e, w, ra in zip(frame_index, utc_s,
                                         polarization_tag, east, west,
                                         ra_pointing_hr):
        _, snr_e, ph_e, _ = frame_bin_stats(e, params.bins_per_segment,
                                            params.segment_include_self)
        _, snr_w, ph_w, _ = frame_bin_stats(w, params.bins_per_segment,
                                            params.segment_include_self)
        keep = np.flatnonzero((snr_e > params.snr_threshold_db)
                              & (snr_w > params.snr_threshold_db)
                              & params.rf_accepted(rf))
        n = keep.size
        tables.append(EventTable(
            frame_index=np.full(n, frame), utc_s=np.full(n, utc),
            bin_index=keep, rf_freq_hz=rf[keep], snr_east_db=snr_e[keep],
            snr_west_db=snr_w[keep], phase_east_rad=ph_e[keep],
            phase_west_rad=ph_w[keep], pol_code=np.zeros(n, dtype=np.int64),
            ra_pointing_hr=np.full(n, ra), tags=(tag,)))
    return EventTable.concat(tables)


def event_bits(events):
    """Every column of an EventTable as a list, the float columns as their
    int64 bit patterns (so nan and -0.0 compare too), and its tags."""
    return ({name: (getattr(events, name).view(np.int64).tolist()
                    if getattr(events, name).dtype == np.float64
                    else getattr(events, name).tolist())
             for name in EVENT_COLUMNS}, events.tags)


# a segment whose first bin's ratio is exactly 2.25, with its own bin in
# the mean (9 / (16 / 4)) and without it (9 / ((9 + 4) - 9))
_EXACT_SEGMENT = {True: [3.0, 1 + 2j, 1 + 1j, 0.0], False: [3.0, 2.0]}


def _thresholds_at(ratio):
    """The dB thresholds whose 10**(thr/10) is one float below ratio, ratio
    itself and one float above it, found within 64 steps of
    10 log10(ratio)."""
    thr = 10.0 * math.log10(ratio)
    steps = [thr]
    up = down = thr
    for _ in range(64):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        steps += [up, down]
    by_floor = {}
    for thr in steps:
        by_floor.setdefault(float(np.float64(10.0) ** (thr / 10.0)),
                            float(thr))
    return [by_floor[float(want)] for want in (
        np.nextafter(ratio, 0.0), ratio, np.nextafter(ratio, np.inf))]


@pytest.mark.parametrize("include_self", [True, False])
def test_block_scorer_is_the_per_frame_filter_to_the_bit(include_self):
    # ten frames of noise with hot bins, one of them in the partial tail
    # segment; the exact-ratio segment in both elements of frames 0-3, and
    # an all-zero segment and lone zero bins in frames 1-2; thresholds at
    # the exact ratio, a float either side, and well below it
    exact = np.array(_EXACT_SEGMENT[include_self])
    m = exact.size
    n = 6 * m + 1
    rng = np.random.default_rng(8)
    east, west = (rng.standard_normal((10, n))
                  + 1j * rng.standard_normal((10, n)) for _ in range(2))
    for spectra in (east, west):
        spectra[:, [3, n - 1]] *= 5.0
        spectra[:4, m:2 * m] = exact
        spectra[1, 3 * m:4 * m] = 0.0
        spectra[2, [0, 4 * m + 1]] = 0.0
    assert segment_ratio(*segment_power(exact, m)[1:], m,
                         include_self)[0, 0] == 2.25
    rf = 1445.0e6 + np.arange(n) * 1.0e3
    frames = (np.arange(10) + 7, np.arange(10) * 0.5, ["LHCP", "RHCP"] * 5)
    ra = np.linspace(5.0, 5.1, 10)
    for thr in _thresholds_at(2.25) + [1.0]:
        params = FirstLevelFilterParams(
            snr_threshold_db=thr, accept_band_low_hz=1445.0e6,
            accept_band_high_hz=1445.0e6 + (n - 3) * 1.0e3,
            excision_low_hz=1445.0e6 + 5.0e3,
            excision_high_hz=1445.0e6 + 6.0e3, bins_per_segment=m,
            segment_include_self=include_self)
        got = first_level_filter_frames(*frames, east, west, rf, params, ra)
        want = per_frame_reference(*frames, east, west, rf, params, ra)
        assert event_bits(got) == event_bits(want), thr
        assert len(got) > 0


def test_one_frame_is_a_block_of_one():
    rng = np.random.default_rng(9)
    east, west = (rng.standard_normal(512) + 1j * rng.standard_normal(512)
                  for _ in range(2))
    rf = 1410.0e6 + np.arange(512) * 100.0
    params = _params(snr_threshold_db=5.0)
    got = first_level_filter_frame(3, 1.5, "RHCP", east, west, rf, params,
                                   5.2)
    assert len(got) > 0
    assert event_bits(got) == event_bits(first_level_filter_frames(
        [3], [1.5], ["RHCP"], [east], [west], rf, params, [5.2]))


@pytest.mark.parametrize("shapes", [(512, 500, 512), (500, 512, 512),
                                    (512, 512, 500)])
def test_block_scorer_names_the_frame_of_mismatched_lengths(shapes):
    n_east, n_west, n_rf = shapes
    with pytest.raises(ValidationError, match=re.escape(
            f"frame 4: element/frequency lengths differ ({n_east}, "
            f"{n_west}, {n_rf})")):
        first_level_filter_frames(
            [4, 5], [0.0, 1.0], ["LHCP"] * 2, np.ones((2, n_east)),
            np.ones((2, n_west)), np.arange(n_rf, dtype=float), _params(),
            [5.0, 5.0])


def test_form_pairs_chained_adjacency():
    # three events in one frame, sorted by bin: two chained candidates
    events = event_table(k=[5, 9, 20],
                         rf=[1410.0e6, 1410.0e6 + 4.0e3, 1410.0e6 + 15.0e3])
    pairs = form_pairs(events)
    assert len(pairs) == 2
    bins = pairs.events.bin_index
    assert bins[pairs.a].tolist() == [5, 9]
    assert bins[pairs.b].tolist() == [9, 20]
    assert pairs.delta_f_hz[0] == pytest.approx(4.0e3)
    assert pairs.log10_delta_f_mhz[0] == pytest.approx(
        math.log10(4.0e3 / 1e6))


def test_form_pairs_block_boundaries():
    # window K=1 -> blocks of 3 frames: {0,1,2} and {3,4,5}
    events = event_table(frame=[2, 3], utc=[2.0, 3.0], k=[5, 6],
                         rf=[1410.0e6, 1410.1e6])
    assert len(form_pairs(events, pairing_window_frames=0)) == 0
    assert len(form_pairs(events, pairing_window_frames=1)) == 0  # 2|3 split
    moved = event_table(frame=[1, 2], utc=[1.0, 2.0], k=[5, 6],
                        rf=[1410.0e6, 1410.1e6])
    pairs = form_pairs(moved, pairing_window_frames=1)
    assert len(pairs) == 1
    assert pairs.delta_t_s[0] == pytest.approx(1.0)


def test_form_pairs_sort_and_pol():
    # same bin: frame index orders the pair; pol matching splits streams
    events = event_table(frame=[1, 0], utc=[1.0, 0.0], k=5,
                         pol=["RHCP", "LHCP"])
    pairs = form_pairs(events, pairing_window_frames=1)
    assert len(pairs) == 1
    assert pairs.events.frame_index[pairs.a[0]] == 0
    assert pairs.delta_f_hz[0] == 0.0
    assert len(form_pairs(events, pairing_window_frames=1,
                          require_pol_match=True)) == 0


def _lexsort_pairs(events, k, require_pol_match):
    # the one-lexsort pairing form_pairs used to run, kept as the reference
    block = events.frame_index // (2 * k + 1)
    pol = events.pol_code
    keys = [events.utc_s, pol, events.frame_index, events.bin_index]
    if require_pol_match:
        keys.append(pol)
    order = np.lexsort(keys + [block])
    first, second = order[:-1], order[1:]
    same = block[first] == block[second]
    if require_pol_match:
        same &= pol[first] == pol[second]
    return first[same], second[same]


def _random_table(rng, n, n_tags):
    # narrow, partly negative ranges so every sort key ties often; utc_s is
    # tied across frames and not monotone in frame
    tags = ("LHCP", "RHCP", "X")[:n_tags]
    frame = rng.integers(-7, 9, n)
    return EventTable(
        frame_index=frame, utc_s=rng.integers(0, 4, n) * 0.25,
        bin_index=rng.integers(-5, 6, n),
        rf_freq_hz=1410.0e6 + rng.integers(0, 4, n) * 1.0e3,
        snr_east_db=np.zeros(n), snr_west_db=np.zeros(n),
        phase_east_rad=np.zeros(n), phase_west_rad=np.zeros(n),
        pol_code=rng.integers(0, n_tags, n), ra_pointing_hr=np.zeros(n),
        tags=tags)


@pytest.mark.parametrize("require_pol_match", [False, True])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_form_pairs_matches_the_lexsort_order(k, require_pol_match):
    rng = np.random.default_rng(100 * k + require_pol_match)
    for trial in range(150):
        events = _random_table(rng, int(rng.integers(0, 60)) if trial
                               else 0, 1 + trial % 3)
        pairs = form_pairs(events, k, require_pol_match)
        a, b = _lexsort_pairs(events, k, require_pol_match)
        assert pairs.a.tolist() == a.tolist()
        assert pairs.b.tolist() == b.tolist()


def _block_ordered_table(rng, n):
    # frames in order, repeated often; a step of 7 frames (a block edge at
    # every K <= 3) lands right on, just after and just before chunk edges,
    # and the rows of a frame come in random bin, tag and utc order
    chunk = pairdetect._CHUNK_ROWS
    step = rng.choice([0, 0, 0, 1, 2], n)
    step[[chunk, 2 * chunk + 1, 3 * chunk - 1, 4 * chunk]] = 7
    frame = np.cumsum(step)
    return EventTable(
        frame_index=frame, utc_s=frame + rng.integers(0, 2, n) * 0.5,
        bin_index=rng.integers(0, 40, n),
        rf_freq_hz=1410.0e6 + rng.integers(0, 40, n) * 1.0e3,
        snr_east_db=np.zeros(n), snr_west_db=np.zeros(n),
        phase_east_rad=np.zeros(n), phase_west_rad=np.zeros(n),
        pol_code=rng.integers(0, 2, n), ra_pointing_hr=np.zeros(n),
        tags=("LHCP", "RHCP"))


def _value_rows(pairs: PairTable) -> dict:
    """Each pair as the values of its two events and its own columns, so
    that pairs of tables whose rows differ in order can be compared."""
    rows = {name: getattr(pairs, name) for name in ("delta_t_s",
                                                    "delta_f_hz")}
    for end in ("a", "b"):
        at = getattr(pairs, end)
        rows.update({f"{name}_{end}": getattr(pairs.events, name)[at]
                     for name in EVENT_COLUMNS})
    return rows


@pytest.mark.parametrize("require_pol_match", [False, True])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_pair_chunks_are_the_pairs_of_the_whole_table(k, require_pol_match):
    # chunk_events of a permuted table: each chunk's pairs, in turn, are
    # the pairs form_pairs gives for the whole table
    rng = np.random.default_rng(10 * k + require_pol_match)
    n = 4 * pairdetect._CHUNK_ROWS + 3000
    events = _block_ordered_table(rng, n).take(rng.permutation(n))
    chunks = list(pairdetect.chunk_events(events, None, k))
    want = _value_rows(form_pairs(events, k, require_pol_match))
    got = [_value_rows(form_pairs(c, k, require_pol_match)) for c in chunks]
    for name, column in want.items():
        assert np.array_equal(np.concatenate([g[name] for g in got]),
                              column), name
    # the chunks are the rows in block order, cut at the first block edge
    # at least _CHUNK_ROWS rows after the last cut
    block = pairdetect._block_key(events.frame_index, k)
    order = np.argsort(block, kind="stable")
    _assert_same_events(EventTable.concat(chunks), events.take(order))
    cuts = np.cumsum([0] + [len(c) for c in chunks]).tolist()
    assert len(cuts) >= 6
    assert cuts == _diff_cuts(block[order], pairdetect._CHUNK_ROWS)


def test_pair_chunks_need_blocks_in_order():
    # frames that step back: _chunk_cuts finds no cuts, so chunk_events
    # first sorts the rows by block, each block's rows in table order
    events = event_table(frame=[0, 1, 2, 0, 1, 2], k=[0, 1, 2, 3, 4, 5],
                         utc=[1000.0] * 3 + [0.0] * 3)

    def frames(lo, hi):
        return events.frame_index[lo:hi]

    def transits(lo, hi):
        return _transit_of(events.utc_s[lo:hi])

    assert pairdetect._chunk_cuts(None, frames, 6, 0) is None
    assert pairdetect._chunk_cuts(None, frames, 6, None) == [0, 6]
    (chunk,) = pairdetect.chunk_events(events, None, 0)
    assert chunk.bin_index.tolist() == [0, 3, 1, 4, 2, 5]
    # transits that step back (utc 1000 s, then 0 s): sorted by transit
    # first, and cut where it changes
    assert pairdetect._chunk_cuts(transits, frames, 6, None) is None
    for k in (None, 0, 1):
        assert [c.bin_index.tolist() for c in pairdetect.chunk_events(
            events, _transit_of, k)] == [[3, 4, 5], [0, 1, 2]]
    # neither transits nor blocks: the table as it is
    (whole,) = pairdetect.chunk_events(events)
    assert whole.bin_index.tolist() == list(range(6))
    empty = event_table().take([])
    for k in (None, 0):
        assert pairdetect._chunk_cuts(transits, frames, 0, k) == [0, 0]
        assert list(map(len, pairdetect.chunk_events(
            empty, _transit_of, k))) == [0]


def _diff_cuts(key, min_rows):
    """What _cuts gives, from one np.diff over the whole key."""
    step = np.diff(key)
    if (step < 0).any():
        return None
    cuts = [0]
    for edge in (np.flatnonzero(step) + 1).tolist():
        if edge >= cuts[-1] + min_rows:
            cuts.append(edge)
    return cuts + [key.size]


def _scan(key, min_rows=1):
    """_cuts over the array key, checking that it asks for one chunk of
    rows at a time."""
    def key_of(lo, hi):
        assert 0 <= lo < hi <= min(lo + pairdetect._CHUNK_ROWS, key.size)
        return key[lo:hi]
    return pairdetect._cuts(key_of, key.size, min_rows)


@pytest.mark.parametrize("min_rows", [1, pairdetect._CHUNK_ROWS])
def test_cuts_match_a_whole_array_diff(min_rows):
    chunk = pairdetect._CHUNK_ROWS
    rng = np.random.default_rng(min_rows)
    for n in (1, 2, chunk - 1, chunk, chunk + 1, 3 * chunk + 17):
        # rare and frequent changes, by steps of 1 to 3
        for p in (0.001, 0.3):
            key = np.cumsum((rng.random(n) < p) * rng.integers(1, 4, n))
            assert _scan(key, min_rows) == _diff_cuts(key, min_rows)
    # one change just before, at and just after the first chunk edge
    for row in (chunk - 1, chunk, chunk + 1):
        key = (np.arange(2 * chunk) >= row).astype(np.int64)
        cuts = _scan(key, min_rows)
        assert cuts == _diff_cuts(key, min_rows)
        assert cuts == ([0, 2 * chunk] if row < min_rows
                        else [0, row, 2 * chunk])


def test_cuts_of_no_rows_and_of_a_key_that_decreases():
    chunk = pairdetect._CHUNK_ROWS
    assert _scan(np.arange(0)) == [0, 0]
    for row in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 5):
        key = np.arange(3 * chunk)
        key[row:] -= 2
        for min_rows in (1, chunk):
            assert _scan(key, min_rows) is None
            assert _diff_cuts(key, min_rows) is None


@pytest.mark.parametrize("tags, pol_code", [
    (("RHCP", "LHCP"), [0, 1]),        # not sorted
    (("LHCP", "LHCP"), [0, 1]),        # not unique
    (("LHCP", "RHCP"), [-1, 0]),       # a code below the tags
    (("LHCP", "RHCP"), [0, 2]),        # a code past the tags
])
def test_an_event_table_enforces_its_tag_contract(tags, pol_code):
    columns = {n: np.zeros(2) for n in EVENT_COLUMNS if n != "pol_code"}
    with pytest.raises(ValidationError):
        EventTable(tags=tags, pol_code=pol_code, **columns)


@pytest.mark.parametrize("stream_tags", [("LHCP",), ("LHCP", "RHCP", "X")])
def test_a_part_with_other_tags_than_its_stream_is_not_written(tmp_path,
                                                               stream_tags):
    part = event_table(k=[0, 1], pol=["LHCP", "RHCP"])
    stream = EventStream(stream_tags, len(part), iter([part]))
    with pytest.raises(ValueError, match="tags"):
        write_level1_archive(tmp_path / "level1.csv", stream)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("fault", ["other tags", "fewer rows",
                                   "writer thread"])
def test_a_write_that_raises_leaves_the_old_archive(tmp_path, monkeypatch,
                                                    fault):
    # the first part is written before the fault shows, on the calling
    # thread while a chunk is in flight or on the writer thread: neither
    # file is replaced until every row is in, and the writer has ended
    path, sidecar = tmp_path / "level1.csv", tmp_path / "level1.csv.cols"
    write_level1_archive(path, event_table(k=[0, 3]))
    old = (path.read_bytes(), sidecar.read_bytes())
    first = event_table(k=[0, 1], pol=["LHCP", "RHCP"])
    error = ValueError
    if fault == "other tags":
        stream = EventStream(first.tags, 3,
                             iter([first, event_table(k=5, pol="X")]))
    elif fault == "fewer rows":
        stream = EventStream(first.tags, 5, iter([first, first]))
    else:
        compact, calls = pairdetect._compact, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("no space left on device")
            return compact(*args)

        monkeypatch.setattr(pairdetect, "_compact", fail_second)
        stream = EventStream(first.tags, 4, iter([first, first]))
        error = OSError
    threads = threading.active_count()
    with pytest.raises(error):
        write_level1_archive(path, stream)
    assert threading.active_count() == threads
    assert (path.read_bytes(), sidecar.read_bytes()) == old
    assert sorted(os.listdir(tmp_path)) == ["level1.csv", "level1.csv.cols"]


def test_form_pairs_log10_matches_math_log10_across_chunks():
    # more than two chunks of pairs, some of them of the same bin (zero
    # delta_f, log10 -inf), filled bit for bit as math.log10 fills them
    n = 2 * pairdetect._CHUNK_ROWS + 1000
    rng = np.random.default_rng(7)
    k = np.sort(rng.integers(0, n // 2, n))
    pairs = form_pairs(event_table(
        k=k, rf=1.4e9 + k * 3.7 + rng.integers(0, 3, n) * 0.1,
        pol=rng.choice(["LHCP", "RHCP"], n)))
    assert len(pairs) == n - 1
    mhz = np.abs(pairs.delta_f_hz) / 1.0e6
    assert (mhz == 0.0).any()
    want = np.array([math.log10(v) if v else -math.inf for v in mhz.tolist()])
    assert np.array_equal(pairs.log10_delta_f_mhz.view(np.int64),
                          want.view(np.int64))
    # the rows that take() keeps compute their own, zero delta_f included
    idx = np.flatnonzero(rng.random(len(pairs)) < 0.3)
    assert (mhz[idx] == 0.0).any()
    assert np.array_equal(pairs.take(idx).log10_delta_f_mhz.view(np.int64),
                          want[idx].view(np.int64))


def _pairs_with_delta_f(delta_f_hz) -> PairTable:
    n = len(delta_f_hz)
    zeros = np.zeros(n, dtype=np.int64)
    return PairTable(event_table(), zeros, zeros, np.zeros(n),
                     np.asarray(delta_f_hz, dtype=float), np.zeros(n))


@pytest.mark.parametrize("low, high", [
    (-5.1, 0.3),              # the default window
    (-3.0, -3.0),             # one point: 1 kHz
    (-400.0, 400.0),          # edges that are not normal floats
])
def test_delta_f_window_is_the_math_log10_verdict(low, high):
    # |delta_f| walked 16 ulp either way from each edge, in Hz and in MHz
    # terms, with both signs, and three extreme magnitudes
    centers = []
    for edge in (low, high):
        with np.errstate(over="ignore"):
            centers += [1e6 * np.float64(10.0) ** edge,
                        np.float64(10.0) ** (edge + 6.0)]
    walked = []
    for center in filter(lambda c: 0.0 < c < math.inf, centers):
        for direction in (math.inf, -math.inf):
            v = center
            for _ in range(17):
                walked.append(v)
                v = np.nextafter(v, direction)
    df = np.array(walked + [0.0, 1e-300, 1e300])
    df = np.concatenate([df, -df])
    params = PhaseMetricParams(log_delta_f_low=low, log_delta_f_high=high)
    want = [v != 0.0 and low <= math.log10(abs(v) / 1e6) <= high
            for v in df.tolist()]
    got = delta_f_window(_pairs_with_delta_f(df), params)
    assert got.tolist() == want
    if low == -5.1:
        assert 0 < sum(want) < len(want)


def test_form_pairs_rejects_a_sort_key_beyond_int64():
    top = 2 ** 32 - 1
    frames, bins = [top, 0, top], [2 ** 31 - 2, 5, 0]
    # spans 2**32 frames x (2**31 - 1) bins: the key's top row still fits
    pairs = form_pairs(event_table(frame=frames, k=bins))
    assert (pairs.a.tolist(), pairs.b.tolist()) == ([2], [0])
    for frame, k in ((top, 2 ** 31 - 1),               # spans reach 2**63
                     (0, -(2 ** 63)), (0, 2 ** 63 - 1)):
        with pytest.raises(ValidationError, match="int64"):
            form_pairs(event_table(frame=frames + [frame], k=bins + [k]))


def test_delta_f_filter_window():
    # one pair per frame, so pair i has frequency offset offsets[i]
    offsets = [0.0, 7.8, 8.0, 1.9e6, 2.1e6, -8.0e3]
    pairs = form_pairs(event_table(
        frame=np.repeat(np.arange(len(offsets)), 2), k=[0, 1] * len(offsets),
        rf=[rf for df_hz in offsets for rf in (1410.0e6, 1410.0e6 + df_hz)]))
    assert pairs.delta_f_hz.tolist() == pytest.approx(offsets)
    assert delta_f_window(pairs, PhaseMetricParams()).tolist() == [
        False,            # co-channel never passes
        False,            # below 10^-5.1 MHz
        True, True,
        False,            # above 10^0.3 MHz
        True,             # magnitude in the window
    ]


def test_archive_roundtrip(tmp_path):
    events = event_table(frame=[3, 4], utc=[123.456789, 124.0], k=[7, 9],
                         rf=[1412.3456e6, 1412.4e6], pol=["LHCP", "RHCP"],
                         ra=[4.25, 5.0])
    path = tmp_path / "level1.csv"
    write_level1_archive(path, events)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(ARCHIVE_COLUMNS)
    # values come back at archive precision: utc to ms, rf to 0.1 Hz
    assert event_columns(archive_events(path)) == event_columns(
        event_table(frame=[3, 4], utc=[123.457, 124.0], k=[7, 9],
                    rf=[1412345600.0, 1412.4e6], pol=["LHCP", "RHCP"],
                    ra=[4.25, 5.0]))


def test_archive_rejects_garbage(tmp_path):
    path = tmp_path / "level1.csv"
    write_level1_archive(path, event_table(k=[0, 3]))
    header, good, good2 = path.read_text().splitlines()
    # each bad row sits on line 4, after the header, a good row and a blank
    # line (blank lines are skipped but still counted)
    bad_rows = [
        "1,2,3",                                      # wrong column count
        good + ",extra",                              # one column too many
        "#" + good,                                   # comment-like row
        good.replace(",0,0,", ",3.0,0,", 1),         # float frame_index
        good.replace(",0,0,", ",99999999999999999999,0,", 1),  # over int64
        good.replace(",0,0,", ",1_000,0,", 1),       # a digit separator
        good.replace(",0,0,", ",\u0661,0,", 1),     # a non-ASCII digit
        "2" + good[1:],                               # unknown schema_version
    ]
    for bad in bad_rows:
        path.write_text("\n".join([header, good, "", bad, good2]) + "\n")
        with pytest.raises(ArchiveFormatError) as err:
            archive_events(path)
        assert err.value.line_no == 4, bad
    # a quoted field may span two lines, and later lines keep their numbers
    split = good.replace(",LHCP,", ',"LH\nCP",')
    assert split != good
    path.write_text("\n".join([header, split, good2[:-2]]) + "\n")
    with pytest.raises(ArchiveFormatError) as err:
        archive_events(path)
    assert err.value.line_no == 4
    # the sidecar write_level1_archive left is stale after each rewrite
    assert (tmp_path / "level1.csv.cols").exists()
    path.write_text("\n".join([header, good, "", good2]) + "\n")
    assert len(archive_events(path)) == 2
    path.write_text("not,a,header\n")
    with pytest.raises(ArchiveFormatError):
        archive_events(path)


def _write_level1(path):
    f = np.arange(6)
    write_level1_archive(path, event_table(
        frame=f, utc=0.25 * f, k=f, rf=1410.0e6 + 4.0e3 * f,
        pol=["RHCP", "LHCP"] * 3, ra=4.0 + 0.25 * f))
    return ARCHIVE_COLUMNS


def _write_candidates(path):
    f = np.arange(6)
    pairs = form_pairs(event_table(frame=f // 2, utc=0.5 * f, k=f,
                                   rf=1410.0e6 + 4.0e3 * f,
                                   pol=["RHCP", "LHCP"] * 3))
    pairs.phase_metric_rad[:] = [0.01, -0.02, 0.03]
    pipeline.write_candidates_csv(path, pairs)
    return pipeline.CANDIDATE_COLUMNS


def _write_stats(path):
    skystats.write_stats_csv(path, skystats.analyze(
        np.array([3.5, 3.6, 4.5]), np.array([3.0, 4.0, 5.0])).stats)
    return skystats.STATS_COLUMNS


def _edit_line_2(path, columns, name, edit):
    """Rewrite the `name` field of path's line 2 as edit(field)."""
    lines = path.read_text().splitlines()
    at = list(columns).index(name)
    fields = lines[1].split(",")
    fields[at] = edit(fields[at])
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _assert_same_columns(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tolist() == want[name].tolist(), name


@pytest.mark.parametrize("write, number, text", [
    (_write_level1, "frame_index", "polarization_tag"),
    (_write_candidates, "frame_a", "polarization_a"),
    (_write_stats, "cohens_d", None)], ids=["level1", "candidates", "stats"])
def test_read_columns_reads_quotes_and_long_text_in_one_pass(
        tmp_path, monkeypatch, write, number, text):
    path = tmp_path / "table.csv"
    columns = write(path)
    monkeypatch.setattr(pairdetect, "_raise_at_bad_line", None)
    plain = pairdetect.read_columns(path, columns)
    assert list(plain) == list(columns)
    assert {c.dtype for c in plain.values()} <= {
        np.dtype(np.int64), np.dtype(np.float64), np.dtype(object)}
    assert len(plain[number]) >= 2
    header = path.read_text().splitlines()[0]
    # a quoted number and a quoted str read as the plain ones
    _edit_line_2(path, columns, number, lambda v: f'"{v}"')
    _assert_same_columns(pairdetect.read_columns(path, columns), plain)
    if text:
        write(path)
        _edit_line_2(path, columns, text, lambda v: f'"{v}"')
        _assert_same_columns(pairdetect.read_columns(path, columns), plain)
        # text of any length reads whole
        write(path)
        _edit_line_2(path, columns, text, lambda v: "y" * 40)
        got = pairdetect.read_columns(path, columns)
        assert got[text][0] == "y" * 40
        got[text][0] = plain[text][0]
        _assert_same_columns(got, plain)
    # a header alone gives zero-length columns of the same types
    path.write_text(header + "\n")
    empty = pairdetect.read_columns(path, columns)
    assert ({name: (c.dtype, c.size) for name, c in empty.items()}
            == {name: (c.dtype, 0) for name, c in plain.items()})


def _write_scan(path):
    pairdetect.write_csv(path, calib.DRIFT_SCAN_COLUMNS,
                         [1.7e9 + np.arange(4.0), [1.0, 1.5, 1.25, 1.0]])
    return calib.DRIFT_SCAN_COLUMNS


@pytest.mark.parametrize("write", [
    _write_level1, _write_candidates, _write_stats, _write_scan],
    ids=["level1", "candidates", "stats", "scan"])
def test_read_columns_drops_a_byte_order_mark(tmp_path, write):
    path = tmp_path / "table.csv"
    columns = write(path)
    plain = pairdetect.read_columns(path, columns)
    text = path.read_bytes()
    path.write_bytes(b"\xef\xbb\xbf" + text)
    _assert_same_columns(pairdetect.read_columns(path, columns), plain)
    # a bad line after the mark is named with the file, at its number
    header = text.split(b"\n")[0]
    path.write_bytes(b"\xef\xbb\xbf" + header + b"\n" + header + b"\n")
    with pytest.raises(ArchiveFormatError) as err:
        pairdetect.read_columns(path, columns)
    assert err.value.line_no == 2
    assert str(err.value).startswith(f"{path}: line 2: ")


def test_archive_keeps_a_tag_as_long_as_the_str_field(tmp_path):
    # text columns have no fixed width: 16 characters and more read whole
    tags = ["LHCP", "x" * 16, "y" * 40]
    path = tmp_path / "level1.csv"
    write_level1_archive(path, event_table(k=[0, 1, 2], pol=tags))
    events = archive_events(path)
    assert np.asarray(events.tags)[events.pol_code].tolist() == tags


def test_a_text_archive_codes_a_thousand_tags(tmp_path):
    # without its sidecar the archive's tags are read as text: they come
    # back sorted, and each row's code is its tag's rank
    rng = np.random.default_rng(4)
    pol = [f"T{i}" for i in rng.integers(0, 1000, 3000)]
    path = tmp_path / "level1.csv"
    write_level1_archive(path, event_table(k=np.arange(3000), pol=pol))
    events = _read_through_csv(path)
    assert events.tags == tuple(sorted(set(pol)))
    assert len(events.tags) > 900
    assert np.asarray(events.tags)[events.pol_code].tolist() == pol
    assert events.pol_code.tolist() == [events.tags.index(p) for p in pol]


def _assert_same_events(got, want):
    assert got.tags == want.tags
    for name in EVENT_COLUMNS:
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), name


def _read_through_csv(path):
    """read_level1_archive's CSV path: read_columns plus tag coding."""
    os.remove(f"{path}.cols")
    return archive_events(path)


def _read_from_sidecar(path, monkeypatch):
    """read_level1_archive with read_columns out of reach."""
    with monkeypatch.context() as m:
        m.setattr(pairdetect, "read_columns", None)
        return archive_events(path)


def _tiny_survey_events():
    kv = dict(line.split(" = ") for line in SURVEY_CFG.splitlines())
    return pipeline.simulate_events(pipeline.ExperimentManifest.from_kv(kv))


_TIE = 0.0625          # %.3f and %.1f of a tie, and a value one ulp away
_SIDECAR_CASES = {
    "signed-zeros": lambda: event_table(
        utc=[-0.0, 0.0, -1e-4], rf=-0.0, phase_e=-0.0,
        phase_w=[-0.0, -1e-9, -1e-7], ra=[-0.0, 0.0, -0.0], snr=-0.0),
    "ties": lambda: event_table(
        utc=[_TIE, math.nextafter(_TIE, 1.0), math.nextafter(_TIE, 0.0),
             2.5e-3], rf=[0.25, math.nextafter(0.25, 1.0), 1412.35e6, 0.05],
        phase_e=[0.5, 999999.5, 9.999995e-05, 1.2345675]),
    "exponents": lambda: event_table(
        phase_e=[3e-7, -1.2345e-5, 0.1], phase_w=1e-4, ra=[1e6, 5.0, 1e-5],
        snr=[123456789.0, 1e6, math.nextafter(1e-4, 0.0)]),
    "nan-inf": lambda: event_table(
        utc=[math.nan, math.inf, 1.0], phase_e=[math.nan, -math.inf, 0.2],
        phase_w=math.inf, snr=[-math.inf, math.nan, 9.0], ra=math.nan),
    "unused-tag": lambda: EventTable(tags=("LHCP", "RHCP", "unused"),
                                     pol_code=[0, 1, 0, 1],
                                     **{n: np.arange(4) for n in EVENT_COLUMNS
                                        if n != "pol_code"}),
    "long-tags": lambda: event_table(k=[0, 1, 2],
                                     pol=["LHCP", "x" * 16, "y" * 40]),
    "odd-tags": lambda: event_table(k=[0, 1, 2], pol=[" X", "x'y", "#c"]),
    "empty": lambda: event_table().take(np.arange(0)),
    "tiny-survey": _tiny_survey_events,
}


@pytest.mark.parametrize("case", list(_SIDECAR_CASES))
def test_sidecar_and_csv_paths_give_the_same_events(tmp_path, monkeypatch,
                                                    case):
    path = tmp_path / "level1.csv"
    events = _SIDECAR_CASES[case]()
    write_level1_archive(path, events)
    if case in ("unused-tag", "empty"):
        # a declared tag no event uses: no sidecar, and the text gives the
        # table's rows with the tags in use
        assert not (tmp_path / "level1.csv.cols").exists()
        pol = np.asarray(events.tags)[events.pol_code].tolist()
        used = sorted(set(pol))
        _assert_same_events(archive_events(path), EventTable(
            tags=used, pol_code=[used.index(p) for p in pol],
            **{n: getattr(events, n) for n in EVENT_COLUMNS
               if n != "pol_code"}))
        return
    assert (tmp_path / "level1.csv.cols").exists()
    _assert_same_events(_read_from_sidecar(path, monkeypatch), _read_through_csv(path))


def test_a_bad_sidecar_is_never_served(tmp_path):
    path, other = tmp_path / "level1.csv", tmp_path / "other.csv"
    sidecar = tmp_path / "level1.csv.cols"
    write_level1_archive(other, event_table(k=[5, 6], ra=[1.0, 2.0]))
    write_level1_archive(path, event_table(k=[0, 3], ra=[3.0, 4.0]))
    text, cols = path.read_text(), sidecar.read_bytes()
    want = archive_events(path)
    # nothing is written when no sidecar exists: no read-through cache
    sidecar.unlink()
    listing = sorted(os.listdir(tmp_path))
    _assert_same_events(archive_events(path), want)
    assert sorted(os.listdir(tmp_path)) == listing
    rng = np.random.default_rng(3)
    # (archive text, sidecar bytes)
    bad = {
        "edited": (text.replace(",3,", ",4,"), cols),
        "foreign": (text, (tmp_path / "other.csv.cols").read_bytes()),
        "truncated": (text, cols[:-1]),
        "header only": (text, cols[:pairdetect._SIDECAR.size]),
        "cut header": (text, cols[:20]),
        "random": (text, rng.bytes(len(cols))),
        "random, same magic": (text, cols[:8] + rng.bytes(len(cols) - 8)),
    }
    for name, (archive, content) in bad.items():
        path.write_text(archive)
        sidecar.write_bytes(content)
        got = archive_events(path)
        _assert_same_events(got, _read_through_csv(path))
        assert got.bin_index.tolist() == ([0, 4] if name == "edited"
                                          else [0, 3]), name


def _transit_of(utc):
    """The transit of a utc_s: one per 1,000 s."""
    return (np.asarray(utc) // 1000.0).astype(np.int64)


def _session(lengths, seed=8):
    """Two tags over one transit per length, each transit's rows in frame
    order with a few events a frame, whose frames step by 0 to 3."""
    rng = np.random.default_rng(seed)
    parts, first = [], 0
    for t, n in enumerate(lengths):
        frame = first + np.cumsum(rng.choice([0, 0, 0, 1, 3], n))
        first = int(frame[-1]) + 5
        parts.append(event_table(
            frame=frame, utc=1000.0 * t + 0.01 * (frame - frame[:1]),
            k=rng.integers(0, 4096, n),
            rf=1410.0e6 + rng.integers(0, 4096, n) * 100.0,
            pol=rng.choice(["LHCP", "RHCP"], n),
            phase_e=rng.uniform(-3.0, 3.0, n),
            phase_w=rng.uniform(-3.0, 3.0, n), ra=rng.uniform(5.0, 5.4, n),
            snr=rng.uniform(9.0, 20.0, n)))
    return EventTable.concat(parts)


def _archive_shapes(path, events):
    """Write `events` to path in each archive shape in turn, yielding the
    shape's name once it is written: rows in order with a sidecar,
    transits that step back and blocks that step back with a sidecar, and
    every row shuffled with no sidecar."""
    chunk = pairdetect._CHUNK_ROWS
    transit = _transit_of(events.utc_s)
    rows = np.arange(len(events))
    first = np.flatnonzero(transit == transit[0])
    # transit 0's two halves swapped: its frames step back once
    halves = rows.copy()
    halves[first] = np.roll(first, first.size // 2)
    assert first.size > 2 * chunk
    shapes = {
        "in order": rows,
        "transits step back": np.concatenate([rows[transit == transit[-1]],
                                              rows[transit != transit[-1]]]),
        "blocks step back": halves,
        "shuffled text": np.random.default_rng(4).permutation(rows),
    }
    for shape, order in shapes.items():
        write_level1_archive(path, events.take(order))
        if shape == "shuffled text":
            os.remove(f"{path}.cols")
        yield shape


@pytest.mark.parametrize("k", [0, 1, 3])
def test_the_reader_yields_each_transit_in_pair_chunks(tmp_path,
                                                       monkeypatch, k):
    chunk = pairdetect._CHUNK_ROWS
    # a transit of several chunks, one shorter than one chunk, another
    path = tmp_path / "level1.csv"
    events = _session([3 * chunk + 500, 700, chunk + 9])
    for shape in _archive_shapes(path, events):
        sidecar = shape != "shuffled text"
        assert os.path.exists(f"{path}.cols") == sidecar
        with monkeypatch.context() as m:
            if sidecar:
                m.setattr(pairdetect, "read_columns", None)
            chunks = pairdetect.consume_level1_archive(path, list,
                                                       _transit_of, k)
        # the chunks are the archive's rows in (transit, block) order, each
        # block's rows in archive order, every column bit for bit
        rows = archive_events(path)
        transit = _transit_of(rows.utc_s)
        block = pairdetect._block_key(rows.frame_index, k)
        order = np.lexsort((block, transit))
        _assert_same_events(EventTable.concat(chunks), rows.take(order))
        transit, block = transit[order], block[order]
        # each chunk lies in one transit; a transit's chunks are cut at the
        # first block edge at least _CHUNK_ROWS rows after the last cut
        cuts = np.cumsum([0] + [len(c) for c in chunks])
        assert all(transit[lo] == transit[hi - 1]
                   for lo, hi in zip(cuts, cuts[1:]))
        edges = [0] + (np.flatnonzero(np.diff(transit)) + 1).tolist()
        want = []
        for lo, hi in zip(edges, edges[1:] + [len(rows)]):
            want += [lo + c for c in _diff_cuts(block[lo:hi], chunk)[:-1]]
        assert cuts.tolist() == want + [len(rows)], shape
        assert [np.sum(transit[cuts[:-1]] == t) for t in (0, 1)] == [4, 1]
        if sidecar:
            # the text alone gives the same chunks
            os.remove(f"{path}.cols")
            text = pairdetect.consume_level1_archive(path, list,
                                                     _transit_of, k)
            assert len(text) == len(chunks)
            for got, table in zip(chunks, text):
                _assert_same_events(got, table)
    # an archive without rows, with a sidecar, is one empty table
    empty = EventTable(tags=(), **{n: [] for n in EVENT_COLUMNS})
    write_level1_archive(path, empty)
    assert (tmp_path / "level1.csv.cols").exists()
    with monkeypatch.context() as m:
        m.setattr(pairdetect, "read_columns", None)
        (only,) = pairdetect.consume_level1_archive(path, list,
                                                    _transit_of, k)
    _assert_same_events(only, empty)


@pytest.mark.parametrize("tag", ['"q"', "a,b", "", "tab\tx", "r\u00e9"])
def test_a_bad_tag_is_rejected_before_any_file_is_written(tmp_path, tag):
    # a tag the CSV path might not read back as written
    path, sidecar = tmp_path / "level1.csv", tmp_path / "level1.csv.cols"
    write_level1_archive(path, event_table(k=[0, 3]))
    text, cols = path.read_bytes(), sidecar.read_bytes()
    with pytest.raises(ValidationError, match="polarization_tag"):
        write_level1_archive(path, event_table(k=[0, 3], pol=["LHCP", tag]))
    assert (path.read_bytes(), sidecar.read_bytes()) == (text, cols)
    assert sorted(os.listdir(tmp_path)) == ["level1.csv", "level1.csv.cols"]


def test_pair_ra_tracks_later_event():
    pairs = form_pairs(event_table(k=[0, 2], rf=[1410.0e6, 1410.1e6],
                                   ra=[4.0, 4.3]))
    assert isinstance(pairs, PairTable)
    assert pairs.ra_pointing_hr.tolist() == [4.3]


# values % rounds by ties or writes with an exponent, and their neighbours
_HARD_FLOATS = [0.0625, 2.5, 999999.5, 9.999995e-05, 0.0, -0.0, math.nan,
                math.inf, -math.inf, 1e-4, 1e6, -1e-4, -1e6, 0.5, -0.5,
                1.2345e-7, 123456789.0]
_HARD_FLOATS += [math.nextafter(v, d) for v in (1e-4, 1e6, 0.0625, 2.5)
                 for d in (0.0, math.inf)]


def _grid_edges(fmt, n):
    """The first and last row of each grid write_rows lays n rows out in."""
    cuts = pairdetect._grid_cuts(fmt, n)
    return [i for lo, hi in zip(cuts, cuts[1:]) for i in (lo, hi - 1)]


def _adversarial_columns(fmt, n, rng):
    """One column per conversion in fmt, hard values at grid edges."""
    edges = _grid_edges(fmt, n)
    columns = []
    for conv in re.findall(r"%(\.\d+[fg]|[ds])", fmt):
        if conv == "s":
            tags = np.array(["LHCP", "RHCP", "X", "pol-long-tag", "",
                             "r\u00e9"], dtype=object)
            columns.append(tags[rng.integers(0, tags.size, n)])
            continue
        if conv == "d":
            col = rng.integers(-10**12, 10**12, n)
            col[rng.integers(0, n, n // 8)] = -1
            hard = [0, -(2**63), 2**63 - 1, -7]
        else:
            col = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 7, n)
            col[::5] = np.round(col[::5], 3)
            hard = _HARD_FLOATS
        col[rng.integers(0, n, n // 16)] = rng.choice(hard, n // 16)
        col[edges] = math.nan if conv != "d" else -(2**63)
        columns.append(col)
    return columns


@pytest.mark.parametrize("fmt", [pairdetect._ARCHIVE_ROW] + [
    pairdetect._row_format(columns) for columns in (
        pipeline.CANDIDATE_COLUMNS, phasefilter.DIAGNOSTIC_COLUMNS,
        pipeline.TAU_SCAN_COLUMNS, skystats.STATS_COLUMNS,
        pipeline.NULL_MC_COLUMNS)],
    ids=["archive", "candidates", "diagnostics", "tau_scan", "stats",
         "null_mc"])
def test_write_rows_writes_percent_text(fmt):
    # every format the package writes (the archive's row and the row of
    # every declared CSV), on ties, signed zeros, nan, inf,
    # values either side of the %g exponent limits, negative ints and tags
    # of several lengths; rows the numpy kernel leaves to % sit on the
    # first and last row of every grid
    full = _adversarial_columns(fmt, 65537, np.random.default_rng(10))
    rows = [fmt % row for row in zip(*[c.tolist() for c in full])]
    for n in (0, 1, 65535, 65536, 65537):
        fh = io.StringIO()
        write_rows(fh, fmt, [c[:n] for c in full])
        assert fh.getvalue() == "".join(rows[:n]), n


@pytest.mark.parametrize("fmt,column", [
    ("%s", np.array([1, None, b"ab", -7, "x"], dtype=object)),
    ("%d", np.array([1.5, -2.0, 1e20, -0.0, 7.0])),
    ("%d", np.array([0, 1, 2**63, 2**64 - 1, 5], dtype=np.uint64)),
    ("%.3f", np.array([0.0005, 2, -1.5, 10**20, 0.125], dtype=object))],
    ids=["s-not-str", "d-float64", "d-uint64", "f-object"])
def test_write_rows_leaves_columns_it_cannot_render_to_percent(fmt, column):
    # columns the numpy kernel has no renderer for go to `fmt % row` whole,
    # beside a column it renders
    fmt = f"%d,{fmt}\n"
    columns = [np.arange(len(column)), column]
    fh = io.StringIO()
    write_rows(fh, fmt, columns)
    assert fh.getvalue() == "".join(
        fmt % row for row in zip(*[c.tolist() for c in columns]))


class _Shout(str):
    def __str__(self):
        return self.upper()


@pytest.mark.parametrize("tag, n_flagged", [(np.str_, 0), (_Shout, 70000)],
                         ids=["numpy-str", "str-subclass"])
def test_write_rows_renders_numpy_str_in_numpy(tag, n_flagged):
    # tags taken from a numpy array are numpy.str_, whose text the kernel
    # writes with no row left to %; another str subclass's __str__ may
    # differ from its text, so its column goes to % whole
    column = np.array([tag(t) for t in ("LHCP", "RHCP", "pol-long-tag")],
                      dtype=object)[np.random.default_rng(3).integers(
                          0, 3, 70000)]
    fmt, columns = "%d,%s\n", [np.arange(column.size), column]
    assert sum(len(flagged) for _, flagged, _ in
               pairdetect._chunks(fmt, columns)) == n_flagged
    fh = io.StringIO()
    write_rows(fh, fmt, columns)
    assert fh.getvalue() == "".join(
        fmt % row for row in zip(*[c.tolist() for c in columns]))


@pytest.mark.parametrize("fmt", [pairdetect._ARCHIVE_ROW, pairdetect._row_format(
    pipeline.CANDIDATE_COLUMNS)], ids=["archive", "candidates"])
def test_write_rows_sizes_its_grids_by_bytes(fmt):
    # a grid holds ~_GRID_BYTES of text at any row width, rows shorter
    # than two grids are one grid, and more are cut into near equal grids
    # of at least a grid's rows
    rows = pairdetect._grid_rows(fmt)
    assert pairdetect._grid_cuts(fmt, 0) == [0]
    assert pairdetect._grid_cuts(fmt, 1) == [0, 1]
    assert pairdetect._grid_cuts(fmt, 2 * rows - 1) == [0, 2 * rows - 1]
    for n in (2 * rows, 5 * rows + 7):
        sizes = np.diff(pairdetect._grid_cuts(fmt, n))
        assert sizes.size == n // rows and sizes.sum() == n
        assert sizes.min() >= rows and sizes.max() - sizes.min() <= 1
    # laid out, the grids of a sampled transit's archive rows, or of its
    # pairs as candidates, hold rows within 10 % of the estimated width
    kv = dict(line.split(" = ") for line in SURVEY_CFG.splitlines())
    kv["run.window_hi_hr"] = "5.8"
    events = EventTable.concat(pipeline.simulate_events(
        pipeline.ExperimentManifest.from_kv(kv)))
    if fmt == pairdetect._ARCHIVE_ROW:
        columns = [pairdetect._Coded(events.pol_code, events.tags)
                   if name == "polarization_tag" else getattr(events, name)
                   for name in list(ARCHIVE_COLUMNS)[1:]]
    else:
        columns = pipeline._candidate_columns(form_pairs(events))
    assert len(columns[0]) >= 3 * rows
    for grid, _, _ in pairdetect._chunks(fmt, columns):
        assert rows <= len(grid) < 2 * rows
        assert 0.9 < grid.shape[1] * rows / pairdetect._GRID_BYTES < 1.1


def test_the_archive_renders_tags_from_their_codes(tmp_path, monkeypatch):
    # two tags gathered by pol_code, with no per-row tag array made; rows
    # that another column leaves to % (hard floats) are written with the
    # tag's str, so every row is `%` of its values
    part = _hard_part(3 * pairdetect._CHUNK_ROWS, np.random.default_rng(4))
    names = list(ARCHIVE_COLUMNS)[1:]
    rows = [pairdetect._ARCHIVE_ROW % row for row in zip(
        *[_archive_values(part, name) for name in names])]
    columns = [pairdetect._Coded(part.pol_code, part.tags)
               if name == "polarization_tag" else getattr(part, name)
               for name in names]
    flagged = [row for _, rows_left, _ in pairdetect._chunks(
        pairdetect._ARCHIVE_ROW, columns) for row in rows_left]
    tag = names.index("polarization_tag")
    assert {row[tag] for row in flagged} == {"LHCP", "RHCP"}
    assert {type(row[tag]) for row in flagged} == {str}
    # EventTable has no per-row tag column; the writer must not ask for one
    monkeypatch.setattr(EventTable, "polarization_tag", property(
        lambda self: pytest.fail("a per-row tag array was made")),
        raising=False)
    path = tmp_path / "level1.csv"
    write_level1_archive(path, part)
    assert path.read_text() == ",".join(ARCHIVE_COLUMNS) + "\n" + "".join(
        rows)


def _archive_values(events, name):
    """The values of archive column `name` of events, as a list: the tags
    by pol_code for polarization_tag."""
    if name == "polarization_tag":
        return np.asarray(events.tags)[events.pol_code].tolist()
    return getattr(events, name).tolist()


def _hard_part(n, rng):
    """n events whose float columns hold _HARD_FLOATS on the first and last
    row of every grid and on random rows, both tags in use."""
    edges = _grid_edges(pairdetect._ARCHIVE_ROW, n)
    columns = {}
    for name, dtype in pairdetect.EVENT_DTYPES.items():
        if dtype is np.int64:
            columns[name] = rng.integers(-10**12, 10**12, n)
            continue
        col = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 7, n)
        col[rng.integers(0, n, n // 16)] = rng.choice(_HARD_FLOATS, n // 16)
        col[edges] = rng.choice(_HARD_FLOATS, len(edges))
        columns[name] = col
    columns["pol_code"] = rng.integers(0, 2, n)
    return EventTable(tags=("LHCP", "RHCP"), **columns)


def test_the_archive_writer_writes_percent_text(tmp_path, monkeypatch):
    # parts of 0, 1, one grid and a row, and two grids, written by the
    # writer thread: the text is the header and `%` of every row, and each
    # sidecar float column is float() of its text field, bit for bit
    chunk = pairdetect._CHUNK_ROWS
    rng = np.random.default_rng(12)
    parts = [_hard_part(n, rng) for n in (0, 1, chunk + 1, 3 * chunk)]
    names = list(ARCHIVE_COLUMNS)[1:]
    rows = [pairdetect._ARCHIVE_ROW % row for part in parts for row in zip(
        *[_archive_values(part, name) for name in names])]
    path = tmp_path / "level1.csv"
    write_level1_archive(path, EventStream(
        parts[0].tags, sum(map(len, parts)), iter(parts)))
    text = path.read_text()
    assert text == ",".join(ARCHIVE_COLUMNS) + "\n" + "".join(rows)
    # the columns come from the sidecar, not from parsing the text
    monkeypatch.delattr(pairdetect, "_parse_level1_archive")
    events = archive_events(path)
    fields = list(zip(*[row[:-1].split(",") for row in rows]))
    for name, conv in ARCHIVE_COLUMNS.items():
        if conv[-1] in "fg":
            want = np.array([float(v) for v in fields[
                list(ARCHIVE_COLUMNS).index(name)]])
            assert np.array_equal(getattr(events, name).view(np.int64),
                                  want.view(np.int64)), name


@pytest.mark.parametrize("fmt, columns", [
    ("%5.1f\n", [[1.0]]), ("%x\n", [[1]]), ("%d,%d\n", [[1]]),
    ("%d\n", [[1], [2]])])
def test_write_rows_rejects_a_format_it_does_not_render(fmt, columns):
    with pytest.raises(ValueError):
        write_rows(io.StringIO(), fmt, columns)


def _archive_write_peak(path, n):
    """tracemalloc's peak while write_level1_archive writes n events."""
    rng = np.random.default_rng(5)
    events = EventTable(tags=("LHCP",), pol_code=np.zeros(n, np.int64), **{
        name: rng.integers(0, 10**6, n) if dtype is np.int64
        else rng.uniform(-100.0, 100.0, n)
        for name, dtype in pairdetect.EVENT_DTYPES.items()
        if name != "pol_code"})
    tracemalloc.start()
    try:
        write_level1_archive(path, events)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_archive_writer_holds_no_whole_archive_read_back(tmp_path):
    # the text and the sidecar's float columns go out a chunk at a time:
    # what grows with the rows is the tag and pol_code columns, ~20 B a row
    small = _archive_write_peak(tmp_path / "small.csv", 100_000)
    large = _archive_write_peak(tmp_path / "large.csv", 300_000)
    assert (large - small) / 200_000 < 28
