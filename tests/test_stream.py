"""A session one transit at a time: the same bytes, one transit in memory.

simulate samples and writes, and refilter, tune-tau, the exposure of
analyze and null-mc read or sample, one transit at a time.  The hashes
below were frozen from the implementation that held the whole event table
in every stage, on the golden tiny survey (test_golden.SURVEY_CFG) at 1
and 3 transits: at pairing window K = 0 with the uniform null, and at
K = 1 with the exposure null.
"""
import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest

from pulsepair import cli, pairdetect, pipeline
from pulsepair.pairdetect import EventTable, write_level1_archive
from pulsepair.sigsim import transit_index

from helpers import archive_events, event_columns
from test_golden import SURVEY_CFG, TAU_SCAN

PINNED = {
    (1, 0): {
        "level1.csv":
            "fadab8a6f9d63ef9d6c82b1189e2b15651f0673f85ec714d4b48da783f7a6c0e",
        "level1.csv.cols":
            "336d675fd9e8e6c94be43b5b54496dc5aec256a0570bb797ab3adb82b0b6a8be",
        "candidates.csv":
            "3730b49b076c0e3bf59c17525ff084fbec3a9880b480e360094aaf5036c4d3d4",
        "stats.csv":
            "e850789ff87422fd65468da1a1091c243ef8130f1601c29b43f95cc2242470d0",
        "tau_scan.csv":
            "a82fd82db2c44fca7c088a3accf6b971d271adb502daecc14a59910fe8a22106",
        "null_mc.csv":
            "4945d804dd49687c29738cee867de78a8f92473539e5694205a9f72d7b830d2a",
    },
    (3, 0): {
        "level1.csv":
            "8fd4624382cb0c34f216512f1e2342e67055f6b1ef789862da56f7cadfd7ba88",
        "level1.csv.cols":
            "273382314e1c9ac80632ee790eaf26b4584662c13bae8c423e24f7c7f74ce349",
        "candidates.csv":
            "29eb69c680e2d88444fe2f6cbfb52c3dc04a154ec017507b643d1af69cec422f",
        "stats.csv":
            "2ae284943e24dcbfd92522e37f9db433f38dd767ce080b991e7b2f4ef431bf8e",
        "tau_scan.csv":
            "ed5cc6d83d8b7d88b676b6c335338ddd42e57fbfa5c9322ac33b587fa837a90d",
        "null_mc.csv":
            "34ccd8c04a00fcabc2d8de691fd343e18d366b2b293bc58c6f3b3efc09d26a72",
    },
    (1, 1): {
        "level1.csv":
            "fadab8a6f9d63ef9d6c82b1189e2b15651f0673f85ec714d4b48da783f7a6c0e",
        "level1.csv.cols":
            "336d675fd9e8e6c94be43b5b54496dc5aec256a0570bb797ab3adb82b0b6a8be",
        "candidates.csv":
            "4a27c3317b4d5508902758b2c1fac1804891bb08ce6174d0e3a3649017391a08",
        "stats.csv":
            "d0436fd7911230d7e6572d6b8390d9dd891e87727864f59dd2a65daea1af509c",
        "tau_scan.csv":
            "a45db9e555f2b7fb28bc4279c34c103fdc70f519f4a5c929f0d3c9166d85d2e9",
        "null_mc.csv":
            "59a6d161af40ac05639cc1c2ceb2c51095a81e061806b65f1caab5212c5bf654",
    },
    (3, 1): {
        "level1.csv":
            "8fd4624382cb0c34f216512f1e2342e67055f6b1ef789862da56f7cadfd7ba88",
        "level1.csv.cols":
            "273382314e1c9ac80632ee790eaf26b4584662c13bae8c423e24f7c7f74ce349",
        "candidates.csv":
            "0661174943cf050e7a5f67c956f51711b0d28903c0f12c5cf288241b5856ac5c",
        "stats.csv":
            "b50d0f961178e0825dbb0e732f8599116a85946e67610c009d0d473f88640c90",
        "tau_scan.csv":
            "041ebe8633db70a2bfb83b0f951f1c5a1b6d102e5af335e73fecbec4bdb59d8d",
        "null_mc.csv":
            "d7db13c3eb910400c1168a36516ede69a1922f26a8f1d84eb31e0eb0e73ba60b",
    },
}

# two tags in the config, one in use: no sidecar is written
UNUSED_TAG = {
    "level1.csv":
        "eee82feead6e5d279a30de6c121d1ce0dd615dd9719534cfd1fb137a918bb206",
    "candidates.csv":
        "63fbe7b7502d233898085a22fc890bd1ed686cb386881f3131cccb0889e59a63",
}

# two tags in the config, both in use: the sidecar holds both
TWO_TAGS = {
    "level1.csv":
        "2ed6e91adacf507fbb843d5469d7806a0ab2b96c3c0df74a9b6ace9eb8fc05b5",
    "level1.csv.cols":
        "9ab53a23773e781347711c42f86a264798ece1f78b56b400e3c01921efd22a9e",
    "candidates.csv":
        "aec7a7d9b43f9b435975887b7ca64b004db09845ccf5c7fd1f7c5c76e68ecc0e",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(path, n_transits, k):
    p_mode = "exposure" if k else "uniform"
    path.write_text(
        SURVEY_CFG.replace("run.n_transits = 1",
                           f"run.n_transits = {n_transits}")
        + TAU_SCAN + f"run.pairing_window_frames = {k}\n"
        + f"run.p_mode = {p_mode}\n")
    return str(path)


@pytest.mark.parametrize("n_transits, k", list(PINNED))
def test_streamed_stages_write_the_frozen_bytes(tmp_path, n_transits, k):
    cfg = _config(tmp_path / "survey.cfg", n_transits, k)
    out = tmp_path / "out"
    common = ["--config", cfg, "--out", str(out), "--threads", "1"]
    for command in ("simulate", "refilter", "analyze", "tune-tau"):
        assert cli.main([command, *common]) == 0, command
    assert cli.main(["null-mc", *common, "--n-seeds", "2"]) == 0
    got = {name: _sha256(out / name) for name in PINNED[n_transits, k]}
    assert got == PINNED[n_transits, k]
    # the reader yields pair chunks: each in one transit, the transits in
    # ascending order, every transit in turn
    m = pipeline.manifest_from_file(cfg)
    transits = [np.unique(transit_index(
        events.utc_s, m.config, m.window_lo_hr, m.window_hi_hr,
        m.start_utc_s)).tolist()
        for events in pipeline.consume_session(m, out / "level1.csv", list)]
    assert all(len(t) == 1 for t in transits)
    transits = [t for (t,) in transits]
    assert transits == sorted(transits)
    assert set(transits) == set(range(n_transits))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_the_same_bytes_at_any_thread_count(tmp_path, threads):
    cfg = _config(tmp_path / "survey.cfg", 3, 0)
    out = tmp_path / "out"
    common = ["--config", cfg, "--out", str(out), "--threads", str(threads)]
    assert cli.main(["simulate", *common]) == 0
    assert cli.main(["null-mc", *common, "--n-seeds", "2"]) == 0
    names = ("level1.csv", "level1.csv.cols", "null_mc.csv")
    assert ({name: _sha256(out / name) for name in names}
            == {name: PINNED[3, 0][name] for name in names})


def _assert_in_pair_chunks(m, path, rows):
    """consume_session reads rows (path's, in archive order) in pair chunks:
    each chunk in one transit, and all of them the rows stable-sorted by
    (transit, block)."""
    transit = transit_index(rows.utc_s, m.config, m.window_lo_hr,
                            m.window_hi_hr, m.start_utc_s)
    block = pairdetect._block_key(rows.frame_index, m.pairing_window_frames)
    got = pipeline.consume_session(m, path, list)
    assert all(np.ptp(transit_index(
        events.utc_s, m.config, m.window_lo_hr, m.window_hi_hr,
        m.start_utc_s)) == 0 for events in got)
    assert (event_columns(EventTable.concat(got))
            == event_columns(rows.take(np.lexsort((block, transit)))))


def test_an_archive_out_of_transit_order_is_split_by_transit(tmp_path):
    # every reordered archive is read in the in-order archive's pair
    # chunks, so it gives its candidates, diagnostics and tau scan: the
    # rows shuffled with no sidecar, a sidecar whose transit 2 comes first,
    # and one whose transit 1 has its halves swapped, so frames step back
    cfg = _config(tmp_path / "survey.cfg", 3, 0)
    ordered = tmp_path / "ordered"
    assert cli.main(["simulate", "--config", cfg, "--out", str(ordered)]) == 0
    m = pipeline.manifest_from_file(cfg)
    header, *lines = (ordered / "level1.csv").read_text().splitlines(True)
    perm = np.random.default_rng(0).permutation(len(lines))
    (tmp_path / "shuffled").mkdir()
    (tmp_path / "shuffled" / "level1.csv").write_text(
        header + "".join(lines[i] for i in perm))
    events = archive_events(ordered / "level1.csv")
    transit = transit_index(events.utc_s, m.config, m.window_lo_hr,
                            m.window_hi_hr, m.start_utc_s)
    one = np.flatnonzero(transit == 1)
    halves = np.arange(len(events))
    halves[one] = np.roll(one, one.size // 2)
    for name, rows in (("transits", np.argsort(transit != 2, kind="stable")),
                       ("blocks", halves)):
        (tmp_path / name).mkdir()
        write_level1_archive(tmp_path / name / "level1.csv",
                             events.take(rows))
        assert (tmp_path / name / "level1.csv.cols").exists()
    assert not (tmp_path / "shuffled" / "level1.csv.cols").exists()
    for k in (0, 1):
        cfg = _config(tmp_path / f"k{k}.cfg", 3, k)
        m = pipeline.manifest_from_file(cfg)
        got = {}
        for name in ("ordered", "shuffled", "transits", "blocks"):
            path, out = tmp_path / name / "level1.csv", tmp_path / f"{name}{k}"
            _assert_in_pair_chunks(m, path, archive_events(path))
            common = ["--config", cfg, "--out", str(out), "--level1",
                      str(path)]
            assert cli.main(["refilter", *common, "--diagnostics"]) == 0
            assert cli.main(["tune-tau", *common]) == 0
            got[name] = {file: _sha256(out / file) for file in (
                "candidates.csv", "tau_scan.csv", "metric_diagnostics.csv")}
        assert got["ordered"]["candidates.csv"] == PINNED[3, k][
            "candidates.csv"]
        assert got["ordered"]["tau_scan.csv"] == PINNED[3, k]["tau_scan.csv"]
        assert all(hashes == got["ordered"] for hashes in got.values()), k


def test_an_archive_without_rows_is_one_empty_table(tmp_path):
    cfg = _config(tmp_path / "survey.cfg", 3, 0)
    path = tmp_path / "level1.csv"
    path.write_text(",".join(pairdetect.ARCHIVE_COLUMNS) + "\n")
    m = pipeline.manifest_from_file(cfg)
    assert [len(events) for events in pipeline.consume_session(
        m, path, list)] == [0]
    out = tmp_path / "out"
    assert cli.main(["refilter", "--config", cfg, "--out", str(out),
                     "--level1", str(path)]) == 0
    assert ((out / "candidates.csv").read_text()
            == ",".join(pipeline.CANDIDATE_COLUMNS) + "\n")


def test_an_archive_with_an_unused_tag_has_no_sidecar(tmp_path):
    # at 30 dB no noise event is drawn, and the source is LHCP: RHCP is
    # never used, so no sidecar is kept (an old one is removed) and the
    # archive is read from its text, which gives the tags in use
    cfg = tmp_path / "unused.cfg"
    cfg.write_text(SURVEY_CFG.replace("run.n_transits = 1",
                                      "run.n_transits = 2")
                   + "config.polarization_tags = LHCP,RHCP\n"
                   "filter.snr_threshold_db = 30.0\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "level1.csv.cols").write_bytes(b"an old sidecar")
    common = ["--config", str(cfg), "--out", str(out)]
    for command in ("simulate", "refilter"):
        assert cli.main([command, *common]) == 0, command
    assert {name: _sha256(out / name) for name in UNUSED_TAG} == UNUSED_TAG
    assert not (out / "level1.csv.cols").exists()
    events = archive_events(out / "level1.csv")
    assert events.tags == ("LHCP",) and len(events) > 0


def test_a_two_tag_sidecar_keeps_both_tags(tmp_path, monkeypatch):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(SURVEY_CFG + "config.polarization_tags = LHCP,RHCP\n")
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    for command in ("simulate", "refilter"):
        assert cli.main([command, *common]) == 0, command
    assert {name: _sha256(out / name) for name in TWO_TAGS} == TWO_TAGS
    # read from the sidecar alone
    monkeypatch.setattr(pairdetect, "read_columns", None)
    events = archive_events(out / "level1.csv")
    assert events.tags == ("LHCP", "RHCP")
    assert np.bincount(events.pol_code).tolist() == [21081, 21345]


def _peaks(tmp_path, n_transits):
    """tracemalloc's peak of simulate, refilter, exposure-mode
    analyze_candidates, run_tune_tau and run_null_mc on the survey of
    n_transits 0.2 h transits."""
    cfg = _config(tmp_path / f"survey{n_transits}.cfg", n_transits, 0)
    m = pipeline.manifest_from_file(cfg)
    exposure = pipeline.manifest_from_file(
        _config(tmp_path / f"exposure{n_transits}.cfg", n_transits, 1))
    path = tmp_path / f"level1_{n_transits}.csv"
    stages = {
        "simulate": lambda: write_level1_archive(
            path, pipeline.simulate_events(m)),
        "refilter": lambda: pipeline.refilter(
            m, path, tmp_path / "candidates.csv"),
        "analyze": lambda: pipeline.analyze_candidates(
            exposure, tmp_path / "candidates.csv", path),
        "tune-tau": lambda: pipeline.run_tune_tau(m, path),
        "null-mc": lambda: pipeline.run_null_mc(m, 1),
    }
    peaks = {}
    for name, stage in stages.items():
        tracemalloc.start()
        try:
            stage()
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_every_stage_holds_one_transit(tmp_path):
    # ~21,000 events (1.7 MB of columns) a transit: four transits must
    # cost what one does, not four times its table
    one, four = _peaks(tmp_path, 1), _peaks(tmp_path, 4)
    for name in one:
        assert four[name] < 1.3 * one[name], (name, four[name], one[name])


def test_a_reader_stopped_early_closes_its_file(tmp_path, monkeypatch):
    cfg = _config(tmp_path / "survey.cfg", 3, 0)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    opened = []

    def spy(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(pairdetect, "open", spy, raising=False)
    m = pipeline.manifest_from_file(cfg)
    transit_of = partial(transit_index, config=m.config,
                         window_lo_hr=m.window_lo_hr,
                         window_hi_hr=m.window_hi_hr,
                         start_utc_s=m.start_utc_s)

    def first(transits):
        # takes one chunk and returns, the sidecar still open
        sidecar = [fh for fh in opened if fh.name.endswith(".cols")]
        assert len(sidecar) == 1 and not sidecar[0].closed
        return len(next(transits))

    assert pairdetect.consume_level1_archive(
        out / "level1.csv", first, transit_of, m.pairing_window_frames) > 0
    assert all(fh.closed for fh in opened)
