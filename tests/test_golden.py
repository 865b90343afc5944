"""Byte-identity guard: tiny CLI runs against frozen sha256.

The survey is the README quick start (seed 42) cut to one transit over the
5.2-5.4 h RA window, run simulate -> refilter -> analyze -> report, plus
tune-tau on its archive over -1...+1 ns and over -10...+10 ns in 1 ns steps
(on the wide grid pairs enter and leave the phase window from tap to tap).
The same survey also runs null-mc (1 seed, one thread) and, with
run.p_mode = exposure, simulate -> refilter -> analyze, which reads the
archive back for the exposure.  Refilter and the exposure-mode analyze run
again with the archive's column sidecar deleted, so that both read paths
give the golden bytes.  The frames chain is the README frames.cfg
(seed 11) cut to 16 frames, run simulate -> detect -> refilter
--diagnostics; every pair of it fails the phase cut, so it runs again at
64 frames with a source transiting at the start (the LST at
start_utc_s = 0 is 1.359 h), whose pairs give candidate rows.  A small
two-tag events session whose source rows tie with noise rows on (frame,
tag, bin) pins the sampler's sort order (TIED_CFG), on both of its sort
branches.  A two-tag session of the frames band in time mode pins
detect's blocks of frames, each holding both tags' rows in turn
(TWO_TAG_TIME_CFG).  The hashes were frozen from earlier implementations;
any change to how events, pairs or frames are stored or read must
reproduce every byte.
"""
import collections
import csv
import hashlib

from pulsepair import cli, sigsim

SURVEY_CFG = """\
config.seed = 42
run.mode = events
run.n_transits = 1
source.0.name = demo-repeater
source.0.ra_hr = 5.30
source.0.dec_deg = -8.0
source.0.snr_db = 45.0
source.0.pulse_rate_per_frame = 0.02
source.0.transit_halfwidth_hr = 0.04
run.window_lo_hr = 5.2
run.window_hi_hr = 5.4
"""

TAU_SCAN = """\
phase.tau_search_low_s = -1e-09
phase.tau_search_high_s = 1e-09
phase.tau_search_step_s = 1e-9
"""

WIDE_TAU_SCAN = """\
phase.tau_search_low_s = -1e-08
phase.tau_search_high_s = 1e-08
phase.tau_search_step_s = 1e-9
"""

GOLDEN = {
    "level1.csv":
        "fadab8a6f9d63ef9d6c82b1189e2b15651f0673f85ec714d4b48da783f7a6c0e",
    "candidates.csv":
        "3730b49b076c0e3bf59c17525ff084fbec3a9880b480e360094aaf5036c4d3d4",
    "stats.csv":
        "e850789ff87422fd65468da1a1091c243ef8130f1601c29b43f95cc2242470d0",
    "report.txt":
        "f6a57c2cc0785db08032b91af41e088f846b0d9654d77865e1b7109a1db149c4",
    "figure.svg":
        "6994b1dbe4742ff3bd70968b8364e7c3a1d9079a4518d7d3d860dd6f3bc20ed0",
    "tau_scan.csv":
        "a82fd82db2c44fca7c088a3accf6b971d271adb502daecc14a59910fe8a22106",
    "tune_report.txt":
        "4a8c55098d4585557aa5b1a14f3899f0cab9cfe16d646913d384e88e89bb5209",
}

WIDE_GOLDEN = {
    "tau_scan.csv":
        "4f5207fd7a12914388ca5755fcbb129ecb6c9a195a6b9563c0a81329d8caaef6",
    "tune_report.txt":
        "b83cdf92d01416cf0d715876be0898d7a4154bc8f2fba65de1cf29778c549212",
}

NULL_MC_GOLDEN = {
    "null_mc.csv":
        "3a5a50a7a19dd5a95cd1aaecb6dba868b3ef1f7233f2400103c4f9016b55e2a7",
}

EXPOSURE_GOLDEN = {
    "stats.csv":
        "839b5ac71eb19a490eaa37dae5db817fc1c3ca1cf3859e74a425fa6dbdae8e76",
}

FRAMES_CFG = """\
config.band_low_hz = 1445000000.0
config.band_high_hz = 1446000000.0
config.frame_seconds = 0.001024
config.seed = 11
filter.accept_band_low_hz = 1445000000.0
filter.accept_band_high_hz = 1446000000.0
filter.excision_low_hz = 1445000000.0
filter.excision_high_hz = 1445000000.0
filter.snr_threshold_db = 5.0
run.mode = freq
run.n_frames = 16
"""

FRAMES_GOLDEN = {
    "frames.npz":
        "8a794b17036ede686c1f22d14f516f725e395b66dc2bb10fdebeb558b3275085",
    "level1.csv":
        "9a8b3b98c39cc171b107316b0937426fc50077cd39ec0bddd95e58cb4918d671",
    "candidates.csv":
        "0e31399842339c57f7db0344557a5ac3c51cd0fafd82a1e84fdc738529cf202b",
    "metric_diagnostics.csv":
        "727f7681e8840e19d5973ad6dc062a02c965e5bfdb09990626a5c73ddccaedee",
}

FRAMES_SOURCE_CFG = FRAMES_CFG.replace("n_frames = 16", "n_frames = 64") + """\
source.0.name = burst
source.0.ra_hr = 1.36
source.0.dec_deg = -8.0
source.0.snr_db = 20.0
source.0.pulse_rate_per_frame = 0.5
"""

FRAMES_SOURCE_GOLDEN = {
    "level1.csv":
        "f6df9944379034ec1db68d845cafa0096b00ac69667762ee66c2e1b8047cfcc5",
    "candidates.csv":
        "6bcb26fa1959a1f6c0d7ef81433e026d8470b64c53f34bcae425422717ac1151",
    "metric_diagnostics.csv":
        "fc1b3eaeccc5e8aff1c2f36a708a71bf927c32127d70a4a3e7069cd6f59c4c8d",
}

# Two tags, 512 usable bins at a 3 dB threshold (~19 noise events a frame)
# and a source injecting ~3 rows a frame into LHCP: over 2 transits of
# 144 frames, injected and noise rows share a (frame, tag, bin) key, so the
# sampler's sort must keep equal keys in draw order, noise rows first.
TIED_CFG = """\
config.seed = 5
config.band_low_hz = 1420000000.0
config.band_high_hz = 1420002048.0
config.frame_seconds = 0.25
config.polarization_tags = LHCP,RHCP
filter.accept_band_low_hz = 1420000000.0
filter.accept_band_high_hz = 1420002048.0
filter.snr_threshold_db = 3.0
run.mode = events
run.n_transits = 2
run.window_lo_hr = 5.2
run.window_hi_hr = 5.21
run.ra_bin_hr = 0.005
source.0.name = tie-maker
source.0.ra_hr = 5.205
source.0.dec_deg = -8.0
source.0.snr_db = 30.0
source.0.pulse_rate_per_frame = 2.0
"""

TIED_GOLDEN = {
    "level1.csv":
        "95be9b434093e3ed0b0d890bbb5447162ad768dcfe3b65759400c675e5b04878",
    "level1.csv.cols":
        "0aa7b6292a3d357af15945bb352956e0f73af837b63b329a768c5ef5899c2117",
}


# The README frames band in time mode with two tags, RHCP first: each
# frame gives an RHCP row and then an LHCP row, so detect scores 192 rows
# of 1,024 bins in three blocks of 64 rows, each with the tags interleaved.
TWO_TAG_TIME_CFG = FRAMES_CFG.replace("seed = 11", "seed = 5").replace(
    "mode = freq", "mode = time").replace(
    "n_frames = 16", "n_frames = 96") + """\
config.polarization_tags = RHCP,LHCP
"""

TWO_TAG_TIME_GOLDEN = {
    "level1.csv":
        "63e907d249f11de891d32cd113d57bb9378ab7507aaaa79b4ab586131f9cf8af",
    "level1.csv.cols":
        "47fb5741604a411a50e7783c5e0d03fec35573770ca47a24f37467c19c8a8cf4",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tiny_survey_bytes_match_frozen_hashes(tmp_path):
    survey = tmp_path / "survey.cfg"
    survey.write_text(SURVEY_CFG)
    tune = tmp_path / "tune.cfg"
    tune.write_text(SURVEY_CFG + TAU_SCAN)
    wide = tmp_path / "wide.cfg"
    wide.write_text(SURVEY_CFG + WIDE_TAU_SCAN)
    out = tmp_path / "out"
    common = ["--config", str(survey), "--out", str(out), "--threads", "1"]
    for argv in (["simulate", *common], ["refilter", *common],
                 ["analyze", *common],
                 ["report", *common, "--format", "svg"],
                 ["tune-tau", "--config", str(tune), "--out", str(out),
                  "--level1", str(out / "level1.csv")],
                 ["tune-tau", "--config", str(wide),
                  "--out", str(out / "wide"),
                  "--level1", str(out / "level1.csv")]):
        assert cli.main(argv) == 0, argv
    got = {name: _sha256(out / name) for name in GOLDEN}
    assert got == GOLDEN
    got = {name: _sha256(out / "wide" / name) for name in WIDE_GOLDEN}
    assert got == WIDE_GOLDEN
    (out / "level1.csv.cols").unlink()
    assert cli.main(["refilter", *common]) == 0
    assert _sha256(out / "candidates.csv") == GOLDEN["candidates.csv"]


def test_tiny_survey_null_mc_and_exposure_bytes(tmp_path):
    survey = tmp_path / "survey.cfg"
    survey.write_text(SURVEY_CFG)
    exposure = tmp_path / "exposure.cfg"
    exposure.write_text(SURVEY_CFG + "run.p_mode = exposure\n")
    null_out, exposure_out = tmp_path / "null", tmp_path / "exposure"
    assert cli.main(["null-mc", "--config", str(survey), "--out",
                     str(null_out), "--n-seeds", "1", "--threads", "1"]) == 0
    common = ["--config", str(exposure), "--out", str(exposure_out),
              "--threads", "1"]
    for command in ("simulate", "refilter", "analyze"):
        assert cli.main([command, *common]) == 0, command
    got = {name: _sha256(null_out / name) for name in NULL_MC_GOLDEN}
    assert got == NULL_MC_GOLDEN
    got = {name: _sha256(exposure_out / name) for name in EXPOSURE_GOLDEN}
    assert got == EXPOSURE_GOLDEN
    (exposure_out / "level1.csv.cols").unlink()
    for command in ("refilter", "analyze"):
        assert cli.main([command, *common]) == 0, command
    got = {name: _sha256(exposure_out / name) for name in EXPOSURE_GOLDEN}
    assert got == EXPOSURE_GOLDEN


def test_tiny_frames_bytes_match_frozen_hashes(tmp_path):
    for case, text, golden in (("frames", FRAMES_CFG, FRAMES_GOLDEN),
                               ("source", FRAMES_SOURCE_CFG,
                                FRAMES_SOURCE_GOLDEN)):
        cfg = tmp_path / f"{case}.cfg"
        cfg.write_text(text)
        out = tmp_path / case
        common = ["--config", str(cfg), "--out", str(out)]
        for argv in (["simulate", *common], ["detect", *common],
                     ["refilter", *common, "--diagnostics"]):
            assert cli.main(argv) == 0, argv
        got = {name: _sha256(out / name) for name in golden}
        assert got == golden
    with open(out / "candidates.csv") as fh:
        assert len(fh.readlines()) > 1     # the source's pairs pass


def test_tied_two_tag_session_bytes(tmp_path):
    cfg = tmp_path / "tied.cfg"
    cfg.write_text(TIED_CFG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    got = {name: _sha256(out / name) for name in TIED_GOLDEN}
    assert got == TIED_GOLDEN
    # the source's rows (~23 dB measured) tie with noise rows (< 20 dB)
    with open(out / "level1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    snr = collections.defaultdict(list)
    for row in rows:
        snr[row["frame_index"], row["polarization_tag"],
            row["bin_index"]].append(float(row["snr_east_db"]))
    tied = [v for v in snr.values() if min(v) < 20.0 < max(v)]
    assert len(tied) >= 10
    assert all(v[-1] > 20.0 for v in tied)     # drawn last, sorted last


def test_tied_session_bytes_on_the_fallback_sort(tmp_path, monkeypatch):
    # the same session with every transit's key sorted by _stable_argsort,
    # the branch of keys too wide to pack beside their index
    sort_key, argsort, calls = sigsim._sort_key, sigsim._stable_argsort, []
    monkeypatch.setattr(sigsim, "_sort_key",
                        lambda key, span: sort_key(key, 2 ** 64))
    monkeypatch.setattr(sigsim, "_stable_argsort",
                        lambda key: calls.append(key.size) or argsort(key))
    cfg = tmp_path / "tied.cfg"
    cfg.write_text(TIED_CFG)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(calls) == 2                      # one per transit
    assert {name: _sha256(out / name) for name in TIED_GOLDEN} == TIED_GOLDEN


def test_two_tag_time_mode_session_bytes(tmp_path):
    cfg = tmp_path / "two_tag.cfg"
    cfg.write_text(TWO_TAG_TIME_CFG)
    out = tmp_path / "out"
    for command in ("simulate", "detect"):
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(out)]) == 0, command
    assert {name: _sha256(out / name)
            for name in TWO_TAG_TIME_GOLDEN} == TWO_TAG_TIME_GOLDEN
    with open(out / "level1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 326
    assert {row["polarization_tag"] for row in rows} == {"LHCP", "RHCP"}
