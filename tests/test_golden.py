"""Byte-identity guard: a tiny survey through the CLI against frozen sha256.

The survey is the README quick start (seed 42) cut to one transit over the
5.2-5.4 h RA window, run simulate -> refilter -> analyze -> report, plus
tune-tau over -1...+1 ns in 1 ns steps on its archive.  The hashes were
frozen from the object-per-event implementation; any change to how events
and pairs are stored must reproduce every byte.
"""
import hashlib

from pulsepair import cli

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


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tiny_survey_bytes_match_frozen_hashes(tmp_path):
    survey = tmp_path / "survey.cfg"
    survey.write_text(SURVEY_CFG)
    tune = tmp_path / "tune.cfg"
    tune.write_text(SURVEY_CFG + TAU_SCAN)
    out = tmp_path / "out"
    common = ["--config", str(survey), "--out", str(out), "--threads", "1"]
    for argv in (["simulate", *common], ["refilter", *common],
                 ["analyze", *common],
                 ["report", *common, "--format", "svg"],
                 ["tune-tau", "--config", str(tune), "--out", str(out),
                  "--level1", str(out / "level1.csv")]):
        assert cli.main(argv) == 0, argv
    got = {name: _sha256(out / name) for name in GOLDEN}
    assert got == GOLDEN
