import os
import subprocess
import sys
import zipfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pulsepair import cli, phasefilter, pipeline
from pulsepair.calib import FWHM_PER_SIGMA, utc_at_lst
from pulsepair.errors import ValidationError
from pulsepair.kvconfig import read_kv_file
from pulsepair.pairdetect import (EventTable, FirstLevelFilterParams,
                                  form_pairs)
from pulsepair.phasefilter import PhaseMetricParams
from pulsepair.pipeline import ExperimentManifest
from pulsepair.sigsim import ObservationConfig, RfiSpec, SourceSpec
from pulsepair.skystats import (STATS_COLUMNS, analyze, bin_counts,
                                write_stats_csv)

from helpers import archive_events
from test_golden import SURVEY_CFG, WIDE_TAU_SCAN

OBS_LON = -79.8398


def _write_config(path, manifest) -> str:
    with open(path, "w") as fh:
        for k, v in sorted(manifest.to_kv().items()):
            fh.write(f"{k} = {v}\n")
    return str(path)


def _events_manifest(**kwargs):
    m = ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
            polarization_tags=("LHCP", "RHCP"), seed=3),
        filter=FirstLevelFilterParams(
            accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
            excision_low_hz=1445.0e6, excision_high_hz=1445.0e6),
        mode="events", n_transits=2,
        window_lo_hr=5.0, window_hi_hr=5.5, ra_bin_hr=0.1)
    for key, value in kwargs.items():
        setattr(m, key, value)
    return m


def test_events_chain(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "level1.csv").exists()
    assert cli.main(["refilter", "--config", cfg, "--out", out,
                     "--diagnostics"]) == 0
    assert (tmp_path / "out" / "candidates.csv").exists()
    diag = (tmp_path / "out" / "metric_diagnostics.csv").read_text()
    assert diag.splitlines()[0] == ("delta_f_hz,log10_delta_f_mhz,"
                                    "phase_metric_rad,verdict")
    assert cli.main(["analyze", "--config", cfg, "--out", out]) == 0
    report = read_kv_file(tmp_path / "out" / "report.txt")
    assert int(report["n_trials"]) > 0
    assert "peak.cohens_d" in report
    assert cli.main(["report", "--config", cfg, "--out", out]) == 0
    svg = (tmp_path / "out" / "figure.svg").read_text()
    assert svg.lstrip().startswith("<") and "<svg" in svg
    assert cli.main(["report", "--config", cfg, "--out", out,
                     "--format", "csv"]) == 0
    caption = (tmp_path / "out" / "figure_caption.csv").read_text().splitlines()
    assert caption[0] == "caption"
    assert caption[1].startswith('"') and caption[1].endswith('"')
    # exposure-weighted probabilities re-read the level-1 archive
    cfg2 = _write_config(tmp_path / "exp2.cfg",
                         _events_manifest(p_mode="exposure"))
    assert cli.main(["analyze", "--config", cfg2, "--out", out]) == 0


def test_figure_title_is_escaped(tmp_path):
    # a title with XML markup characters still gives a well-formed figure
    title = "Pairs <5.25 h> & RA"
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest(title=title))
    stats = tmp_path / "stats.csv"
    write_stats_csv(stats, analyze(np.array([5.05, 5.15, 5.15]),
                                   np.array([5.0, 5.1, 5.2])).stats)
    assert cli.main(["report", "--config", cfg, "--stats", str(stats),
                     "--out", str(tmp_path)]) == 0
    texts = ET.parse(tmp_path / "figure.svg").getroot().iter(
        "{http://www.w3.org/2000/svg}text")
    assert title in [t.text for t in texts]


def test_quiet_sky_chain(tmp_path):
    # no pair passes a 1e-9 rad phase window: every stage still completes
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest(
        phase=PhaseMetricParams(filter_halfwidth_rad=1e-9)))
    out = tmp_path / "out"
    common = ["--config", cfg, "--out", str(out)]
    assert cli.main(["simulate", *common]) == 0
    assert cli.main(["refilter", *common]) == 0
    with pytest.warns(UserWarning, match="no candidates"):
        assert cli.main(["analyze", *common]) == 0
    assert cli.main(["report", *common]) == 0
    assert len((out / "candidates.csv").read_text().splitlines()) == 1
    assert len((out / "stats.csv").read_text().splitlines()) == 1
    assert read_kv_file(out / "report.txt")["peak"] == "none"
    assert "<svg" in (out / "figure.svg").read_text()


def test_seed_override_changes_archive(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
    cli.main(["simulate", "--config", cfg, "--out", out_a])
    cli.main(["simulate", "--config", cfg, "--out", out_b, "--seed", "3"])
    cli.main(["simulate", "--config", cfg, "--out", out_c, "--seed", "4"])
    a = (tmp_path / "a" / "level1.csv").read_bytes()
    assert a == (tmp_path / "b" / "level1.csv").read_bytes()
    assert a != (tmp_path / "c" / "level1.csv").read_bytes()


def _frames_config(tmp_path) -> str:
    m = ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6,
            frame_seconds=0.001024, polarization_tags=("LHCP", "RHCP"),
            seed=11),
        filter=FirstLevelFilterParams(
            snr_threshold_db=5.0, accept_band_low_hz=1445.0e6,
            accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
            excision_high_hz=1445.0e6),
        mode="freq", n_frames=8)
    return _write_config(tmp_path / "frames.cfg", m)


def test_frames_chain(tmp_path):
    cfg = _frames_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "frames.npz").exists()
    assert cli.main(["detect", "--config", cfg, "--out", out]) == 0
    level1 = (tmp_path / "out" / "level1.csv").read_text().splitlines()
    assert len(level1) > 1          # noise crossings at a 5 dB threshold
    assert cli.main(["refilter", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "candidates.csv").exists()


def test_truncated_frame_store_is_a_validation_error(tmp_path, capsys):
    cfg = _frames_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    store = tmp_path / "out" / "frames.npz"
    with np.load(store) as data:
        members = {name: data[name] for name in data.files}
    members["east"] = members["east"][:-1]
    np.savez_compressed(store, **members)
    capsys.readouterr()
    assert cli.main(["detect", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert str(store) in err and "east" in err
    assert not (tmp_path / "out" / "level1.csv").exists()


def test_unreadable_frame_store_is_a_validation_error(tmp_path, capsys):
    cfg = _frames_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    store = tmp_path / "out" / "frames.npz"
    whole = store.read_bytes()
    for broken in (whole[:4000], b""):
        store.write_bytes(broken)
        capsys.readouterr()
        assert cli.main(["detect", "--config", cfg, "--out", out]) == 3
        assert str(store) in capsys.readouterr().err
        assert not (tmp_path / "out" / "level1.csv").exists()


def test_corrupt_frame_store_member_is_a_validation_error(tmp_path, capsys):
    # the zip directory stays intact, so the error comes from inflating the
    # east member, on a thread of load_frames_npz's pool
    cfg = _frames_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    store = tmp_path / "out" / "frames.npz"
    with zipfile.ZipFile(store) as archive:
        east = archive.getinfo("east.npy")
    whole = bytearray(store.read_bytes())
    middle = (east.header_offset + len(east.FileHeader(zip64=True))
              + east.compress_size // 2)
    whole[middle:middle + 4096] = bytes(4096)
    store.write_bytes(whole)
    capsys.readouterr()
    assert cli.main(["detect", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert str(store) in err and "while decompressing data" in err
    assert not (tmp_path / "out" / "level1.csv").exists()


# one malformed member of a good store: (member, its new value from the
# good one, what the error expects); "no bins" drops every bin
_MALFORMED = {
    "frame_index": (lambda a: a + 0.5, "expected integer"),
    "utc_s": (lambda a: a.astype(np.int64), "expected floating"),
    "polarization_tag": (lambda a: np.arange(a.size), "expected str_"),
    "east": (lambda a: a.real, "expected complexfloating"),
    "west": (lambda a: np.abs(a), "expected complexfloating"),
    "rf_freqs_hz": (lambda a: a[:, np.newaxis], "at least one bin"),
    "no bins": (lambda a: a[..., :0], "at least one bin"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_frame_store_member_is_a_validation_error(tmp_path,
                                                              capsys, case):
    cfg = _frames_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    store = tmp_path / "out" / "frames.npz"
    with np.load(store) as data:
        members = {name: data[name] for name in data.files}
    bad, says = _MALFORMED[case]
    names = (["east", "west", "rf_freqs_hz"] if case == "no bins"
             else [case])
    members.update((name, bad(members[name])) for name in names)
    np.savez_compressed(store, **members)
    capsys.readouterr()
    assert cli.main(["detect", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert f"{store}: {names[-1]} " in err and says in err
    assert not (tmp_path / "out" / "level1.csv").exists()


def test_refilter_diagnostics_filter_once(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    calls = []
    original = phasefilter.second_level_filter

    def counting(pairs, *args, **kwargs):
        calls.append(len(pairs))
        return original(pairs, *args, **kwargs)

    for module in (cli, pipeline, phasefilter):
        if getattr(module, "second_level_filter", None) is original:
            monkeypatch.setattr(module, "second_level_filter", counting)
    assert cli.main(["refilter", "--config", cfg, "--out", out,
                     "--diagnostics"]) == 0
    # one call per chunk, and each of the two transits is one chunk here:
    # every pair is filtered once, diagnostics and all
    assert len(calls) == 2
    diag = (tmp_path / "out" / "metric_diagnostics.csv").read_text()
    assert len(diag.splitlines()) > 1
    assert sum(calls) == len(diag.splitlines()) - 1


def test_refilter_and_tune_tau_read_level1_in(tmp_path, capsys):
    m = _events_manifest(phase=PhaseMetricParams(
        tau_search_low_s=-4e-9, tau_search_high_s=4e-9,
        tau_search_step_s=4e-9))
    cfg = _write_config(tmp_path / "exp.cfg", m)
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    assert cli.main(["refilter", "--config", cfg, "--out", str(sim)]) == 0
    m.level1_in = str(sim / "level1.csv")
    ext_cfg = _write_config(tmp_path / "ext.cfg", m)
    out = tmp_path / "out"
    for command in ("refilter", "tune-tau", "analyze"):
        assert cli.main([command, "--config", ext_cfg,
                         "--out", str(out)]) == 0, command
    assert not (out / "level1.csv").exists()
    assert ((out / "candidates.csv").read_bytes()
            == (sim / "candidates.csv").read_bytes())
    assert (out / "tau_scan.csv").exists()
    capsys.readouterr()


def test_simulate_and_detect_leave_an_external_archive(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    sim = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    archive = sim / "level1.csv"
    before = archive.read_bytes()
    events = _write_config(tmp_path / "events.cfg",
                           _events_manifest(level1_in=str(archive)))
    frames = tmp_path / "frames.cfg"      # no run.n_frames at all
    frames.write_text(f"run.mode = freq\nrun.level1_in = {archive}\n")
    for name, path in (("events", events), ("frames", str(frames))):
        for command in ("simulate", "detect"):
            out = tmp_path / f"{name}-{command}"
            capsys.readouterr()
            assert cli.main([command, "--config", path,
                             "--out", str(out)]) == 0, (name, command)
            assert "external archive" in capsys.readouterr().out
            assert not out.exists()
    assert archive.read_bytes() == before
    gone = _write_config(tmp_path / "gone.cfg", _events_manifest(
        level1_in=str(tmp_path / "missing.csv")))
    assert cli.main(["simulate", "--config", gone]) == 3
    capsys.readouterr()


def test_none_only_for_optional_keys(tmp_path, capsys):
    out = str(tmp_path / "out")
    for line in ("config.seed = none", "run.window_lo_hr = none",
                 "run.title = none", "config.polarization_tags = none"):
        cfg = tmp_path / "none.cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", out]) == 3, line
        assert "none is not allowed" in capsys.readouterr().err


def test_calibrate(tmp_path):
    fwhm_deg, snr_db, n = 9.0, 3.0, 4000
    sigma_hr = fwhm_deg / 15.0 / FWHM_PER_SIGMA
    amp = 10.0 ** (snr_db / 10.0) - 1.0
    utc0 = utc_at_lst(5.25, OBS_LON, near_utc_s=1.7e9)
    utc = utc0 + np.linspace(-1.5, 1.5, n) * 3600.0
    lst_rate = 1.0027379093507949 / 3600.0
    ra = 5.25 + (utc - utc0) * lst_rate
    power = 1.0 + amp * np.exp(-0.5 * ((ra - 5.25) / sigma_hr) ** 2)
    power += np.random.default_rng(5).normal(0.0, 0.01, n)
    scan_path = tmp_path / "scan.csv"
    with open(scan_path, "w") as fh:
        fh.write("utc_s,power\n")
        for t, p in zip(utc, power):
            fh.write(f"{t:.3f},{p:.6f}\n")
    out = str(tmp_path / "out")
    assert cli.main(["calibrate", "--scan", str(scan_path), "--out", out,
                     "--source-name", "calsrc"]) == 0
    report = read_kv_file(tmp_path / "out" / "calib_report.txt")
    assert report["source_name"] == "calsrc"
    assert float(report["center_ra_hr"]) == pytest.approx(5.25, abs=0.01)
    assert float(report["fwhm_ra_deg"]) == pytest.approx(9.0, rel=0.05)
    assert float(report["continuum_snr_db"]) == pytest.approx(3.0, abs=0.1)


def test_tune_tau_cli(tmp_path):
    m = _events_manifest(phase=PhaseMetricParams(
        tau_search_low_s=-8e-9, tau_search_high_s=8e-9,
        tau_search_step_s=4e-9))
    cfg = _write_config(tmp_path / "exp.cfg", m)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert cli.main(["tune-tau", "--config", cfg, "--out", out]) == 0
    report = read_kv_file(tmp_path / "out" / "tune_report.txt")
    assert report["n_taps"] == "5"
    assert -8e-9 <= float(report["best_tau_int_s"]) <= 8e-9
    scan = (tmp_path / "out" / "tau_scan.csv").read_text().splitlines()
    assert scan[0] == "tau_int_s,peak_cohens_d"
    assert len(scan) == 6


def test_null_mc_cli(tmp_path):
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    out = str(tmp_path / "out")
    assert cli.main(["null-mc", "--config", cfg, "--out", out,
                     "--n-seeds", "2"]) == 0
    rows = (tmp_path / "out" / "null_mc.csv").read_text().splitlines()
    assert rows[0] == "seed,n_trials,max_cohens_d,peak_ra_low_hr"
    assert len(rows) == 3
    summary = read_kv_file(tmp_path / "out" / "null_summary.txt")
    assert summary["n_seeds"] == "2"
    assert 0.0 <= float(summary["fraction_below"]) <= 1.0


def test_tune_tau_and_null_mc_in_exposure_mode(tmp_path):
    # both commands weight the bins by the level-1 events they hold, as
    # analyze does; each tap matches the filter plus analyze at that tau
    cfg = tmp_path / "exposure.cfg"
    cfg.write_text(SURVEY_CFG + WIDE_TAU_SCAN + "run.p_mode = exposure\n")
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    for argv in (["simulate", *common], ["tune-tau", *common],
                 ["null-mc", *common, "--n-seeds", "1", "--seed", "7"]):
        assert cli.main(argv) == 0, argv
    m = pipeline.manifest_from_file(cfg)
    events = archive_events(out / "level1.csv")
    pairs = form_pairs(events)
    lo, hi, step = (m.phase.tau_search_low_s, m.phase.tau_search_high_s,
                    m.phase.tau_search_step_s)
    taus = np.arange(lo, hi + 0.5 * step, step)
    lines = (out / "tau_scan.csv").read_text().splitlines()[1:]
    assert len(lines) == taus.size
    for line, tau in zip(lines, taus):
        survivors = phasefilter.second_level_filter(
            pairs, replace(m.phase, tau_int_s=tau))
        res = analyze(survivors.ra_pointing_hr, m.bin_edges(), "exposure",
                      bin_counts(events.ra_pointing_hr, m.bin_edges()))
        assert line == f"{tau:.12g},{res.peak.cohens_d:.8g}"
    null = replace(m, config=replace(m.config, seed=7), sources=[])
    events = EventTable.concat(pipeline.simulate_events(null))
    survivors = phasefilter.second_level_filter(form_pairs(events), m.phase)
    res = analyze(survivors.ra_pointing_hr, m.bin_edges(), "exposure",
                  bin_counts(events.ra_pointing_hr, m.bin_edges()))
    assert (out / "null_mc.csv").read_text().splitlines()[1] == (
        f"7,{res.n_trials},{res.peak.cohens_d:.8g},{res.peak.ra_low_hr:.6g}")


def test_usage_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    assert cli.main([]) == 1                       # no subcommand
    assert cli.main(["frobnicate"]) == 1           # unknown subcommand
    assert cli.main(["simulate"]) == 1             # --config required
    assert cli.main(["simulate", "--config", cfg, "--seed", "-1"]) == 1
    assert cli.main(["simulate", "--config", cfg, "--threads", "x"]) == 1
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path),
                     "--format", "csv"]) == 1    # a report-only flag
    assert cli.main(["calibrate"]) == 1            # --scan required
    # calibrate reads no config, so it takes no --config, --seed or --threads
    assert cli.main(["calibrate", "--scan", "scan.csv", "--seed", "1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--seed", "-1")])
def test_report_checks_the_flags_without_a_config(tmp_path, capsys, flag,
                                                  value):
    # the flags are checked where they are parsed, so a report without
    # --config rejects them as every other subcommand does
    assert cli.main(["report", "--out", str(tmp_path), flag, value]) == 1
    assert flag in capsys.readouterr().err


_CANDIDATE_ROW = "1.0,2.0,3,4,5,6,7.0,8.0,LHCP,RHCP,1.0,8.0,-5.0,0.01,5.1\n"


@pytest.mark.parametrize("command, flag, text", [
    ("simulate", "--config", "run.title = caf\u00e9\n"),
    ("report", "--stats",
     ",".join(STATS_COLUMNS) + "\n5.0,5.1,caf\u00e9\n"),
    # past the first 8 kB that the header's read decodes: np.loadtxt meets
    # the byte, and the row walk that looks for its line meets it again
    ("analyze", "--candidates",
     ",".join(pipeline.CANDIDATE_COLUMNS) + "\n" + _CANDIDATE_ROW * 200
     + _CANDIDATE_ROW.replace("RHCP", "RHC\u00e9")),
    ("calibrate", "--scan", "utc_s,power\n1.0,2.0\n2.0,caf\u00e9\n"),
], ids=["config", "stats", "candidates", "scan"])
def test_a_file_that_is_not_utf8_is_a_validation_error(tmp_path, capsys,
                                                       command, flag, text):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))        # \u00e9 as byte 0xe9
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    if command == "analyze":
        argv += ["--config",
                 _write_config(tmp_path / "exp.cfg", _events_manifest())]
    assert cli.main(argv) == 3
    assert str(path) in capsys.readouterr().err


def test_validation_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("run.not_a_key = 1\n")
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", str(bad_cfg), "--out", out]) == 3
    bad_cfg.write_text("config.bins_per_segment = 128\n")   # now filter.*
    assert cli.main(["simulate", "--config", str(bad_cfg), "--out", out]) == 3
    cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    assert cli.main(["refilter", "--config", cfg, "--out", out]) == 3
    assert cli.main(["report", "--config", cfg, "--out", out]) == 3
    assert cli.main(["detect", "--config", cfg, "--out", out]) == 3
    capsys.readouterr()
    # a bad tag fails at config load, before anything is simulated
    bad_cfg.write_text(Path(cfg).read_text().replace("= LHCP,RHCP",
                                                     "= LHCP,r\u00e9"))
    fresh = tmp_path / "fresh"
    assert cli.main(["simulate", "--config", str(bad_cfg),
                     "--out", str(fresh)]) == 3
    assert "polarization_tag" in capsys.readouterr().err
    assert not fresh.exists()
    # a window over 24 h spans more than one transit
    long_window = Path(cfg).read_text().replace("run.window_hi_hr = 5.5",
                                                "run.window_hi_hr = 30.0")
    assert long_window != Path(cfg).read_text()
    bad_cfg.write_text(long_window)
    assert cli.main(["simulate", "--config", str(bad_cfg),
                     "--out", str(fresh)]) == 3
    assert "window_hi_hr" in capsys.readouterr().err
    assert not fresh.exists()
    # a broadband_flat interferer has no carrier to set
    bad_cfg.write_text(Path(_frames_config(tmp_path)).read_text()
                       + "rfi.0.kind = broadband_flat\n"
                       "rfi.0.power_rel_noise = 10.0\n"
                       "rfi.0.rf_freq_hz = 1445500000.0\n")
    assert cli.main(["simulate", "--config", str(bad_cfg),
                     "--out", str(fresh)]) == 3
    assert "rf_freq_hz" in capsys.readouterr().err
    assert not fresh.exists()
    # a thread count below 1 is a usage error, as a negative seed is
    for threads in ("0", "-4"):
        assert cli.main(["null-mc", "--config", cfg, "--out", out,
                         "--n-seeds", "1", "--threads", threads]) == 1
        assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("config.noise_floor", "1.0"), ("source.0.emission_window_hr", "0.1"),
    ("rfi.0.direction", "sidelobe"), ("config.phase_sign", "-1.0")])
def test_a_removed_key_is_a_validation_error(tmp_path, capsys, key, value):
    # noise_floor scaled every voltage alike, so no SNR or phase saw it;
    # an emission window was twice transit_halfwidth_hr; a direction only
    # restated whether sidelobe_delay_s is zero; phase_sign let the
    # simulators flip the one convention the analysis hard-codes
    m = _events_manifest(
        sources=[SourceSpec(name="s", ra_hr=5.25, dec_deg=-8.0, snr_db=45.0,
                            pulse_rate_per_frame=0.01)],
        rfi=[RfiSpec(kind="narrowband_carrier", power_rel_noise=1000.0,
                     rf_freq_hz=1445.5e6)])
    cfg = tmp_path / "old.cfg"
    cfg.write_text(Path(_write_config(tmp_path / "exp.cfg", m)).read_text()
                   + f"{key} = {value}\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert f"unknown keys: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_run_keys_a_mode_ignores_are_validation_errors(tmp_path, capsys):
    # events mode takes its frames from the RA window; a frame-mode session
    # is one run of consecutive frames, never several transits
    events = _write_config(tmp_path / "events.cfg",
                           _events_manifest(n_frames=8))
    frames = tmp_path / "frames.cfg"
    frames.write_text(Path(_frames_config(tmp_path)).read_text().replace(
        "run.n_transits = 1", "run.n_transits = 2"))
    for cfg, key in ((events, "run.n_frames"), (frames, "run.n_transits")):
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 3
        assert f"validation error: {key}: " in capsys.readouterr().err
        assert not out.exists()


def test_beam_taper_in_events_mode_is_a_validation_error(tmp_path, capsys):
    # the event-level sampler draws an untapered beam, so the key would
    # only move the simulate hash
    m = _events_manifest()
    m.config = replace(m.config, beam_fwhm_ra_deg=9.0)
    cfg = _write_config(tmp_path / "exp.cfg", m)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "beam_fwhm_ra_deg" in capsys.readouterr().err
    assert not (out / "level1.csv").exists()


def test_rfi_in_events_mode_is_a_validation_error(tmp_path, capsys):
    # the event-level sampler draws no interference, so rfi.N.* keys would
    # only move the simulate hash
    m = _events_manifest(rfi=[RfiSpec(kind="narrowband_carrier",
                                      power_rel_noise=1000.0,
                                      rf_freq_hz=1445.5e6)])
    cfg = _write_config(tmp_path / "exp.cfg", m)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert "rfi" in capsys.readouterr().err
    assert not (out / "level1.csv").exists()
    assert cli.main(["null-mc", "--config", cfg, "--out", str(out),
                     "--n-seeds", "1"]) == 3


def test_null_mc_on_a_frame_mode_config_is_a_validation_error(tmp_path,
                                                             capsys):
    # null-mc samples the events mode's session only: a frame-mode config
    # is refused before any seed runs, and no null_mc.csv is written
    cfg = _frames_config(tmp_path)
    with pytest.raises(ValidationError, match="runs on the events mode"):
        pipeline.run_null_mc(pipeline.manifest_from_file(cfg), 1)
    out = tmp_path / "out"
    assert cli.main(["null-mc", "--config", cfg, "--out", str(out),
                     "--n-seeds", "1"]) == 3
    assert "runs on the events mode" in capsys.readouterr().err
    assert not (out / "null_mc.csv").exists()


def _refusal(command, code, contents=None):
    return pytest.param(command, code, contents,
                        id=f"{command}-{contents or code}")


@pytest.mark.parametrize("command, code, contents", [
    _refusal("simulate", 3), _refusal("null-mc", 3), _refusal("refilter", 3),
    _refusal("tune-tau", 3), _refusal("analyze", 3), _refusal("detect", 3),
    _refusal("report", 3), _refusal("calibrate", 2),
    _refusal("refilter", 3, "empty archive"),
    _refusal("analyze", 3, "bad candidates header"),
    _refusal("report", 3, "bad stats header")])
def test_a_refused_run_leaves_no_out_directory(tmp_path, capsys, command,
                                               code, contents):
    # a handler makes --out only once its inputs and checks pass: simulate
    # refuses a beam taper in events mode, null-mc a frame-mode config, and
    # the others a missing input file, or, with `contents`, an input file
    # that exists but is refused once it is read
    taper = _events_manifest()
    taper.config = replace(taper.config, beam_fwhm_ra_deg=9.0)
    if command == "simulate":
        cfg = _write_config(tmp_path / "taper.cfg", taper)
    elif command in ("null-mc", "detect"):
        cfg = _frames_config(tmp_path)
    else:
        cfg = _write_config(tmp_path / "exp.cfg", _events_manifest())
    bad = tmp_path / "bad.csv"
    bad.write_text("" if contents == "empty archive" else "not,a,header\n")
    args = {"calibrate": ["--scan", str(tmp_path / "no.csv")],
            "null-mc": ["--config", cfg, "--n-seeds", "1"]}
    argv = args.get(command, ["--config", cfg])
    if contents is not None:
        flag = {"refilter": "--level1", "analyze": "--candidates",
                "report": "--stats"}[command]
        argv = [*argv, flag, str(bad)]
    out = tmp_path / "out"
    assert cli.main([command, *argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if contents is not None:
        assert ("empty file" if contents == "empty archive"
                else "bad header") in err
    assert not out.exists()


def test_os_error_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "out")
    missing = str(tmp_path / "missing.cfg")
    assert cli.main(["simulate", "--config", missing, "--out", out]) == 2
    assert cli.main(["calibrate", "--scan", str(tmp_path / "no.csv"),
                     "--out", out]) == 2
    capsys.readouterr()


def test_help_and_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "simulate" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing the CLI must not
    # pull scipy in, even where it is installed
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run(
        [sys.executable, "-c",
         "import sys, pulsepair.cli; assert 'scipy' not in sys.modules"],
        env=env, check=True)
