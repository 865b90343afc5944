import concurrent.futures
import math
import re
import shutil
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from collections import Counter

import numpy as np
import pytest

import pulsepair.pipeline
from pulsepair import cli, pairdetect
from pulsepair.errors import (ArchiveFormatError, StageError,
                              ValidationError)
from pulsepair.kvconfig import read_kv_file, write_kv_file
from pulsepair.calib import SIDEREAL_DAY_S, lst_hours, utc_at_lst
from pulsepair.pairdetect import (ARCHIVE_COLUMNS, EventTable,
                                  FirstLevelFilterParams, form_pairs,
                                  write_csv, write_level1_archive)
from pulsepair.pipeline import (CANDIDATE_COLUMNS, STAGE_KEYS,
                                TAU_SCAN_COLUMNS,
                                ExperimentManifest, analyze_candidates,
                                consume_session, detect_frames,
                                load_frames_npz, manifest_from_file,
                                read_candidates_csv, refilter, run_experiment,
                                run_null_mc, run_tune_tau, save_frames_npz,
                                session_exposure, session_frames,
                                sha256_file, simulate_events, stack_frames,
                                write_analysis, write_candidates_csv,
                                write_figure)
from pulsepair.phasefilter import (PhaseMetricParams, second_level_filter,
                                   tune_tau_int, write_metric_diagnostics_csv)
from pulsepair.sigsim import (ObservationConfig, RfiSpec, SourceSpec,
                              simulate_frames, transit_index)
from pulsepair.skystats import bin_counts, bin_probabilities, peak_cohens_d

from helpers import (archive_events, detect_events, event_columns,
                     event_table, wide_band_params)
from test_golden import SURVEY_CFG
from test_pairdetect import event_bits, per_frame_reference


def _small_manifest(seed=0, n_transits=2):
    # events mode over a half-hour window: fast but non-trivial
    return ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
            polarization_tags=("LHCP", "RHCP"), seed=seed),
        filter=FirstLevelFilterParams(
            accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
            excision_low_hz=1445.0e6, excision_high_hz=1445.0e6),
        mode="events", n_transits=n_transits,
        window_lo_hr=5.0, window_hi_hr=5.5, ra_bin_hr=0.1)


def test_manifest_kv_roundtrip():
    m = ExperimentManifest(sources=[SourceSpec(
        name="x", ra_hr=5.0, dec_deg=-8.0, snr_db=45.0,
        pulse_rate_per_frame=0.01)])
    kv = m.to_kv()
    back = ExperimentManifest.from_kv(dict(kv))
    assert back == m
    assert back.to_kv() == kv
    assert back.sources[0].name == "x"
    assert back.phase.tau_search_low_s is None


def test_manifest_rejects_unknown_keys():
    kv = ExperimentManifest().to_kv()
    kv["run.bogus"] = "1"
    with pytest.raises(ValidationError, match="run.bogus"):
        ExperimentManifest.from_kv(kv)


def test_manifest_rejects_bad_value():
    kv = ExperimentManifest().to_kv()
    kv["config.seed"] = "not-a-number"
    with pytest.raises(ValidationError, match="config.seed"):
        ExperimentManifest.from_kv(kv)


def test_manifest_file_overrides(tmp_path):
    m = _small_manifest()
    path = tmp_path / "exp.cfg"
    with open(path, "w") as fh:
        fh.write("# comment\n\n")
        for k, v in sorted(m.to_kv().items()):
            fh.write(f"{k} = {v}\n")
    loaded = manifest_from_file(path, overrides={"config.seed": "9"})
    assert loaded.config.seed == 9
    assert loaded.window_lo_hr == 5.0


def test_stage_hashes_scope():
    a = _small_manifest(seed=0)
    b = _small_manifest(seed=0)
    b.phase = PhaseMetricParams(filter_halfwidth_rad=0.08)
    assert a.params_hash("simulate") == b.params_hash("simulate")
    assert a.params_hash("refilter") != b.params_hash("refilter")
    c = _small_manifest(seed=1)
    assert a.params_hash("simulate") != c.params_hash("simulate")


@pytest.mark.parametrize("key, value, n_seeds, threads, message, code", [
    ("run.mode", "burst", 1, 1, "unknown mode", 3),
    ("run.ra_bin_hr", "0.0", 1, 1, "ra_bin_hr must be > 0", 3),
    ("run.p_mode", "flat", 1, 1, "unknown p_mode", 3),
    ("run.n_transits", "0", 1, 1, "n_transits must be >= 1", 3),
    ("run.window_hi_hr", "5.45", 1, 1, "integer number of RA bins", 3),
    # --n-seeds and --threads are checked where the CLI parses them: usage
    # errors, whose message names the flag
    (None, None, 0, 1, "n.seeds.* >= 1", 1),
    (None, None, 1, 0, "threads", 1),
    # a float key must be finite: a nan slips through range checks such as
    # x <= 0, and a nan or inf used to fail later, or not at all
    ("config.frame_seconds", "nan", 1, 1, "frame_seconds'.*not finite", 3),
    ("config.frame_seconds", "inf", 1, 1, "frame_seconds'.*not finite", 3),
    ("run.ra_bin_hr", "nan", 1, 1, "ra_bin_hr'.*not finite", 3),
    ("phase.tau_search_step_s", "nan", 1, 1, "step_s'.*not finite", 3),
    ("phase.log_delta_f_low", "nan", 1, 1, "f_low'.*not finite", 3),
    ("config.baseline_m", "-nan", 1, 1, "baseline_m'.*not finite", 3),
], ids=["mode", "ra_bin_hr", "p_mode", "n_transits", "window", "n_seeds",
        "threads", "nan-frame_seconds", "inf-frame_seconds", "nan-ra_bin_hr",
        "nan-tau_search_step_s", "nan-log_delta_f_low", "nan-baseline_m"])
def test_a_broken_rule_is_a_validation_error(tmp_path, capsys, key, value,
                                             n_seeds, threads, message,
                                             code):
    kv = _small_manifest().to_kv()
    if key is not None:
        kv[key] = value
    with pytest.raises(ValidationError, match=message):
        run_null_mc(ExperimentManifest.from_kv(kv), n_seeds, threads=threads)
    cfg = tmp_path / "exp.cfg"
    write_kv_file(cfg, kv)
    out = tmp_path / "out"
    assert cli.main(["null-mc", "--config", str(cfg), "--out", str(out),
                     "--n-seeds", str(n_seeds),
                     "--threads", str(threads)]) == code
    assert re.search(message, capsys.readouterr().err)
    if key is not None:
        # every stage loads the config before it writes anything
        for stage in ("simulate", "refilter", "tune-tau"):
            assert cli.main([stage, "--config", str(cfg),
                             "--out", str(out)]) == 3
            assert re.search(message, capsys.readouterr().err)
    assert not out.exists()


def _full_manifest() -> ExperimentManifest:
    # every optional knob set, so each key below can be mutated in isolation
    return ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
            hop_seconds=0.52, baseline_m=30.0, latitude_deg=38.433,
            longitude_deg=-79.8398, dec_deg=-8.0, azimuth_deg=180.0,
            tau_int_true_s=0.0, polarization_tags=("LHCP", "RHCP"),
            beam_fwhm_ra_deg=9.0, seed=5),
        sources=[SourceSpec(
            name="x", ra_hr=5.25, dec_deg=-8.0, snr_db=45.0,
            pulse_rate_per_frame=0.0058, delta_f_low_hz=20.0,
            delta_f_high_hz=2000.0, delta_t_frames=0,
            polarization_tag="LHCP", transit_halfwidth_hr=2.0)],
        rfi=[RfiSpec(kind="narrowband_carrier", power_rel_noise=1.0e6,
                     rf_freq_hz=1445.3e6, sidelobe_delay_s=0.0,
                     duty_cycle=1.0)],
        phase=PhaseMetricParams(
            tau_int_s=0.0, filter_halfwidth_rad=0.04, log_delta_f_low=-5.1,
            log_delta_f_high=0.3, tau_search_low_s=-8e-9,
            tau_search_high_s=8e-9, tau_search_step_s=4e-9),
        filter=FirstLevelFilterParams(
            snr_threshold_db=8.5, accept_band_low_hz=1445.0e6,
            accept_band_high_hz=1446.0e6, excision_low_hz=1445.2e6,
            excision_high_hz=1445.4e6, bins_per_segment=256,
            segment_include_self=True),
        mode="events", n_transits=2, window_lo_hr=5.0, window_hi_hr=5.5,
        n_frames=4, start_utc_s=0.0, ra_bin_hr=0.1, p_mode="uniform",
        pairing_window_frames=0, require_pol_match=False,
        fwhm_center_hr=5.2, fwhm_width_hr=0.6, level1_in="a.csv", title="t")


# one valid single-key mutation per serialized field
_MUTATIONS = {
    "config.band_low_hz": "1444000000.0",
    "config.band_high_hz": "1447000000.0",
    "config.frame_seconds": "0.26",
    "config.hop_seconds": "1.04",
    "config.baseline_m": "31.0",
    "config.latitude_deg": "38.0",
    "config.longitude_deg": "-79.0",
    "config.dec_deg": "-7.0",
    "config.azimuth_deg": "179.0",
    "config.tau_int_true_s": "-1e-09",
    "config.polarization_tags": "LHCP",
    "config.beam_fwhm_ra_deg": "10.0",
    "config.seed": "6",
    "source.0.name": "y",
    "source.0.ra_hr": "5.3",
    "source.0.dec_deg": "-7.5",
    "source.0.snr_db": "46.0",
    "source.0.pulse_rate_per_frame": "0.006",
    "source.0.delta_f_low_hz": "30.0",
    "source.0.delta_f_high_hz": "3000.0",
    "source.0.delta_t_frames": "1",
    "source.0.polarization_tag": "RHCP",
    "source.0.transit_halfwidth_hr": "1.5",
    "rfi.0.kind": "broadband_flat",
    "rfi.0.power_rel_noise": "2000000.0",
    "rfi.0.rf_freq_hz": "1445400000.0",
    "rfi.0.sidelobe_delay_s": "1e-07",
    "rfi.0.duty_cycle": "0.5",
    "phase.tau_int_s": "1e-09",
    "phase.filter_halfwidth_rad": "0.05",
    "phase.log_delta_f_low": "-5.2",
    "phase.log_delta_f_high": "0.4",
    "phase.tau_search_low_s": "-9e-09",
    "phase.tau_search_high_s": "9e-09",
    "phase.tau_search_step_s": "2e-09",
    "filter.snr_threshold_db": "9.0",
    "filter.accept_band_low_hz": "1445100000.0",
    "filter.accept_band_high_hz": "1445900000.0",
    "filter.excision_low_hz": "1445100000.0",
    "filter.excision_high_hz": "1445500000.0",
    "filter.bins_per_segment": "128",
    "filter.segment_include_self": "false",
    "run.mode": "freq",
    "run.n_transits": "3",
    "run.window_lo_hr": "4.9",
    "run.window_hi_hr": "5.6",
    "run.n_frames": "8",
    "run.start_utc_s": "100000.0",
    "run.ra_bin_hr": "0.05",
    "run.p_mode": "exposure",
    "run.pairing_window_frames": "1",
    "run.require_pol_match": "true",
    "run.fwhm_center_hr": "5.3",
    "run.fwhm_width_hr": "0.7",
    "run.level1_in": "b.csv",
    "run.title": "t2",
}
# keys whose mutation stays valid only with another key's: a broadband_flat
# interferer has no carrier, so it takes no rf_freq_hz
_COMPANIONS = {"rfi.0.kind": {"rfi.0.rf_freq_hz": "0.0"}}


def _mutated(kv, key, value) -> dict:
    """kv with `key` set to `value`, and the keys that move with it."""
    return {**kv, key: value, **_COMPANIONS.get(key, {})}


def test_every_config_key_moves_a_stage_hash():
    def all_hashes(m):
        return (m.params_hash("simulate"), m.params_hash("refilter"),
                m.params_hash("analyze"), m.params_hash("report"))

    base = _full_manifest()
    kv = base.to_kv()
    base_hashes = all_hashes(base)
    # the table must track the schema exactly, so new fields fail loudly
    assert set(kv) == set(_MUTATIONS)
    for key, new_value in _MUTATIONS.items():
        assert kv[key] != new_value, f"{key}: mutation equals current value"
        mutated = _mutated(kv, key, new_value)
        assert all_hashes(ExperimentManifest.from_kv(mutated)) != base_hashes, key


def test_every_key_that_changes_refilter_moves_its_hash(tmp_path):
    # a resumed run skips refilter when its hash holds; on an external
    # archive, a key that changes refilter's bytes or counts unhashed would
    # serve stale candidates.  In events mode consume_session splits the
    # archive by transit, so with a pairing window a freq-mode rerun, read
    # as one table, pairs across transits.
    archive, candidates = tmp_path / "level1.csv", tmp_path / "candidates.csv"
    base = replace(_full_manifest(), level1_in=str(archive),
                   pairing_window_frames=1)
    dense = replace(base.filter, snr_threshold_db=7.0,
                    accept_band_high_hz=1445.1e6)
    write_level1_archive(archive, simulate_events(replace(
        base, config=replace(base.config, beam_fwhm_ra_deg=None), rfi=[],
        filter=dense, n_frames=None, level1_in=None)))

    def refiltered(m):
        return refilter(m, archive, candidates), candidates.read_bytes()

    ref = refiltered(base)
    kv = base.to_kv()
    mutations = {**_MUTATIONS, "run.pairing_window_frames": "0"}
    for key, value in mutations.items():
        m = ExperimentManifest.from_kv(_mutated(kv, key, value))
        if m.params_hash("refilter") == base.params_hash("refilter"):
            assert refiltered(m) == ref, key


def test_every_key_that_changes_analyze_or_report_moves_their_hash(tmp_path):
    # analyze and report are skipped on a resume when their hashes hold: a
    # key that moves stats.csv, report.txt or figure.svg unhashed would
    # serve stale output, and a hashed key that moves none of them would
    # redo the stages for nothing
    archive, candidates = tmp_path / "level1.csv", tmp_path / "candidates.csv"
    outputs = [tmp_path / name for name in ("stats.csv", "report.txt",
                                            "figure.svg")]
    # a 0.2 h beam band inside the 5.0-5.5 h window, so that each fwhm
    # mutation moves its clipped edges
    base = replace(_full_manifest(), level1_in=str(archive),
                   fwhm_width_hr=0.2)
    write_level1_archive(archive, simulate_events(replace(
        base, config=replace(base.config, beam_fwhm_ra_deg=None), rfi=[],
        n_frames=None, level1_in=None)))
    refilter(base, archive, candidates)

    def hashes(m):
        return m.params_hash("analyze"), m.params_hash("report")

    def outputs_of(m):
        write_analysis(m, candidates, archive, *outputs[:2])
        write_figure(m, outputs[0], outputs[2])
        return [path.read_bytes() for path in outputs]

    ref = outputs_of(base)
    assert b"peak.sigma" in outputs[1].read_bytes()
    kv = base.to_kv()
    for key, value in _MUTATIONS.items():
        m = ExperimentManifest.from_kv(_mutated(kv, key, value))
        try:
            moved = outputs_of(m) != ref
        except ValidationError:
            moved = True
        assert moved == (hashes(m) != hashes(base)), key


# simulate-stage keys that leave the level-1 bytes alone by construction
_INERT_IN_SIMULATE = {
    "source.0.name": "a label; it only names the source in messages",
    "run.level1_in": "an external archive replaces the simulate stage",
}
_INERT_IN_FRAME_MODES = dict.fromkeys(
    ("run.window_lo_hr", "run.window_hi_hr"),
    "bins the analysis; the frames start at run.start_utc_s")


def _tiny_manifest(mode) -> ExperimentManifest:
    """A session of the mode small enough to simulate once per key, in
    which every simulate-stage key can reach the level-1 bytes.

    The beam points 1 deg off due south, so latitude and declination reach
    the pointing RA.
    """
    full = replace(_full_manifest(), level1_in=None)
    config = replace(full.config, azimuth_deg=181.0, beam_fwhm_ra_deg=None)
    if mode == "events":
        # one 0.2 h transit, the source on for half of it
        return replace(full, config=config, rfi=[], n_transits=1,
                       n_frames=None, window_lo_hr=5.2, window_hi_hr=5.4,
                       sources=[replace(full.sources[0],
                                        transit_halfwidth_hr=0.05,
                                        pulse_rate_per_frame=0.5)])
    # 4 frames of 1,024 bins, 1.75 h past the source's transit, so that a
    # narrower emission window misses them; pair offsets of one or two bins,
    # so either delta_f bound moves some; a carrier outside the excised
    # band; and noise crossings all over the band at 5 dB
    return replace(
        full, mode=mode, n_transits=1, n_frames=4,
        config=replace(config, frame_seconds=0.001024, hop_seconds=0.001024),
        start_utc_s=utc_at_lst(7.0, config.longitude_deg),
        sources=[replace(full.sources[0], pulse_rate_per_frame=2.0,
                         delta_f_low_hz=1000.0)],
        rfi=[replace(full.rfi[0], rf_freq_hz=1445.6e6)],
        filter=replace(full.filter, snr_threshold_db=5.0))


@pytest.mark.parametrize("mode", ["events", "freq", "time"])
def test_every_simulate_key_changes_level1_bytes_or_is_rejected(tmp_path,
                                                                 mode):
    # a key that moves the simulate hash but not the archive would make a
    # config claim what the run did not do
    full = _full_manifest()
    full_kv = full.to_kv()
    simulate_keys = [
        key for key, value in _MUTATIONS.items()
        if ExperimentManifest.from_kv(_mutated(full_kv, key, value))
        .params_hash("simulate") != full.params_hash("simulate")]
    inert = dict(_INERT_IN_SIMULATE)
    if mode != "events":
        inert.update(_INERT_IN_FRAME_MODES)
    mutations = {**_MUTATIONS,
                 "run.mode": "time" if mode == "freq" else "freq"}
    path = tmp_path / "level1.csv"

    def level1(m):
        write_level1_archive(path, simulate_events(m))
        return path.read_bytes()

    base = _tiny_manifest(mode)
    kv = base.to_kv()
    ref = level1(base)
    for key in simulate_keys:
        assert kv.get(key) != mutations[key], key
        try:
            moved = level1(ExperimentManifest.from_kv(
                _mutated(kv, key, mutations[key]))) != ref
        except ValidationError:
            moved = True
        assert moved == (key not in inert), key


def test_run_experiment_artifacts(tmp_path):
    res = run_experiment(_small_manifest(), tmp_path)
    assert res.status == "ok"
    for name in ("level1.csv", "candidates.csv", "stats.csv", "report.txt",
                 "figure.svg", "manifest.txt"):
        assert (tmp_path / name).exists(), name
    record = read_kv_file(tmp_path / "manifest.txt")
    assert record["status"] == "ok"
    assert record["artifact.stats.csv"] == sha256_file(tmp_path / "stats.csv")
    assert res.n_events > 0
    assert res.n_survivors > 0
    assert res.analysis is not None and len(res.analysis.stats) == 5


def test_run_experiment_resume_and_invalidate(tmp_path):
    run_experiment(_small_manifest(), tmp_path)
    again = run_experiment(_small_manifest(), tmp_path)
    assert again.skipped == ["simulate", "refilter", "analyze", "report"]
    # a refilter parameter change must redo refilter but keep the simulation
    widened = _small_manifest()
    widened.phase = PhaseMetricParams(filter_halfwidth_rad=0.08)
    res = run_experiment(widened, tmp_path)
    assert res.skipped == ["simulate"]
    assert res.status == "ok"


def test_resumed_run_reports_cold_run_counts(tmp_path):
    cold = run_experiment(_small_manifest(), tmp_path)
    warm = run_experiment(_small_manifest(), tmp_path)
    assert "refilter" in warm.skipped
    assert cold.n_survivors > 0
    assert ((warm.n_events, warm.n_pairs, warm.n_survivors)
            == (cold.n_events, cold.n_pairs, cold.n_survivors))


def test_exposure_stats_follow_the_archive(tmp_path):
    run_experiment(_small_manifest(), tmp_path / "sim")
    archive = tmp_path / "level1.csv"
    shutil.copy(tmp_path / "sim" / "level1.csv", archive)
    m = _small_manifest()
    m.level1_in = str(archive)
    m.p_mode = "exposure"
    run_experiment(m, tmp_path / "run")
    candidates = sha256_file(tmp_path / "run" / "candidates.csv")
    stats = sha256_file(tmp_path / "run" / "stats.csv")
    # lone events in frames of their own form no pairs, so the candidates
    # stay the same while the exposure in the first RA bin grows
    write_level1_archive(archive, EventTable.concat([
        archive_events(archive),
        event_table(frame=10**6 + np.arange(500), rf=1445.0e6, ra=5.05)]))
    res = run_experiment(m, tmp_path / "run")
    assert sha256_file(tmp_path / "run" / "candidates.csv") == candidates
    assert "analyze" not in res.skipped
    assert sha256_file(tmp_path / "run" / "stats.csv") != stats


def test_resume_without_counts_redoes_refilter(tmp_path):
    cold = run_experiment(_small_manifest(), tmp_path)
    path = tmp_path / "manifest.txt"
    write_kv_file(path, {k: v for k, v in read_kv_file(path).items()
                         if not k.startswith("stage.refilter.n_")})
    warm = run_experiment(_small_manifest(), tmp_path)
    # the candidates come out the same, so analyze and report still resume
    assert warm.skipped == ["simulate", "analyze", "report"]
    assert ((warm.n_events, warm.n_pairs, warm.n_survivors)
            == (cold.n_events, cold.n_pairs, cold.n_survivors))


def test_run_experiment_writes_the_cli_chain_bytes(tmp_path):
    # some bin edges of the default window do not survive stats.csv's %.6g,
    # so a figure drawn from the in-memory stats would differ from the CLI's
    m = _small_manifest(n_transits=1)
    m.window_lo_hr, m.window_hi_hr = 3.25, 7.25
    run_experiment(m, tmp_path / "lib")
    cfg = str(tmp_path / "exp.cfg")
    write_kv_file(cfg, m.to_kv())
    for command in ("simulate", "refilter", "analyze", "report"):
        assert cli.main([command, "--config", cfg,
                         "--out", str(tmp_path / "cli")]) == 0
    for name in ("level1.csv", "candidates.csv", "stats.csv", "report.txt",
                 "figure.svg"):
        assert (sha256_file(tmp_path / "lib" / name)
                == sha256_file(tmp_path / "cli" / name)), name


def _hash_counts(monkeypatch):
    """A Counter of sha256_file calls by file name, from run_experiment
    (pipeline's name) and from the sidecar's key check (pairdetect's)."""
    calls, sha256 = Counter(), pairdetect.sha256_file

    def counted(path):
        calls[Path(path).name] += 1
        return sha256(path)

    monkeypatch.setattr(pairdetect, "sha256_file", counted)
    monkeypatch.setattr(pulsepair.pipeline, "sha256_file", counted)
    return calls


def _golden_survey(tmp_path):
    cfg = tmp_path / "survey.cfg"
    cfg.write_text(SURVEY_CFG)
    return manifest_from_file(cfg)


def test_run_experiment_hashes_each_file_once(tmp_path, monkeypatch):
    m, out = _golden_survey(tmp_path), tmp_path / "run"
    calls = _hash_counts(monkeypatch)
    run_experiment(m, out)
    # level1.csv once for the record, which refilter's inputs mark reuses,
    # and once more for its sidecar's key, as refilter reads it
    assert calls == {"level1.csv": 2, "candidates.csv": 1, "stats.csv": 1,
                     "report.txt": 1, "figure.svg": 1}
    calls.clear()
    assert run_experiment(m, out).skipped == [
        "simulate", "refilter", "analyze", "report"]
    assert calls == {"level1.csv": 1, "candidates.csv": 1, "stats.csv": 1,
                     "report.txt": 1, "figure.svg": 1}


def test_an_edited_candidates_file_is_hashed_again(tmp_path, monkeypatch):
    # the digest of the edited file is dropped once refilter rewrites it:
    # the record and analyze's inputs mark name the bytes on disk
    m, out = _golden_survey(tmp_path), tmp_path / "run"
    run_experiment(m, out)
    path = out / "candidates.csv"
    written = path.read_bytes()
    path.write_bytes(written[:written.rindex(b"\n", 0, -1) + 1])
    calls = _hash_counts(monkeypatch)
    assert run_experiment(m, out).skipped == ["simulate", "analyze", "report"]
    assert path.read_bytes() == written
    assert calls["candidates.csv"] == 2
    record = read_kv_file(out / "manifest.txt")
    digest = sha256_file(path)
    assert record["artifact.candidates.csv"] == digest
    assert record["stage.analyze.inputs"] == f"candidates.csv={digest}"
    # an edited candidates.csv recorded as refilter's output is analyze's
    # new input: refilter resumes and analyze runs on the edit
    path.write_bytes(written[:written.rindex(b"\n", 0, -1) + 1])
    record["artifact.candidates.csv"] = sha256_file(path)
    write_kv_file(out / "manifest.txt", record)
    calls.clear()
    res = run_experiment(m, out)
    assert res.skipped == ["simulate", "refilter"]
    assert calls["candidates.csv"] == 1
    assert res.analysis.n_trials == written.count(b"\n") - 2
    record = read_kv_file(out / "manifest.txt")
    assert record["stage.analyze.inputs"] == (
        f"candidates.csv={sha256_file(path)}")


def test_run_experiment_external_archive_missing(tmp_path):
    m = _small_manifest()
    assert run_experiment(m, tmp_path).status == "ok"
    m.level1_in = str(tmp_path / "nope.csv")
    with pytest.raises(ValidationError):
        run_experiment(m, tmp_path)
    # the failure replaces the good run's record
    record = read_kv_file(tmp_path / "manifest.txt")
    assert record["status"] == "failed:simulate"
    assert record["run.level1_in"] == m.level1_in


def test_run_experiment_corrupt_archive_fails_refilter(tmp_path):
    m = _small_manifest()
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,valid,archive\n1,2,3,4\n")
    m.level1_in = str(bad)
    with pytest.raises(ValidationError):
        run_experiment(m, tmp_path)
    record = read_kv_file(tmp_path / "manifest.txt")
    assert record["status"] == "failed:refilter"


def test_run_experiment_io_failure_is_a_stage_error(tmp_path):
    # an OSError in a stage is no validation error: it names the stage
    (tmp_path / "figure.svg").mkdir()
    with pytest.raises(StageError) as info:
        run_experiment(_small_manifest(), tmp_path)
    assert info.value.stage == "report"
    record = read_kv_file(tmp_path / "manifest.txt")
    assert record["status"] == "failed:report"
    assert "figure.svg" in record["error"]


def test_candidates_csv_reader(tmp_path):
    res = run_experiment(_small_manifest(), tmp_path)
    cols = read_candidates_csv(tmp_path / "candidates.csv")
    assert list(cols) == list(CANDIDATE_COLUMNS)
    assert {len(c) for c in cols.values()} == {res.n_survivors}
    assert cols["frame_a"].dtype == np.int64
    assert set(cols["polarization_a"].tolist()) <= {"LHCP", "RHCP"}
    phase = PhaseMetricParams()
    assert (np.abs(cols["phase_metric_rad"])
            <= phase.filter_halfwidth_rad).all()
    assert ((phase.log_delta_f_low <= cols["log10_delta_f_mhz"])
            & (cols["log10_delta_f_mhz"] <= phase.log_delta_f_high)).all()
    assert ((5.0 <= cols["ra_pointing_hr"])
            & (cols["ra_pointing_hr"] < 5.5)).all()
    assert (cols["utc_b_s"] >= cols["utc_a_s"]).all()


def test_candidates_csv_reader_errors(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("wrong,header\n")
    with pytest.raises(ArchiveFormatError):
        read_candidates_csv(path)
    path.write_text(",".join(CANDIDATE_COLUMNS) + "\n1,2,3\n")
    with pytest.raises(ArchiveFormatError) as err:
        read_candidates_csv(path)
    assert err.value.line_no == 2
    # an integer beyond int64 is rejected at its line
    good = "1.0,2.0,3,4,5,6,7.0,8.0,LHCP,RHCP,1.0,8.0,-5.0,0.01,5.1"
    path.write_text("\n".join([",".join(CANDIDATE_COLUMNS), good,
                               good.replace(",3,", "," + "9" * 20 + ",", 1)])
                    + "\n")
    with pytest.raises(ArchiveFormatError) as err:
        read_candidates_csv(path)
    assert err.value.line_no == 3


def test_run_null_mc_deterministic():
    m = _small_manifest(seed=40)
    rows_a, frac_a = run_null_mc(m, 3)
    rows_b, frac_b = run_null_mc(m, 3)
    assert rows_a == rows_b and frac_a == frac_b
    assert [r[0] for r in rows_a] == [40, 41, 42]
    assert all(r[1] > 0 for r in rows_a)
    m.mode = "freq"
    m.n_frames = 4
    with pytest.raises(ValidationError):
        run_null_mc(m, 1)


def test_run_null_mc_same_rows_at_any_thread_count():
    m = _small_manifest(seed=40)
    serial = run_null_mc(m, 3)
    for threads in (2, 3, 8):
        assert run_null_mc(m, 3, threads=threads) == serial


def test_run_null_mc_threads_run_seeds_not_transits(monkeypatch):
    # transits of one seed are never sampled in parallel: one seed runs on
    # the calling thread, and several share a pool of seeds
    def no_transit_pool(*args, **kwargs):
        raise AssertionError("transit pool started")

    pools = []

    def seed_pool(threads):
        pools.append(threads)
        return ThreadPoolExecutor(max_workers=threads)

    # pairdetect.thread_pool, the package's one pool helper, looks the
    # class up each time it starts a pool
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        no_transit_pool)
    monkeypatch.setattr(pulsepair.pipeline, "thread_pool", seed_pool)
    rows, _ = run_null_mc(_small_manifest(), 1, threads=2)
    assert len(rows) == 1 and pools == []
    rows, _ = run_null_mc(_small_manifest(), 3, threads=4)
    assert [r[0] for r in rows] == [0, 1, 2] and pools == [3]


def test_run_null_mc_takes_no_per_pair_log10(monkeypatch):
    # math.log10 runs only for the pairs whose |delta_f| lies within a
    # relative 1e-9 of a window edge, not once per pair
    m = _small_manifest()
    null = EventTable.concat(simulate_events(replace(m, sources=[])))
    pairs = form_pairs(null, m.pairing_window_frames, m.require_pol_match)
    mhz = np.abs(pairs.delta_f_hz) / 1e6
    edges = 10.0 ** np.array([m.phase.log_delta_f_low,
                              m.phase.log_delta_f_high])
    near = np.count_nonzero(np.abs(mhz[:, None] - edges) <= 1e-9 * edges)
    assert np.count_nonzero(mhz) > 1000
    calls = []
    log10 = math.log10

    def counted(x):
        calls.append(x)
        return log10(x)

    monkeypatch.setattr(math, "log10", counted)
    run_null_mc(m, 1)
    assert len(calls) <= near


def test_run_tune_tau(tmp_path):
    m = _small_manifest()
    run_experiment(m, tmp_path)
    m.phase = PhaseMetricParams(tau_search_low_s=-8e-9,
                                tau_search_high_s=8e-9,
                                tau_search_step_s=4e-9)
    best_tau, best_stat, taus, stats = run_tune_tau(
        m, tmp_path / "level1.csv")
    assert taus.size == 5 and stats.size == 5
    assert best_tau in taus
    assert best_stat == np.max(stats)
    scan_path = tmp_path / "tau_scan.csv"
    write_csv(scan_path, TAU_SCAN_COLUMNS, [taus, stats])
    lines = scan_path.read_text().splitlines()
    assert lines[0] == "tau_int_s,peak_cohens_d"
    assert len(lines) == 6


@pytest.mark.parametrize("p_mode", ["uniform", "exposure"])
def test_run_tune_tau_reads_the_archive_once(tmp_path, monkeypatch, p_mode):
    m = _small_manifest()
    run_experiment(m, tmp_path)
    m = replace(m, p_mode=p_mode, phase=PhaseMetricParams(
        tau_search_low_s=-8e-9, tau_search_high_s=8e-9,
        tau_search_step_s=4e-9))
    path = tmp_path / "level1.csv"
    # the exposure read in a pass of its own, then the pairs
    edges = m.bin_edges()
    exposure, tables = session_exposure(m, consume_session(m, path, list))
    for events in tables:
        pass
    assert (exposure is None) == (p_mode == "uniform")
    want = tune_tau_int(
        (form_pairs(events, m.pairing_window_frames, m.require_pol_match)
         for events in consume_session(m, path, list)),
        m.phase, edges, bin_probabilities(edges, p_mode, exposure))
    hashed = []
    sha256 = pairdetect.sha256_file

    def counted(name):
        hashed.append(name)
        return sha256(name)

    monkeypatch.setattr(pairdetect, "sha256_file", counted)
    got = run_tune_tau(m, path)
    assert hashed == [path]
    assert got[:2] == want[:2]
    assert np.array_equal(got[2], want[2]) and np.array_equal(got[3], want[3])


def _wide_manifest(band_mhz, window_hr, **kwargs):
    """_small_manifest over a wider band and window: more events."""
    m = _small_manifest(**kwargs)
    top = 1445.0e6 + band_mhz * 1.0e6
    m.config = replace(m.config, band_high_hz=top)
    m.filter = replace(m.filter, accept_band_high_hz=top)
    m.window_hi_hr = m.window_lo_hr + window_hr
    m.phase = PhaseMetricParams(tau_search_low_s=-5e-9,
                                tau_search_high_s=5e-9,
                                tau_search_step_s=1e-9)
    return m


def _transits(m, events):
    """events' rows of each transit of m's session, a table each, in table
    order (sigsim.transit_index, independent of the reader)."""
    transit = transit_index(events.utc_s, m.config, m.window_lo_hr,
                            m.window_hi_hr, m.start_utc_s)
    return [events.take(np.flatnonzero(transit == t))
            for t in range(m.n_transits)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_no_pair_joins_two_transits(tmp_path, k):
    # 3,452 frames a transit, not a multiple of 2K + 1: a frame block spans
    # the gap between the transits unless each transit pairs on its own
    m = _wide_manifest(4, 0.5, seed=3)
    m.pairing_window_frames = k
    path = tmp_path / "level1.csv"
    write_level1_archive(path, simulate_events(m))
    events = archive_events(path)
    hop = m.config.hop_seconds
    n_frames = round(0.5 / 24.0 * SIDEREAL_DAY_S / hop)
    assert n_frames == 3452 and n_frames % (2 * k + 1)
    # the transit of every archived event, its first frames' utc_s rounded
    assert np.array_equal(transit_index(events.utc_s, m.config, 5.0, 5.5),
                          events.frame_index // n_frames)
    assert (form_pairs(events, k).delta_t_s > (2 * k + 1) * hop).any()
    transits = consume_session(m, path, list)
    assert len(transits) == 2
    for events in transits:
        pairs = form_pairs(events, m.pairing_window_frames,
                           m.require_pol_match)
        assert pairs.delta_t_s.max() <= (2 * k + 1) * hop


@pytest.mark.parametrize("n_transits", [1, 3])
def test_every_sampled_part_is_one_transit(n_transits):
    # null-mc pairs each sampled part (a pair chunk) on its own, never
    # reading a transit; this session's transits are a chunk each
    m = _small_manifest(n_transits=n_transits)
    parts = list(simulate_events(m))
    assert len(parts) == n_transits
    for i, events in enumerate(parts):
        transit = transit_index(events.utc_s, m.config, m.window_lo_hr,
                                m.window_hi_hr, m.start_utc_s)
        assert len(events) > 0 and (transit == i).all()


# the archive's text format of each float column (write_level1_archive)
_ARCHIVE_FLOATS = {name: conv for name, conv in ARCHIVE_COLUMNS.items()
                   if conv[-1] in "fg"}


def _assert_cut_alike(m, path):
    """simulate_events(m) and consume_session of its archive at path give
    the same chunks of the same events, but for the archive's text
    rounding.  A frame-mode session is one table, cut by chunk_events."""
    sampled = list(simulate_events(m))
    if m.mode != "events":
        (table,) = sampled
        sampled = list(pairdetect.chunk_events(table, None,
                                               m.pairing_window_frames))
    read = consume_session(m, path, list)
    assert len(sampled) == len(read)
    for got, want in zip(sampled, read):
        assert len(got) == len(want)
        for name in ("frame_index", "bin_index", "pol_code"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name, fmt in _ARCHIVE_FLOATS.items():
            rounded = [float(fmt % v) for v in getattr(got, name).tolist()]
            assert getattr(want, name).tolist() == rounded
    return len(read)


@pytest.mark.parametrize("mode, k", [
    ("events", 0), ("events", 1), ("freq", 0), ("freq", 2)],
    ids=["0", "1", "freq-0", "freq-2"])
def test_a_sampled_session_is_cut_as_its_archive_is(tmp_path, monkeypatch,
                                                    mode, k):
    # null-mc pairs simulate_events' chunks, refilter consume_session's;
    # the sampler cuts its own, with no chunk_events pass.  A frame-mode
    # session is one table: 512 two-tag rows at 2 dB, 22,217 events, read
    # back in two chunks, cut as chunk_events cuts the table
    m = _small_manifest()
    if mode == "freq":
        m = _two_tag_frames_manifest(0.001024, 256)
        m.filter = replace(m.filter, snr_threshold_db=2.0)
    m.pairing_window_frames = k
    path = tmp_path / "level1.csv"
    write_level1_archive(path, simulate_events(m))
    if mode == "events":
        monkeypatch.setattr(pairdetect, "chunk_events", None)
    assert _assert_cut_alike(m, path) == 2


def test_the_archive_does_not_depend_on_the_pairing_window(tmp_path):
    # simulate writes the same level1.csv and sidecar from the sampler's
    # pair chunks at K = 0 and at K = 3, eight or more parts
    # (run.pairing_window_frames is not among its keys)
    m = _wide_manifest(1, 0.3)
    m.filter = replace(m.filter, snr_threshold_db=7.0)
    m.sources = [SourceSpec(name="s", ra_hr=5.25, dec_deg=-8.0, snr_db=30.0,
                            pulse_rate_per_frame=0.05,
                            transit_halfwidth_hr=0.1,
                            polarization_tag="RHCP")]
    assert "run.pairing_window_frames" not in STAGE_KEYS["simulate"]
    k3 = replace(m, pairing_window_frames=3)
    assert len(list(simulate_events(k3))) >= 8
    files = []
    for mk in (replace(m, pairing_window_frames=0), k3):
        path = tmp_path / f"k{mk.pairing_window_frames}" / "level1.csv"
        path.parent.mkdir()
        write_level1_archive(path, simulate_events(mk))
        files.append((path.read_bytes(),
                      Path(f"{path}.cols").read_bytes()))
    assert files[0] == files[1]


@pytest.fixture(scope="module")
def season(tmp_path_factory):
    """A 2-transit archive of 211,142 events: 14 pair chunks at K = 0."""
    out = tmp_path_factory.mktemp("season")
    m = _wide_manifest(6, 4.0)
    write_level1_archive(out / "level1.csv", simulate_events(m))
    return m, out / "level1.csv"


def test_a_sampled_season_is_cut_as_its_archive_is(season):
    # transits of several chunks each: the cuts inside a transit agree too
    m, path = season
    assert _assert_cut_alike(m, path) == 14


@pytest.mark.parametrize("k, pol_match", [(0, False), (1, True), (3, False)])
def test_chunked_stages_match_the_whole_table(season, tmp_path, k,
                                              pol_match):
    m, path = season
    m = replace(m, pairing_window_frames=k, require_pol_match=pol_match)
    events = archive_events(path)
    assert len(events) >= 4 * pairdetect._CHUNK_ROWS
    # the reference pairs each transit's table whole
    pairs = [form_pairs(t, k, pol_match) for t in _transits(m, events)]
    n_pairs = n_survivors = 0
    for i, transit_pairs in enumerate(pairs):
        survivors, verdicts = second_level_filter(transit_pairs, m.phase,
                                                  explain=True)
        write_candidates_csv(tmp_path / "want.csv", survivors, i > 0)
        write_metric_diagnostics_csv(tmp_path / "want_diag.csv",
                                     transit_pairs, verdicts, i > 0)
        n_pairs += len(transit_pairs)
        n_survivors += len(survivors)
    assert refilter(m, path, tmp_path / "got.csv", tmp_path / "got_diag.csv"
                    ) == (len(events), n_pairs, n_survivors)
    for name in ("", "_diag"):
        assert ((tmp_path / f"got{name}.csv").read_bytes()
                == (tmp_path / f"want{name}.csv").read_bytes())
    edges = m.bin_edges()
    exposure = bin_counts(events.ra_pointing_hr, edges)
    for p_mode in ("uniform", "exposure"):
        want = tune_tau_int(pairs, m.phase, edges,
                            bin_probabilities(edges, p_mode, exposure))
        got = run_tune_tau(replace(m, p_mode=p_mode), path)
        assert got[:2] == want[:2]
        assert (np.array_equal(got[3], want[3])
                and np.array_equal(got[2], want[2]))
    # null-mc samples the session afresh: the same events, sources and all
    null = EventTable.concat(simulate_events(m))
    trials = sum(bin_counts(second_level_filter(
        form_pairs(t, k, pol_match), m.phase).ra_pointing_hr, edges)
        for t in _transits(m, null))
    max_d, peak = peak_cohens_d(trials, bin_probabilities(edges))
    assert run_null_mc(m, 1)[0] == [(m.config.seed, trials.sum(), max_d,
                                     float(edges[peak]))]


def test_refilter_writes_its_survivors_in_few_batches(season, tmp_path,
                                                       monkeypatch):
    # one write for the season's survivors, not one a chunk; with fewer
    # held before a write, several writes of the same bytes
    m, path = season
    writes = []
    write = pulsepair.pipeline.write_candidates_csv

    def counted(path, columns, append):
        writes.append(len(columns[0]))
        write(path, columns, append)

    monkeypatch.setattr(pulsepair.pipeline, "write_candidates_csv", counted)
    want = refilter(m, path, tmp_path / "want.csv")
    assert writes == [want[2]]
    writes.clear()
    monkeypatch.setattr(pulsepair.pipeline, "_HELD_CANDIDATES", 100)
    assert refilter(m, path, tmp_path / "got.csv") == want
    assert len(writes) > 2 and min(writes[:-1]) >= 100
    assert sum(writes) == want[2]
    assert ((tmp_path / "got.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_refilter_analyze_and_tune_tau_hold_one_chunk(season, tmp_path):
    # the reader yields pair chunks of ~_CHUNK_ROWS events, and each stage
    # peaks at 1.6-1.9 times one chunk's columns: one that still holds the
    # last chunk while it reads the next peaks at ~2.25, and one that holds
    # a whole transit (~6.4 chunks) or its pairs higher still
    m, path = season
    chunk_bytes = 8 * len(pairdetect.EVENT_COLUMNS) * pairdetect._CHUNK_ROWS
    candidates = tmp_path / "candidates.csv"
    exposure = replace(m, p_mode="exposure")
    for stage in (lambda: refilter(m, path, candidates),
                  lambda: analyze_candidates(exposure, candidates, path),
                  lambda: run_tune_tau(m, path),
                  lambda: run_tune_tau(exposure, path)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * chunk_bytes


def test_chunked_stages_drop_each_table_before_the_next(season, tmp_path,
                                                        monkeypatch):
    # a name still bound to the last chunk (or transit) while the next is
    # read keeps two alive at once, even where the peak above misses it
    m, path = season
    live = []

    def tracked(source):
        def tables(*args, **kwargs):
            parts, refs = iter(source(*args, **kwargs)), []
            while True:
                live.append(sum(ref() is not None for ref in refs))
                table = next(parts, None)
                if table is None:
                    return
                refs.append(weakref.ref(table))
                yield table
                del table
        return tables

    for module, name in ((pairdetect, "read_level1_archive"),
                         (pulsepair.pipeline, "simulate_events")):
        monkeypatch.setattr(module, name, tracked(getattr(module, name)))
    candidates = tmp_path / "candidates.csv"
    exposure = replace(m, p_mode="exposure")
    for stage in (lambda: refilter(m, path, candidates),
                  lambda: analyze_candidates(exposure, candidates, path),
                  lambda: run_tune_tau(m, path),
                  lambda: run_tune_tau(exposure, path),
                  lambda: run_null_mc(exposure, 1)):
        live.clear()
        stage()
        assert len(live) > 2 and not any(live)


def _noise_frames(n_frames, n_bins, tags, seed, low_hz=1445.0e6):
    """Frames of unit complex noise over 1 kHz bins from low_hz, tags minor,
    as simulate_frames yields them (one rf array for all)."""
    rng = np.random.default_rng(seed)
    rf = low_hz + np.arange(n_bins) * 1.0e3
    return [(i, i * 0.25, tag, *(rng.standard_normal(n_bins)
                                 + 1j * rng.standard_normal(n_bins)
                                 for _ in range(2)), rf)
            for i in range(n_frames) for tag in tags]


def _noise_params(n_bins):
    return FirstLevelFilterParams(
        snr_threshold_db=5.0, accept_band_low_hz=1445.0e6,
        accept_band_high_hz=1445.0e6 + n_bins * 1.0e3,
        excision_low_hz=1445.0e6, excision_high_hz=1445.0e6)


def test_detect_frames_blocks_are_the_per_frame_filter(monkeypatch):
    # three stores: 70 two-tag frames of 1,024 bins are 140 rows, blocks of
    # 64, 64 and 12 rows, so both tags run across each block edge; three
    # more frames of 1,024 bins 2 kHz higher, one block; and two frames
    # wider than _BLOCK_BINS, a block each.  Every block is a view of its
    # store's rows
    assert pulsepair.pipeline._BLOCK_BINS == 64 * 1024
    sessions = [_noise_frames(70, 1024, ("RHCP", "LHCP"), 3),
                _noise_frames(3, 1024, ("RHCP", "LHCP"), 7, 1445.002e6),
                _noise_frames(2, 70_000, ("LHCP",), 4)]
    config = ObservationConfig()
    params = _noise_params(70_000)
    blocks, score = [], pulsepair.pipeline.first_level_filter_frames

    def counted(frame_index, utc_s, tags, east, west, *args):
        blocks.append(len(frame_index))
        assert all(map(np.shares_memory, (east, west), store[3:5]))
        assert np.shares_memory(tags, store[2])
        return score(frame_index, utc_s, tags, east, west, *args)

    monkeypatch.setattr(pulsepair.pipeline, "first_level_filter_frames",
                        counted)
    got = []
    for frames in sessions:
        store = stack_frames(frames)
        got.append(detect_frames(config, params, store))
    assert blocks == [64, 64, 12, 6, 1, 1]
    got = EventTable.concat(got)
    want = EventTable.concat([
        per_frame_reference([i], [utc], [tag], [east], [west], rf, params, [
            float(config.pointing_ra(lst_hours(utc, config.longitude_deg)))])
        for frames in sessions
        for i, utc, tag, east, west, rf in frames])
    assert event_bits(got) == event_bits(want)
    assert got.tags == ("LHCP", "RHCP") and len(got) > 100


@pytest.mark.parametrize("short", [3, 4, 5])
def test_stack_frames_names_the_frame_of_mismatched_lengths(short):
    # frame 2 (its LHCP row) has one member 24 bins short: the error names
    # it, not the first frame of the store
    frames = _noise_frames(4, 1024, ("RHCP", "LHCP"), 5)
    row = list(frames[5])
    row[short] = row[short][:1000]
    frames[5] = tuple(row)
    lengths = [1000 if member == short else 1024 for member in (3, 4, 5)]
    with pytest.raises(ValidationError, match=re.escape(
            "frame 2: element/frequency lengths differ "
            f"({lengths[0]}, {lengths[1]}, {lengths[2]})")):
        stack_frames(frames)


@pytest.mark.parametrize("n_frames, n_bins, blocks", [
    (256, 1024, 2.5), (1, 250_000, 2.5)])
def test_detect_frames_holds_one_block_beside_the_store(tmp_path, n_frames,
                                                        n_bins, blocks):
    # in units of one block's complex spectrum: the load holds the store,
    # and each block's rows are views of it, so beside it only the two
    # elements' power and masks (about 1.7) and the inflate's buffers
    # stand.  Scoring the 256-frame store at once would take ~15, and a
    # copy of each block ~3.6
    frames = _noise_frames(n_frames, n_bins, ("LHCP",), 6)
    path = tmp_path / "frames.npz"
    save_frames_npz(path, stack_frames(frames))
    store = sum(frame[3].nbytes + frame[4].nbytes for frame in frames)
    del frames
    block = 16 * max(64 * 1024, n_bins)     # bytes of a block's spectrum
    tracemalloc.start()
    try:
        events = detect_frames(ObservationConfig(), _noise_params(n_bins),
                               load_frames_npz(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 0
    assert peak < store + blocks * block


def test_frame_store_members_are_read_once(tmp_path, monkeypatch):
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=("LHCP",), seed=5)
    params = wide_band_params(snr_threshold_db=5.0)
    path = tmp_path / "frames.npz"
    save_frames_npz(path, stack_frames(simulate_frames(config, n_frames=16)))
    reads = Counter()
    getitem = np.lib.npyio.NpzFile.__getitem__

    def counting_getitem(self, key):
        reads[key] += 1
        return getitem(self, key)

    monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                        counting_getitem)
    events = detect_frames(config, params, load_frames_npz(path))
    assert reads == {name: 1 for name in (
        "frame_index", "utc_s", "polarization_tag", "east", "west",
        "rf_freqs_hz")}
    assert len(events) > 0
    assert event_columns(events) == event_columns(
        detect_events(config, (), (), 16, params))


def _assert_rows(store, frames):
    """The store holds frames (simulate_frames' tuples) a row each, with
    the dtypes stack_frames gives them."""
    index, utc, pols, east, west, rf = store
    assert [a.dtype.kind for a in store] == ["i", "f", "U", "c", "c", "f"]
    assert len(frames) == index.size
    assert [type(tag) for tag in pols.tolist()] == [str] * index.size
    for row, (i, t, tag, e, w, frame_rf) in enumerate(frames):
        assert (index[row], utc[row], pols[row]) == (i, t, tag)
        for got, want in ((east[row], e), (west[row], w), (rf, frame_rf)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_simulated_frames_match_the_frame_store(tmp_path):
    # load_frames_npz reads back the store of simulate_frames' tuples
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=("LHCP", "RHCP"), seed=5)
    for mode in ("freq", "time"):
        path = tmp_path / f"{mode}.npz"
        made = list(simulate_frames(config, n_frames=3, mode=mode))
        assert len(made) == 6
        save_frames_npz(path, stack_frames(made))
        _assert_rows(load_frames_npz(path), made)


def test_frame_store_keeps_the_frames_rf(tmp_path):
    # the store holds the rf the frames carry, and refuses frames that
    # disagree on it
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=("LHCP",), seed=5)
    made = list(simulate_frames(config, n_frames=2))
    shifted = [frame[:5] + (frame[5] + 1.0e3,) for frame in made]
    path = tmp_path / "frames.npz"
    save_frames_npz(path, stack_frames(shifted))
    *_, rf = load_frames_npz(path)
    assert np.array_equal(rf, config.rf_freqs() + 1.0e3)
    with pytest.raises(ValidationError, match="rf_freqs_hz"):
        save_frames_npz(tmp_path / "mixed.npz",
                        stack_frames([made[0], shifted[1]]))
    assert not (tmp_path / "mixed.npz").exists()


def test_stack_frames_needs_a_frame():
    with pytest.raises(ValidationError, match="no frames"):
        stack_frames(iter(()))


def _numpy_store(save, path, frames):
    """Write frames as np.savez_compressed (or np.savez) would store the six
    members; give the file's bytes."""
    index, utc, pols, east, west, rfs = zip(*frames)
    save(path, frame_index=np.asarray(index, dtype=np.int64),
         utc_s=np.asarray(utc, dtype=float), polarization_tag=np.asarray(pols),
         east=np.asarray(east), west=np.asarray(west), rf_freqs_hz=rfs[0])
    return path.read_bytes()


@pytest.mark.parametrize("mode, tags, n_frames", [
    ("freq", ("LHCP",), 1), ("freq", ("LHCP", "RHCP"), 3),
    ("time", ("LHCP",), 3), ("time", ("LHCP", "RHCP"), 1)])
def test_frame_store_is_savez_compressed_byte_for_byte(tmp_path, mode, tags,
                                                       n_frames):
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=tags, seed=5)
    frames = list(simulate_frames(config, n_frames=n_frames, mode=mode))
    save_frames_npz(tmp_path / "store.npz", stack_frames(frames))
    assert (tmp_path / "store.npz").read_bytes() == _numpy_store(
        np.savez_compressed, tmp_path / "numpy.npz", frames)


def test_frame_store_member_past_numpys_write_chunk(tmp_path):
    # np.savez_compressed hands a member to the deflater 16 MiB at a time,
    # save_frames_npz 1 MiB at a time: the bytes agree only because
    # deflate's output does not depend on how its input is split.  Spectra
    # of a few distinct values deflate fast.
    rng = np.random.default_rng(3)
    n_channels = 1_100_000
    rf = 1.4e9 + np.arange(n_channels, dtype=float)
    east, west = (rng.integers(-4, 4, n_channels)
                  + 1j * rng.integers(-4, 4, n_channels) for _ in range(2))
    assert east.nbytes > 16 * 2 ** 20
    frames = [(0, 0.0, "LHCP", east, west, rf)]
    save_frames_npz(tmp_path / "store.npz", stack_frames(frames))
    assert (tmp_path / "store.npz").read_bytes() == _numpy_store(
        np.savez_compressed, tmp_path / "numpy.npz", frames)


@pytest.mark.parametrize("save", [np.savez_compressed, np.savez],
                         ids=["savez_compressed", "savez"])
def test_frame_store_reads_numpy_stores(tmp_path, save):
    # stores in older run directories, and stores written without deflate
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=("LHCP", "RHCP"), seed=5)
    made = list(simulate_frames(config, n_frames=2))
    assert len(made) == 4
    _numpy_store(save, tmp_path / "frames.npz", made)
    _assert_rows(load_frames_npz(tmp_path / "frames.npz"), made)


def _two_tag_frames_manifest(frame_seconds, n_frames):
    # a 1 MHz band of two tags, RHCP first, at a 5 dB threshold
    return ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6,
            frame_seconds=frame_seconds, polarization_tags=("RHCP", "LHCP"),
            seed=8),
        filter=FirstLevelFilterParams(
            snr_threshold_db=5.0, accept_band_low_hz=1445.0e6,
            accept_band_high_hz=1446.0e6, excision_low_hz=1445.0e6,
            excision_high_hz=1445.0e6),
        mode="freq", n_frames=n_frames)


@pytest.mark.parametrize("frame_seconds, n_frames", [
    (0.001024, 40), (0.07, 2)], ids=["1024-bins", "70000-bins"])
def test_simulate_events_is_the_detected_frame_store(tmp_path, frame_seconds,
                                                     n_frames):
    # the in-memory frame session, stacked and detected a block at a time,
    # is the detect stage of its saved store: at 1,024 bins 80 rows are
    # blocks of 64 and 16 with both tags across the edge; at 70,000 bins
    # each row is a block
    m = _two_tag_frames_manifest(frame_seconds, n_frames)
    path = tmp_path / "frames.npz"
    save_frames_npz(path, stack_frames(session_frames(m)))
    (got,) = simulate_events(m)
    want = detect_frames(m.config, m.filter, load_frames_npz(path))
    assert event_bits(got) == event_bits(want)
    assert got.tags == ("LHCP", "RHCP") and len(got) > 10


def test_simulate_events_holds_a_block_not_the_frame_session():
    # 256 two-tag frames of 1,024 bins: 512 rows, 8 blocks.  In units of
    # one block's complex spectrum the session's spectra take 16, and
    # stacking and scoring them whole ~32; the stage peaks (~4.7) while it
    # stacks a block's frames, which it then drops for the scorer's power
    # and masks
    m = _two_tag_frames_manifest(0.001024, 256)
    block = 16 * 64 * 1024
    tracemalloc.start()
    try:
        (events,) = simulate_events(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) > 0
    assert peak < 6 * block


def test_every_stage_key_names_a_manifest_key():
    # a prefix that matches no key (a typo, a renamed field) hashes nothing
    keys = _full_manifest().to_kv()
    for stage, prefixes in STAGE_KEYS.items():
        for prefix in prefixes:
            assert any(key.startswith(prefix) for key in keys), (stage, prefix)


def test_stage_hashes_are_frozen():
    # frozen from an earlier schema implementation, so manifest.txt files
    # written by it keep resuming; the analyze hash moved when run.per_day
    # left the schema and the simulate hash when the segment keys moved
    # from config.* to filter.*, and again when config.noise_floor,
    # source.N.emission_window_hr and rfi.N.direction left it, and again
    # when config.phase_sign left it (one convention, fringe_phase), and the
    # refilter hash when it took in the keys that fix each event's transit,
    # so such a run redoes that stage once
    m = _full_manifest()
    assert m.params_hash("simulate") == (
        "e17bb58f6825f32b9cf667827a6e5f95ee78dbb9bbcdede2cbc6836c76b0e1b5")
    assert m.params_hash("refilter") == (
        "8d3af3a69e63cf4170c857d72c50ded055ca0ed1f86fd8565ef65838204c51d0")
    assert m.params_hash("analyze") == (
        "6847be0a021f6b43a8135fc296130fdd61f77bb81bf5ef9aee809d62720b6295")
    assert m.params_hash("report") == (
        "419caca7ab3cce17ff2a253196f853d1e41b45db554b609901a89be4a4a28952")


def test_frame_mode_simulation_needs_n_frames():
    # run.level1_in lifts the manifest's own n_frames check, but a library
    # caller may still simulate such a manifest
    with pytest.raises(ValidationError, match="run.n_frames"):
        simulate_events(ExperimentManifest(mode="freq", level1_in="a.csv"))


def test_manifest_values_parse_by_field_type():
    kv = _full_manifest().to_kv()
    kv.update({"config.hop_seconds": "none", "run.n_frames": "none",
               "config.polarization_tags": " RHCP, LHCP ,",
               "run.require_pol_match": "Yes",
               "source.0.name": "none-like"})
    m = ExperimentManifest.from_kv(kv)
    assert m.config.hop_seconds == m.config.frame_seconds   # gapless
    assert m.n_frames is None and m.require_pol_match is True
    assert m.config.polarization_tags == ("RHCP", "LHCP")
    assert m.sources[0].name == "none-like"
    for key in ("config.seed", "run.window_lo_hr", "run.title",
                "source.0.ra_hr", "filter.snr_threshold_db"):
        with pytest.raises(ValidationError, match=key):
            ExperimentManifest.from_kv({**kv, key: "none"})
    with pytest.raises(ValidationError, match="run.require_pol_match"):
        ExperimentManifest.from_kv({**kv, "run.require_pol_match": "maybe"})


def test_manifest_missing_required_source_key():
    kv = _full_manifest().to_kv()
    del kv["source.0.ra_hr"]
    with pytest.raises(ValidationError, match="ra_hr"):
        ExperimentManifest.from_kv(kv)


@pytest.mark.parametrize("section, n, drop", [
    ("source", 2, None), ("source", 1, "name"), ("rfi", 1, "kind")],
    ids=["gap", "no-name", "no-kind"])
def test_list_section_misnumbering_names_the_rule(section, n, drop):
    # a copy of entry 0 as entry n: past a gap in N, or without its presence
    # key, it is outside the section, so its keys are unknown; the message
    # says why
    kv = _full_manifest().to_kv()
    kv.update((key.replace(f"{section}.0.", f"{section}.{n}.", 1), value)
              for key, value in list(kv.items())
              if key.startswith(f"{section}.0.")
              and key != f"{section}.0.{drop}")
    presence = {"source": "name", "rfi": "kind"}[section]
    with pytest.raises(ValidationError) as info:
        ExperimentManifest.from_kv(kv)
    message = str(info.value)
    assert f"unknown keys: {section}.{n}." in message
    assert (f"{section}.N. entries count up from N = 0 with no gap, "
            f"and {section}.N.{presence} starts each one") in message


def test_unknown_entry_key_names_no_numbering_rule():
    kv = {**_full_manifest().to_kv(), "source.0.bogus": "1"}
    with pytest.raises(ValidationError) as info:
        ExperimentManifest.from_kv(kv)
    assert str(info.value).endswith("unknown keys: source.0.bogus")


def test_readme_config_reference_names_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in section.split("\n* `")[1:]:
        prefix, _, text = bullet.partition(".*`")
        bullets[prefix] = text
    for key in _full_manifest().to_kv():
        prefix, *_, name = key.split(".")
        section = {"source": "source.N", "rfi": "rfi.N"}.get(prefix, prefix)
        assert f"`{name}`" in bullets[section], key
