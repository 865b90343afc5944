import math
import shutil
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from collections import Counter

import numpy as np
import pytest

import pulsepair.pipeline
import pulsepair.sigsim
from pulsepair import cli, pairdetect
from pulsepair.errors import ArchiveFormatError, ValidationError
from pulsepair.kvconfig import read_kv_file, write_kv_file
from pulsepair.calib import SIDEREAL_DAY_S, utc_at_lst
from pulsepair.pairdetect import (EventTable, FirstLevelFilterParams,
                                  PairTable, form_pairs, read_level1_archive,
                                  write_level1_archive)
from pulsepair.pipeline import (CANDIDATE_COLUMNS, ExperimentManifest,
                                detect_frames,
                                load_frames_npz, manifest_from_file,
                                read_candidates_csv, refilter,
                                run_experiment, run_null_mc, run_tune_tau,
                                save_frames_npz, session_pairs, sha256_file,
                                simulate_events, write_candidates_csv,
                                write_tau_scan_csv)
from pulsepair.phasefilter import (PhaseMetricParams, second_level_filter,
                                   tune_tau_int, write_metric_diagnostics_csv)
from pulsepair.sigsim import (ObservationConfig, RfiSpec, SourceSpec,
                              simulate_frames, transit_index)
from pulsepair.skystats import bin_probabilities, peak_cohens_d, ra_bin_index

from helpers import (detect_events, event_columns, event_table,
                     wide_band_params)


def _small_manifest(out_dir, seed=0, n_transits=2, threads=1):
    # events mode over a half-hour window: fast but non-trivial
    return ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
            polarization_tags=("LHCP", "RHCP"), seed=seed),
        filter=FirstLevelFilterParams(
            accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
            excision_low_hz=1445.0e6, excision_high_hz=1445.0e6),
        mode="events", n_transits=n_transits,
        window_lo_hr=5.0, window_hi_hr=5.5, ra_bin_hr=0.1,
        threads=threads, out_dir=str(out_dir))


def test_manifest_kv_roundtrip():
    m = ExperimentManifest(sources=[SourceSpec(
        name="x", ra_hr=5.0, dec_deg=-8.0, snr_db=45.0,
        pulse_rate_per_frame=0.01)])
    kv = m.to_kv()
    back = ExperimentManifest.from_kv(dict(kv))
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
    m = _small_manifest(tmp_path)
    path = tmp_path / "exp.cfg"
    with open(path, "w") as fh:
        fh.write("# comment\n\n")
        for k, v in sorted(m.to_kv().items()):
            fh.write(f"{k} = {v}\n")
    loaded = manifest_from_file(path, overrides={"config.seed": "9"})
    assert loaded.config.seed == 9
    assert loaded.window_lo_hr == 5.0


def test_stage_hashes_scope():
    a = _small_manifest(".", seed=0)
    b = _small_manifest(".", seed=0)
    b.phase = PhaseMetricParams(filter_halfwidth_rad=0.08)
    assert a.simulate_params_hash() == b.simulate_params_hash()
    assert a.refilter_params_hash() != b.refilter_params_hash()
    c = _small_manifest(".", seed=1)
    assert a.simulate_params_hash() != c.simulate_params_hash()
    # thread count and output location must never invalidate artifacts
    d = _small_manifest("/somewhere/else", seed=0, threads=8)
    for h in ("simulate_params_hash", "refilter_params_hash",
              "analyze_params_hash", "report_params_hash"):
        assert getattr(a, h)() == getattr(d, h)()


def _full_manifest() -> ExperimentManifest:
    # every optional knob set, so each key below can be mutated in isolation
    return ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
            hop_seconds=0.52, baseline_m=30.0, latitude_deg=38.433,
            longitude_deg=-79.8398, dec_deg=-8.0, azimuth_deg=180.0,
            tau_int_true_s=0.0, polarization_tags=("LHCP", "RHCP"),
            phase_sign=-1.0, beam_fwhm_ra_deg=9.0, seed=5),
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
    "config.phase_sign": "1.0",
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


def test_every_config_key_moves_a_stage_hash():
    def all_hashes(m):
        return (m.simulate_params_hash(), m.refilter_params_hash(),
                m.analyze_params_hash(), m.report_params_hash())

    base = _full_manifest()
    kv = base.to_kv()
    base_hashes = all_hashes(base)
    # the table must track the schema exactly, so new fields fail loudly
    assert set(kv) == set(_MUTATIONS)
    for key, new_value in _MUTATIONS.items():
        assert kv[key] != new_value, f"{key}: mutation equals current value"
        mutated = dict(kv)
        mutated[key] = new_value
        assert all_hashes(ExperimentManifest.from_kv(mutated)) != base_hashes, key


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
        if ExperimentManifest.from_kv({**full_kv, key: value})
        .simulate_params_hash() != full.simulate_params_hash()]
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
                {**kv, key: mutations[key]})) != ref
        except ValidationError:
            moved = True
        assert moved == (key not in inert), key


def test_run_experiment_artifacts(tmp_path):
    res = run_experiment(_small_manifest(tmp_path))
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
    run_experiment(_small_manifest(tmp_path))
    again = run_experiment(_small_manifest(tmp_path))
    assert again.skipped == ["simulate", "refilter", "analyze", "report"]
    # a refilter parameter change must redo refilter but keep the simulation
    widened = _small_manifest(tmp_path)
    widened.phase = PhaseMetricParams(filter_halfwidth_rad=0.08)
    res = run_experiment(widened)
    assert res.skipped == ["simulate"]
    assert res.status == "ok"


def test_resumed_run_reports_cold_run_counts(tmp_path):
    cold = run_experiment(_small_manifest(tmp_path))
    warm = run_experiment(_small_manifest(tmp_path))
    assert "refilter" in warm.skipped
    assert cold.n_survivors > 0
    assert ((warm.n_events, warm.n_candidates, warm.n_survivors)
            == (cold.n_events, cold.n_candidates, cold.n_survivors))


def test_exposure_stats_follow_the_archive(tmp_path):
    run_experiment(_small_manifest(tmp_path / "sim"))
    archive = tmp_path / "level1.csv"
    shutil.copy(tmp_path / "sim" / "level1.csv", archive)
    m = _small_manifest(tmp_path / "run")
    m.level1_in = str(archive)
    m.p_mode = "exposure"
    run_experiment(m)
    candidates = sha256_file(tmp_path / "run" / "candidates.csv")
    stats = sha256_file(tmp_path / "run" / "stats.csv")
    # lone events in frames of their own form no pairs, so the candidates
    # stay the same while the exposure in the first RA bin grows
    write_level1_archive(archive, EventTable.concat([
        read_level1_archive(archive),
        event_table(frame=10**6 + np.arange(500), rf=1445.0e6, ra=5.05)]))
    res = run_experiment(m)
    assert sha256_file(tmp_path / "run" / "candidates.csv") == candidates
    assert "analyze" not in res.skipped
    assert sha256_file(tmp_path / "run" / "stats.csv") != stats


def test_run_experiment_byte_stability_across_threads(tmp_path):
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        run_experiment(_small_manifest(out, threads=threads))
        digests.append((sha256_file(out / "level1.csv"),
                        sha256_file(out / "stats.csv"),
                        sha256_file(out / "figure.svg")))
    assert digests[0] == digests[1]


def test_resume_without_counts_redoes_refilter(tmp_path):
    cold = run_experiment(_small_manifest(tmp_path))
    path = tmp_path / "manifest.txt"
    write_kv_file(path, {k: v for k, v in read_kv_file(path).items()
                         if not k.startswith("stage.refilter.n_")})
    warm = run_experiment(_small_manifest(tmp_path))
    # the candidates come out the same, so analyze and report still resume
    assert warm.skipped == ["simulate", "analyze", "report"]
    assert ((warm.n_events, warm.n_candidates, warm.n_survivors)
            == (cold.n_events, cold.n_candidates, cold.n_survivors))


def test_run_experiment_writes_the_cli_chain_bytes(tmp_path):
    # some bin edges of the default window do not survive stats.csv's %.6g,
    # so a figure drawn from the in-memory stats would differ from the CLI's
    m = _small_manifest(tmp_path / "lib", n_transits=1)
    m.window_lo_hr, m.window_hi_hr = 3.25, 7.25
    run_experiment(m)
    cfg = str(tmp_path / "exp.cfg")
    write_kv_file(cfg, m.to_kv())
    for command in ("simulate", "refilter", "analyze", "report"):
        assert cli.main([command, "--config", cfg,
                         "--out", str(tmp_path / "cli")]) == 0
    for name in ("level1.csv", "candidates.csv", "stats.csv", "report.txt",
                 "figure.svg"):
        assert (sha256_file(tmp_path / "lib" / name)
                == sha256_file(tmp_path / "cli" / name)), name


def test_run_experiment_external_archive_missing(tmp_path):
    m = _small_manifest(tmp_path)
    assert run_experiment(m).status == "ok"
    m.level1_in = str(tmp_path / "nope.csv")
    with pytest.raises(ValidationError):
        run_experiment(m)
    # the failure replaces the good run's record
    record = read_kv_file(tmp_path / "manifest.txt")
    assert record["status"] == "failed:simulate"
    assert record["run.level1_in"] == m.level1_in


def test_run_experiment_corrupt_archive_fails_refilter(tmp_path):
    m = _small_manifest(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,valid,archive\n1,2,3,4\n")
    m.level1_in = str(bad)
    with pytest.raises(ValidationError):
        run_experiment(m)
    record = read_kv_file(tmp_path / "manifest.txt")
    assert record["status"] == "failed:refilter"


def test_candidates_csv_reader(tmp_path):
    res = run_experiment(_small_manifest(tmp_path))
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


def test_run_null_mc_deterministic(tmp_path):
    m = _small_manifest(tmp_path, seed=40)
    rows_a, frac_a = run_null_mc(m, 3)
    rows_b, frac_b = run_null_mc(m, 3)
    assert rows_a == rows_b and frac_a == frac_b
    assert [r[0] for r in rows_a] == [40, 41, 42]
    assert all(r[1] > 0 for r in rows_a)
    m.mode = "freq"
    m.n_frames = 4
    with pytest.raises(ValidationError):
        run_null_mc(m, 1)


def test_run_null_mc_same_rows_at_any_thread_count(tmp_path):
    serial = run_null_mc(_small_manifest(tmp_path, seed=40), 3)
    for threads in (2, 3, 8):
        assert run_null_mc(_small_manifest(tmp_path, seed=40,
                                           threads=threads), 3) == serial


def test_run_null_mc_threads_run_seeds_not_transits(tmp_path, monkeypatch):
    # transits of one seed are never sampled in parallel: one seed runs on
    # the calling thread, and several share a pool of seeds
    def no_transit_pool(*args, **kwargs):
        raise AssertionError("transit pool started")

    pools = []

    def seed_pool(threads):
        pools.append(threads)
        return ThreadPoolExecutor(max_workers=threads)

    monkeypatch.setattr(pulsepair.sigsim, "ThreadPoolExecutor",
                        no_transit_pool)
    monkeypatch.setattr(pulsepair.pipeline, "thread_pool", seed_pool)
    rows, _ = run_null_mc(_small_manifest(tmp_path, threads=2), 1)
    assert len(rows) == 1 and pools == []
    rows, _ = run_null_mc(_small_manifest(tmp_path, threads=4), 3)
    assert [r[0] for r in rows] == [0, 1, 2] and pools == [3]


def test_run_null_mc_takes_no_per_pair_log10(tmp_path, monkeypatch):
    # math.log10 runs only for the pairs whose |delta_f| lies within a
    # relative 1e-9 of a window edge, not once per pair
    m = _small_manifest(tmp_path)
    pairs = form_pairs(simulate_events(replace(m, sources=[])),
                       m.pairing_window_frames, m.require_pol_match)
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
    m = _small_manifest(tmp_path)
    run_experiment(m)
    m.phase = PhaseMetricParams(tau_search_low_s=-8e-9,
                                tau_search_high_s=8e-9,
                                tau_search_step_s=4e-9)
    best_tau, best_stat, taus, stats = run_tune_tau(
        m, tmp_path / "level1.csv")
    assert taus.size == 5 and stats.size == 5
    assert best_tau in taus
    assert best_stat == np.max(stats)
    scan_path = tmp_path / "tau_scan.csv"
    write_tau_scan_csv(scan_path, taus, stats)
    lines = scan_path.read_text().splitlines()
    assert lines[0] == "tau_int_s,peak_cohens_d"
    assert len(lines) == 6


def _wide_manifest(out_dir, band_mhz, window_hr, **kwargs):
    """_small_manifest over a wider band and window: more events."""
    m = _small_manifest(out_dir, **kwargs)
    top = 1445.0e6 + band_mhz * 1.0e6
    m.config = replace(m.config, band_high_hz=top)
    m.filter = replace(m.filter, accept_band_high_hz=top)
    m.window_hi_hr = m.window_lo_hr + window_hr
    m.phase = PhaseMetricParams(tau_search_low_s=-5e-9,
                                tau_search_high_s=5e-9,
                                tau_search_step_s=1e-9)
    return m


def _transit_of(m):
    def transit_of(utc_s):
        return transit_index(utc_s, m.config, m.window_lo_hr, m.window_hi_hr,
                             m.start_utc_s)
    return transit_of


@pytest.mark.parametrize("k", [1, 2, 3])
def test_no_pair_joins_two_transits(tmp_path, k):
    # 3,452 frames a transit, not a multiple of 2K + 1: a frame block spans
    # the gap between the transits unless the transit leads the block key
    m = _wide_manifest(tmp_path, 4, 0.5, seed=3)
    m.pairing_window_frames = k
    path = tmp_path / "level1.csv"
    write_level1_archive(path, simulate_events(m))
    events = read_level1_archive(path)
    hop = m.config.hop_seconds
    n_frames = round(0.5 / 24.0 * SIDEREAL_DAY_S / hop)
    assert n_frames == 3452 and n_frames % (2 * k + 1)
    # the transit of every archived event, its first frames' utc_s rounded
    assert np.array_equal(transit_index(events.utc_s, m.config, 5.0, 5.5),
                          events.frame_index // n_frames)
    assert (form_pairs(events, k).delta_t_s > (2 * k + 1) * hop).any()
    pairs = PairTable.concat(events, session_pairs(m, events))
    assert pairs.delta_t_s.max() <= (2 * k + 1) * hop


@pytest.fixture(scope="module")
def season(tmp_path_factory):
    """A 2-transit archive of 211,142 events: 13 pair chunks."""
    out = tmp_path_factory.mktemp("season")
    m = _wide_manifest(out, 6, 4.0)
    write_level1_archive(out / "level1.csv", simulate_events(m))
    return m, out / "level1.csv"


@pytest.mark.parametrize("k, pol_match", [(0, False), (1, True), (3, False)])
def test_chunked_stages_match_the_whole_table(season, tmp_path, k,
                                              pol_match):
    m, path = season
    m = replace(m, pairing_window_frames=k, require_pol_match=pol_match)
    events = read_level1_archive(path)
    assert len(events) >= 4 * pairdetect._CHUNK_ROWS
    pairs = form_pairs(events, k, pol_match, _transit_of(m))
    survivors, verdicts = second_level_filter(pairs, m.phase, explain=True)
    write_candidates_csv(tmp_path / "want.csv", survivors)
    write_metric_diagnostics_csv(tmp_path / "want_diag.csv", pairs, verdicts)
    assert refilter(m, path, tmp_path / "got.csv", tmp_path / "got_diag.csv"
                    ) == (len(events), len(pairs), len(survivors))
    for name in ("", "_diag"):
        assert ((tmp_path / f"got{name}.csv").read_bytes()
                == (tmp_path / f"want{name}.csv").read_bytes())
    edges = m.bin_edges()
    want = tune_tau_int(pairs, m.phase, edges, bin_probabilities(edges))
    got = run_tune_tau(m, path)
    assert got[:2] == want[:2]
    assert np.array_equal(got[3], want[3]) and np.array_equal(got[2], want[2])
    # null-mc samples the session afresh: the same events, sources and all
    null = simulate_events(m)
    survivors = second_level_filter(
        form_pairs(null, k, pol_match, _transit_of(m)), m.phase)
    bins = ra_bin_index(survivors.ra_pointing_hr, edges)
    bins = bins[bins >= 0]
    max_d, peak = peak_cohens_d(bins, bin_probabilities(edges))
    assert run_null_mc(m, 1)[0] == [(m.config.seed, bins.size, max_d,
                                     float(edges[peak]))]


def test_refilter_and_tune_tau_hold_the_events_plus_one_chunk(season,
                                                              tmp_path):
    # without the chunks, the pairs (~0.9 per event, 40 B each) and the
    # whole-table sort exceed the event table's 80 B a row by half
    m, path = season
    table_bytes = 8 * len(pairdetect.EVENT_COLUMNS) * len(
        read_level1_archive(path))
    for stage in (lambda: refilter(m, path, tmp_path / "candidates.csv"),
                  lambda: run_tune_tau(m, path)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - table_bytes < 0.25 * table_bytes


def test_frame_store_members_are_read_once(tmp_path, monkeypatch):
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=("LHCP",), seed=5)
    params = wide_band_params(snr_threshold_db=5.0)
    path = tmp_path / "frames.npz"
    save_frames_npz(path, config, simulate_frames(config, n_frames=16))
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


def test_simulated_frames_match_the_frame_store(tmp_path):
    # simulate_frames yields the tuples load_frames_npz reads back
    config = ObservationConfig(
        band_low_hz=1445.0e6, band_high_hz=1445.5e6, frame_seconds=0.001024,
        polarization_tags=("LHCP", "RHCP"), seed=5)
    for mode in ("freq", "time"):
        path = tmp_path / f"{mode}.npz"
        made = list(simulate_frames(config, n_frames=3, mode=mode))
        save_frames_npz(path, config, made)
        loaded = list(load_frames_npz(path))
        assert len(made) == len(loaded) == 6
        for want, got in zip(made, loaded):
            assert got[:3] == want[:3]
            assert [type(v) for v in got[:3]] == [int, float, str]
            for a, b in zip(want[3:], got[3:]):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_stage_hashes_are_frozen():
    # frozen from an earlier schema implementation, so manifest.txt files
    # written by it keep resuming; the analyze hash moved when run.per_day
    # left the schema and the simulate hash when the segment keys moved
    # from config.* to filter.*, and again when config.noise_floor,
    # source.N.emission_window_hr and rfi.N.direction left it, so such a run
    # redoes that stage once
    m = _full_manifest()
    assert m.simulate_params_hash() == (
        "43eb90195fce1560d25e3330669a1bb7476eb20ccbdce440ed27bf4ceb754f2d")
    assert m.refilter_params_hash() == (
        "b5082b9d7e359d4d9e6cb6bffa5ae07c63568d2328fac5231f00c43bc7959884")
    assert m.analyze_params_hash() == (
        "6847be0a021f6b43a8135fc296130fdd61f77bb81bf5ef9aee809d62720b6295")
    assert m.report_params_hash() == (
        "419caca7ab3cce17ff2a253196f853d1e41b45db554b609901a89be4a4a28952")


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
