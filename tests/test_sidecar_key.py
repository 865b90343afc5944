"""A stage checks the sidecar's sha256 key while it reads the columns.

refilter, tune-tau and exposure-mode analyze read a level-1 archive
through pairdetect.consume_level1_archive: the key is hashed on one thread
while the stage takes the sidecar's chunks.  A stale key (an edited
archive beside its old sidecar, or a foreign sidecar of the same row
count) drops what the stage made from the columns, result or error, and
the stage runs once more on the text: its outputs and return value are
those of the same archive without a sidecar.  A key that matches keeps
the stage's result or error, and the text is never read.
"""
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

from pulsepair import cli, pairdetect, pipeline
from pulsepair.errors import ArchiveFormatError, ValidationError
from pulsepair.kvconfig import write_kv_file
from pulsepair.pairdetect import (EVENT_COLUMNS, EventTable,
                                  FirstLevelFilterParams, write_csv,
                                  write_level1_archive)
from pulsepair.pipeline import (TAU_SCAN_COLUMNS, ExperimentManifest,
                                refilter, run_tune_tau, simulate_events,
                                write_analysis)
from pulsepair.phasefilter import PhaseMetricParams
from pulsepair.sigsim import ObservationConfig

from helpers import archive_events


def _manifest(p_mode="uniform"):
    """Two half-hour transits over 1 MHz, both tags, a 9-tap delay scan."""
    return ExperimentManifest(
        config=ObservationConfig(
            band_low_hz=1445.0e6, band_high_hz=1446.0e6, frame_seconds=0.52,
            polarization_tags=("LHCP", "RHCP"), seed=4),
        filter=FirstLevelFilterParams(
            accept_band_low_hz=1445.0e6, accept_band_high_hz=1446.0e6,
            excision_low_hz=1445.0e6, excision_high_hz=1445.0e6),
        mode="events", n_transits=2, window_lo_hr=5.0, window_hi_hr=5.5,
        ra_bin_hr=0.1, p_mode=p_mode,
        phase=PhaseMetricParams(tau_search_low_s=-4e-9,
                                tau_search_high_s=4e-9,
                                tau_search_step_s=1e-9))


def _refilter(path, out):
    return refilter(_manifest(), path, out / "candidates.csv")


def _refilter_diagnostics(path, out):
    return refilter(_manifest(), path, out / "candidates.csv",
                    out / "metric_diagnostics.csv")


def _tune_tau(path, out):
    best_tau, best_stat, taus, stats = run_tune_tau(_manifest("exposure"),
                                                    path)
    write_csv(out / "tau_scan.csv", TAU_SCAN_COLUMNS, [taus, stats])
    return best_tau, best_stat, taus.tolist(), stats.tolist()


def _analyze(path, out):
    # the good archive's candidates, copied beside every archive
    return repr(write_analysis(_manifest("exposure"),
                               path.parent / "candidates.csv", path,
                               out / "stats.csv", out / "report.txt"))


STAGES = {"refilter": _refilter, "refilter --diagnostics":
          _refilter_diagnostics, "tune-tau": _tune_tau, "analyze": _analyze}


def _archive(root, name, events):
    path = root / name / "level1.csv"
    path.parent.mkdir()
    write_level1_archive(path, events)
    assert os.path.exists(f"{path}.cols")
    return path


def _rekeyed(sidecar: bytes, text_path) -> bytes:
    """sidecar with its key replaced by the sha256 of text_path."""
    at = pairdetect._SIDECAR.size - 4 - 64
    key = pairdetect.sha256_file(text_path).encode()
    return sidecar[:at] + key + sidecar[at + 64:]


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """Archives of one row count, each with its own sidecar: "good" (the
    sampled session), "other" (its RA half a bin on and its west phases
    rolled), "nan" (its east phases NaN: refilter and tune-tau raise),
    plus the good archive's candidates.csv.  Also "bad codes": the good
    sidecar's bytes with every pol_code past the tags."""
    root = tmp_path_factory.mktemp("archives")
    good = _archive(root, "good", simulate_events(_manifest()))
    events = archive_events(good)
    columns = {name: getattr(events, name) for name in EVENT_COLUMNS}
    paths = {"good": good,
             "other": _archive(root, "other", EventTable(tags=events.tags, **(
                 columns | {"ra_pointing_hr": events.ra_pointing_hr + 0.05,
                            "phase_west_rad":
                                np.roll(events.phase_west_rad, 1)}))),
             "nan": _archive(root, "nan", EventTable(tags=events.tags, **(
                 columns | {"phase_east_rad":
                                np.full(len(events), np.nan)})))}
    refilter(_manifest(), good, root / "candidates.csv")
    for path in paths.values():
        shutil.copyfile(root / "candidates.csv", path.parent / "candidates.csv")
    fh, rows, tags, key = pairdetect._open_sidecar(good)
    with fh:
        at = fh.tell() + 8 * rows * EVENT_COLUMNS.index("pol_code")
    cols = bytearray(Path(f"{good}.cols").read_bytes())
    cols[at:at + 8 * rows] = np.full(rows, 7, "<i8").tobytes()
    return paths, bytes(cols)


def _outcome(stage, path):
    """(return value or error, {output file: bytes}) of a stage on path,
    with its outputs in a directory of their own beside the archive."""
    out = path.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    try:
        got = STAGES[stage](path, out)
    except (ValidationError, ArchiveFormatError) as exc:
        got = repr(exc)
    return got, {name: (out / name).read_bytes()
                 for name in sorted(os.listdir(out))}


def _place(tmp_path, name, text_path, sidecar: bytes | None):
    """tmp_path/name/level1.csv: text_path's bytes, beside `sidecar` (or
    none) and text_path's candidates.csv."""
    path = tmp_path / name / "level1.csv"
    path.parent.mkdir()
    shutil.copyfile(text_path, path)
    shutil.copyfile(text_path.parent / "candidates.csv",
                    path.parent / "candidates.csv")
    if sidecar is not None:
        (tmp_path / name / "level1.csv.cols").write_bytes(sidecar)
    return path


@pytest.mark.parametrize("stage", STAGES)
def test_a_stale_sidecar_gives_the_texts_outputs(archives, tmp_path, stage):
    paths, bad_codes = archives

    def cols(name):
        return Path(f"{paths[name]}.cols").read_bytes()

    # (archive text, sidecar bytes): each sidecar passes every check but
    # the key, and holds other columns than the text gives
    stale = {
        "edited": (paths["other"], cols("good")),
        "foreign": (paths["good"], cols("other")),
        "nan phases": (paths["good"], cols("nan")),
        "bad codes": (paths["other"], bad_codes),
    }
    for name, (text, sidecar) in stale.items():
        got = _outcome(stage, _place(tmp_path, name, text, sidecar))
        want = _outcome(stage, _place(tmp_path, f"{name} text", text, None))
        assert isinstance(want[0], (tuple, str)) and want[1], name
        assert got == want, (stage, name)
        # what the sidecar's columns give, were its key the text's
        served = _outcome(stage, _place(tmp_path, f"{name} served", text,
                                        _rekeyed(sidecar, text)))
        # analyze reads no phases: the nan columns give it the text's
        assert (served == want) == ((stage, name)
                                    == ("analyze", "nan phases")), name
    # the stages that read phases raise on the nan archive's own columns
    if stage != "analyze":
        assert "non-finite phases" in _outcome(stage, paths["nan"])[0]


@pytest.mark.parametrize("stage", STAGES)
def test_a_valid_sidecar_keeps_the_stages_result_or_error(
        archives, tmp_path, monkeypatch, stage):
    paths, bad_codes = archives
    # the text is never parsed: a key that matches is the sidecar's word
    monkeypatch.setattr(pairdetect, "read_columns", None)
    got, outputs = _outcome(stage, paths["good"])
    assert isinstance(got, (tuple, str)) and outputs
    if stage == "analyze":
        path = _place(tmp_path, "bad codes", paths["good"],
                      _rekeyed(bad_codes, paths["good"]))
        with pytest.raises(ValidationError, match="pol_code"):
            STAGES[stage](path, tmp_path)
    else:
        with pytest.raises(ValidationError, match="non-finite phases"):
            STAGES[stage](paths["nan"], tmp_path)


@pytest.mark.parametrize("diagnostics", [False, True])
def test_a_stale_sidecar_beside_a_bad_text_leaves_no_output(
        archives, tmp_path, monkeypatch, diagnostics):
    # the sidecar's pass writes its outputs; once the key is found stale
    # they are removed, so the text's error leaves none of them behind
    paths, _ = archives
    path = _place(tmp_path, "cut", paths["good"],
                  Path(f"{paths['good']}.cols").read_bytes())
    with open(path, "a") as fh:
        fh.write("1,2\n")
    writes = []
    write = pipeline.write_candidates_csv

    def counted(*args):
        writes.append(args[0])
        write(*args)

    monkeypatch.setattr(pipeline, "write_candidates_csv", counted)
    stage = _refilter_diagnostics if diagnostics else _refilter
    with pytest.raises(ArchiveFormatError, match="columns"):
        stage(path, tmp_path)
    assert writes == [tmp_path / "candidates.csv"]
    assert not (tmp_path / "candidates.csv").exists()
    assert not (tmp_path / "metric_diagnostics.csv").exists()


@pytest.mark.parametrize("sidecar", [False, True])
def test_an_empty_archive_is_refused(archives, tmp_path, monkeypatch, capsys,
                                     sidecar):
    # a zero-byte level1.csv exits 3 with "empty file" and leaves no
    # candidates.csv; beside its old sidecar, the sidecar's pass writes one
    # and the stale key's rerun on the text removes it before refusing
    paths, _ = archives
    path = tmp_path / "level1.csv"
    path.write_bytes(b"")
    if sidecar:
        shutil.copyfile(f"{paths['good']}.cols", f"{path}.cols")
    cfg = tmp_path / "exp.cfg"
    write_kv_file(cfg, _manifest().to_kv())
    writes = []
    write = pipeline.write_candidates_csv

    def counted(*args):
        writes.append(args[0])
        write(*args)

    monkeypatch.setattr(pipeline, "write_candidates_csv", counted)
    out = tmp_path / "out"
    assert cli.main(["refilter", "--config", str(cfg), "--out", str(out),
                     "--level1", str(path)]) == 3
    assert "empty file" in capsys.readouterr().err
    assert len(writes) == sidecar
    assert not (out / "candidates.csv").exists()


@pytest.mark.parametrize("diagnostics", [False, True])
def test_refilter_hashes_the_archive_once(archives, tmp_path, monkeypatch,
                                          diagnostics):
    paths, _ = archives
    want = _outcome("refilter", paths["good"])
    hashed = []
    sha256 = pairdetect.sha256_file

    def counted(name):
        hashed.append(name)
        return sha256(name)

    monkeypatch.setattr(pairdetect, "sha256_file", counted)
    stage = _refilter_diagnostics if diagnostics else _refilter
    assert stage(paths["good"], tmp_path) == want[0]
    assert hashed == [paths["good"]]
    assert (tmp_path / "candidates.csv").read_bytes() == \
        want[1]["candidates.csv"]


@pytest.mark.parametrize("sidecar", ["good", "stale", "none"])
def test_the_key_thread_and_the_files_end_with_the_stage(
        archives, tmp_path, monkeypatch, sidecar):
    paths, _ = archives
    text = paths["other" if sidecar == "stale" else "good"]
    path = _place(tmp_path, "archive", text, None if sidecar == "none"
                  else Path(f"{paths['good']}.cols").read_bytes())
    opened = []

    def spy(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(pairdetect, "open", spy, raising=False)

    def fails(chunks):
        next(chunks)
        raise RuntimeError("the stage failed")

    threads = threading.active_count()
    consumers = {
        "returns": (lambda chunks: sum(len(c) for c in chunks), None),
        "stops early": (lambda chunks: len(next(chunks)), None),
        "raises": (fails, RuntimeError),
    }
    for name, (chunks_of, error) in consumers.items():
        opened.clear()
        if error is None:
            assert pairdetect.consume_level1_archive(path, chunks_of) > 0
        else:
            with pytest.raises(error):
                pairdetect.consume_level1_archive(path, chunks_of)
        assert threading.active_count() == threads, name
        assert opened and all(fh.closed for fh in opened), name
    # and the stages: one that returns, one that raises on the columns
    for stage, archive in (("refilter", path), ("tune-tau", path),
                           ("tune-tau", paths["nan"])):
        opened.clear()
        _outcome(stage, archive)
        assert threading.active_count() == threads, stage
        assert opened and all(fh.closed for fh in opened), stage
