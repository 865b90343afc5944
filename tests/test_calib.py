import math
import time

import numpy as np
import pytest

from pulsepair.calib import (DriftScan, FWHM_PER_SIGMA, SIDEREAL_DAY_S,
                             continuum_snr_db, fit_gauss_flat, lst_hours,
                             pointing_ra_hr, read_drift_scan_csv,
                             tau_int_scan, utc_at_lst, write_fit_report)
from helpers import calibrator_frames
from pulsepair.errors import ValidationError

LON = -79.8398
LAT = 38.433


def test_lst_epoch_values():
    # frozen against the GMST polynomial evaluated by hand at the unix epoch
    assert float(lst_hours(0.0, 0.0)) == pytest.approx(
        6.681973485916387, rel=1e-12)
    assert float(lst_hours(1.7e9, LON)) == pytest.approx(
        20.483180250244914, rel=1e-12)
    # longitude enters as hours east
    east = float(lst_hours(0.0, 15.0))
    assert east == pytest.approx((6.681973485916387 + 1.0) % 24.0, rel=1e-12)


def test_lst_array_and_range():
    utc = np.linspace(0.0, 4.0e9, 1001)
    lst = lst_hours(utc, LON)
    assert lst.shape == utc.shape
    assert np.all((lst >= 0.0) & (lst < 24.0))


def test_lst_advances_at_sidereal_rate():
    a = float(lst_hours(1.0e9, LON))
    b = float(lst_hours(1.0e9 + SIDEREAL_DAY_S, LON))
    assert abs(b - a) < 1e-7  # one sidereal day returns the same LST


def test_utc_at_lst_roundtrip():
    for target in (0.0, 3.25, 12.0, 23.9):
        utc = utc_at_lst(target, LON, near_utc_s=1.7e9)
        assert utc >= 1.7e9
        assert utc < 1.7e9 + SIDEREAL_DAY_S + 1.0
        err = (float(lst_hours(utc, LON)) - target) % 24.0
        assert min(err, 24.0 - err) < 1e-8
    # far before the epoch: one step back, not one sidereal day per loop
    # turn, so it is quick and its LST does not drift; lst_hours itself
    # resolves no finer than the spacing of its GMST hours there
    for near in (-1e11, -1e15):
        tol = max(1e-9, 2.0 * np.spacing(24.0 * abs(near) / SIDEREAL_DAY_S))
        for target in (0.0, 3.25, 5.0, 12.0, 23.9):
            start = time.perf_counter()
            utc = utc_at_lst(target, LON, near_utc_s=near)
            assert time.perf_counter() - start < 0.1
            assert near - 1e-6 <= utc < near - 1e-6 + SIDEREAL_DAY_S
            err = (float(lst_hours(utc, LON)) - target) % 24.0
            assert min(err, 24.0 - err) < tol, (near, target)


def test_pointing_ra_on_meridian():
    assert pointing_ra_hr(5.0, 180.0, -8.0, LAT) == pytest.approx(5.0)


def test_pointing_ra_azimuth_offset():
    # alt = 90 - |lat - dec|, offset = (az-180) cos(alt) / (15 cos(dec))
    alt = 90.0 - abs(LAT - (-8.0))
    expect = 5.0 + 2.0 * math.cos(math.radians(alt)) / (
        15.0 * math.cos(math.radians(-8.0)))
    assert pointing_ra_hr(5.0, 182.0, -8.0, LAT) == pytest.approx(
        expect, rel=1e-12)
    with pytest.raises(ValidationError):
        pointing_ra_hr(5.0, 186.0, -8.0, LAT)


def test_drift_scan_validation():
    with pytest.raises(ValidationError):
        DriftScan(utc_s=np.array([0.0, 1.0, 1.0]), power=np.ones(3))


def test_drift_scan_ra_unwraps():
    utc0 = utc_at_lst(23.5, LON, near_utc_s=1.7e9)
    utc = utc0 + np.linspace(0.0, 2.0, 50) * 3600.0
    scan = DriftScan(utc_s=utc, power=np.ones(50))
    ra = scan.ra_hr()
    assert np.all(np.diff(ra) > 0)          # no 24 hr sawtooth
    assert ra[-1] - ra[0] == pytest.approx(2.0 * 24.0 / SIDEREAL_DAY_S * 3600,
                                           rel=1e-6)


def _make_scan(fwhm_deg, snr_db, seed, n=20000, noise=0.01, center=5.25):
    sigma_hr = fwhm_deg / 15.0 / FWHM_PER_SIGMA
    amp = 10.0 ** (snr_db / 10.0) - 1.0
    utc0 = utc_at_lst(center, LON, near_utc_s=1.7e9)
    utc = utc0 + np.linspace(-1.5, 1.5, n) * 3600.0
    probe = DriftScan(utc_s=utc, power=np.ones(n))
    ra = probe.ra_hr()
    truth = 1.0 + amp * np.exp(-0.5 * ((ra - center) / sigma_hr) ** 2)
    rng = np.random.default_rng(seed)
    return (DriftScan(utc_s=utc, power=truth + rng.normal(0.0, noise, n)),
            amp, sigma_hr)


def test_fit_gauss_flat_noise_free():
    scan, amp, sigma_hr = _make_scan(9.0, 0.18, 0, n=4000, noise=0.0)
    fit = fit_gauss_flat(scan)
    assert fit.converged
    assert fit.amplitude == pytest.approx(amp, rel=1e-6)
    assert fit.sigma_ra_hr == pytest.approx(sigma_hr, rel=1e-6)
    assert fit.floor == pytest.approx(1.0, rel=1e-6)
    assert fit.center_ra_hr == pytest.approx(5.25, abs=1e-6)
    assert fit.fwhm_ra_deg == pytest.approx(9.0, rel=1e-6)
    assert continuum_snr_db(fit) == pytest.approx(0.18, rel=1e-6)


def test_fit_gauss_flat_rejects_thin_scans():
    scan, _, _ = _make_scan(9.0, 0.18, 0, n=6)
    with pytest.raises(ValidationError):
        fit_gauss_flat(scan)
    # a peak wider than the scan leaves floor and width degenerate
    sigma_hr = 9.0 / 15.0 / FWHM_PER_SIGMA
    utc0 = utc_at_lst(5.25, LON, near_utc_s=1.7e9)
    utc = utc0 + np.linspace(-0.2, 0.2, 200) * 3600.0
    narrow = DriftScan(utc_s=utc, power=np.ones(200))
    ra = narrow.ra_hr()
    power = 1.0 + 0.05 * np.exp(-0.5 * ((ra - 5.25) / sigma_hr) ** 2)
    with pytest.raises(ValidationError):
        fit_gauss_flat(DriftScan(utc_s=utc, power=power))


def test_fit_report_roundtrip(tmp_path):
    scan, _, _ = _make_scan(9.0, 0.18, 3)
    fit = fit_gauss_flat(scan)
    path = tmp_path / "fit.txt"
    write_fit_report(path, fit)
    text = path.read_text()
    keys = [line.split("=")[0].strip() for line in text.splitlines() if line]
    assert keys == sorted(keys)
    assert "fwhm_ra_deg" in text


def test_drift_scan_csv(tmp_path):
    path = tmp_path / "scan.csv"
    path.write_text("utc_s,power\n100.0,1.5\n101.0,1.6\n")
    scan = read_drift_scan_csv(path)
    assert scan.utc_s.tolist() == [100.0, 101.0]
    assert scan.power.tolist() == [1.5, 1.6]


@pytest.mark.parametrize("header", ["", "utc_s,power\n"],
                         ids=["headerless", "header"])
def test_drift_scan_csv_drops_a_byte_order_mark(tmp_path, header):
    # the mark is no part of the first cell, which would then not parse
    text = header + "1.0,2.0\n2.0,3.0\n3.0,4.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    scan, expected = read_drift_scan_csv(marked), read_drift_scan_csv(plain)
    assert scan.utc_s.tolist() == expected.utc_s.tolist() == [1.0, 2.0, 3.0]
    assert scan.power.tolist() == expected.power.tolist() == [2.0, 3.0, 4.0]
    # what follows the mark must still be UTF-8
    marked.write_bytes(b"\xef\xbb\xbf" + (text + "4.0,caf\u00e9\n")
                       .encode("latin-1"))
    with pytest.raises(ValidationError, match="not UTF-8"):
        read_drift_scan_csv(marked)


def test_tau_int_scan_recovers_delay():
    east, west, rf = calibrator_frames(64, 0.5, -96.0e-9, seed=3)
    best, step = tau_int_scan(east, west, rf,
                              tap_range_s=(-512.0e-9, 512.0e-9),
                              tap_step_s=4.0e-9)
    assert step == 4.0e-9
    assert abs(best - (-96.0e-9)) <= step


def test_tau_int_scan_rejects_pure_noise():
    east, west, rf = calibrator_frames(64, 0.0, 0.0, seed=4)
    with pytest.raises(ValidationError):
        tau_int_scan(east, west, rf, tap_range_s=(-512.0e-9, 512.0e-9),
                     tap_step_s=4.0e-9)
