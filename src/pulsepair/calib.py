"""Pointing, timing, and calibration for a two-element drift-scan interferometer.

Timing uses mean sidereal time computed from the Unix epoch (UT1 == UTC is
assumed; good to well under a second over a decade, which is negligible
against 0.1 hr RA bins).  Pointing converts a small azimuth offset from due
south into an hour-angle offset at constant declination.  The drift-scan
fitter is a hand-rolled damped Gauss-Newton for a Gaussian-plus-flat profile:
the problem is tiny (4 parameters, hundreds of samples) and a fixed,
dependency-free implementation keeps reruns byte-identical.

The instrument-delay calibration `tau_int_scan` implements a coherent lag
search over the cross spectrum of a broadband correlated calibration source:
in simulation, sigsim.simulate_frames with a delayed broadband_flat RfiSpec.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channelizer import fringe_phase
from .errors import ValidationError
from .kvconfig import write_kv_file

# Mean sidereal rate constants. GMST(D) = 18.697374558 + 24.06570982441908 D
# with D in UT1 days from J2000 (JD 2451545.0); Unix epoch is JD 2440587.5.
GMST_AT_J2000_HR = 18.697374558
GMST_RATE_HR_PER_DAY = 24.06570982441908
UNIX_EPOCH_JD = 2440587.5
J2000_JD = 2451545.0
SIDEREAL_DAY_S = 86400.0 * 24.0 / GMST_RATE_HR_PER_DAY  # 86164.0905 s

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))

# fit_gauss_flat stops after FIT_MAX_ITER steps, or once no parameter moves
# by more than FIT_RTOL of itself
FIT_MAX_ITER = 200
FIT_RTOL = 1e-9


def lst_hours(utc_s, longitude_deg: float):
    """Local mean sidereal time in hours for Unix time(s) `utc_s`.

    East longitudes are positive degrees.
    """
    if not -180.0 <= longitude_deg <= 180.0:
        raise ValidationError(f"longitude {longitude_deg} outside [-180, 180]")
    utc = np.asarray(utc_s, dtype=float)
    days_from_j2000 = utc / 86400.0 + (UNIX_EPOCH_JD - J2000_JD)
    gmst = GMST_AT_J2000_HR + GMST_RATE_HR_PER_DAY * days_from_j2000
    return np.mod(gmst + longitude_deg / 15.0, 24.0)


def utc_at_lst(lst_hr: float, longitude_deg: float,
               near_utc_s: float = 0.0) -> float:
    """Earliest Unix time >= `near_utc_s` at which the LST equals `lst_hr`."""
    if not 0.0 <= lst_hr < 24.0:
        raise ValidationError(f"lst_hr {lst_hr} outside [0, 24)")
    # Invert gmst + lon/15 = lst (mod 24) for utc.
    offset_hr = GMST_AT_J2000_HR + GMST_RATE_HR_PER_DAY * (UNIX_EPOCH_JD - J2000_JD)
    target = lst_hr - longitude_deg / 15.0 - offset_hr
    utc = (target % 24.0) * 86400.0 / GMST_RATE_HR_PER_DAY
    return utc + math.ceil((near_utc_s - 1e-6 - utc)
                           / SIDEREAL_DAY_S) * SIDEREAL_DAY_S


def pointing_ra_hr(lst_hr, azimuth_deg: float, dec_deg: float,
                   latitude_deg: float):
    """Right ascension (hours) of the beam center for a meridian drift scan.

    Valid only near due south: a small azimuth offset maps to an hour-angle
    offset dHA = (az - 180) cos(alt) / (15 cos(dec)) hours at transit
    altitude alt = 90 - |lat - dec|.  Array-aware in `lst_hr`.
    """
    if abs(azimuth_deg - 180.0) >= 5.0:
        raise ValidationError(
            f"azimuth {azimuth_deg} deg is more than 5 deg from due south; "
            "the small-offset pointing model does not apply")
    if not -90.0 < dec_deg < 90.0:
        raise ValidationError(f"declination {dec_deg} outside (-90, 90)")
    if not -90.0 <= latitude_deg <= 90.0:
        raise ValidationError(f"latitude {latitude_deg} outside [-90, 90]")
    alt_deg = 90.0 - abs(latitude_deg - dec_deg)
    dha_hr = ((azimuth_deg - 180.0) * math.cos(math.radians(alt_deg))
              / (15.0 * math.cos(math.radians(dec_deg))))
    return np.mod(np.asarray(lst_hr, dtype=float) + dha_hr, 24.0)


@dataclass
class DriftScan:
    """A total-power drift scan: samples of one element's continuum power.

    utc_s must be strictly increasing. Power is in arbitrary linear units.
    The longitude maps each sample's UTC to the meridian's RA.
    """

    utc_s: np.ndarray
    power: np.ndarray
    longitude_deg: float = -79.8398

    def __post_init__(self):
        self.utc_s = np.asarray(self.utc_s, dtype=float)
        self.power = np.asarray(self.power, dtype=float)
        if self.utc_s.ndim != 1 or self.power.ndim != 1:
            raise ValidationError("utc_s and power must be 1-D")
        if self.utc_s.size != self.power.size:
            raise ValidationError(
                f"utc_s has {self.utc_s.size} samples, power has {self.power.size}")
        if self.utc_s.size >= 2 and not np.all(np.diff(self.utc_s) > 0):
            raise ValidationError("utc_s must be strictly increasing")
        if not np.all(np.isfinite(self.power)):
            raise ValidationError("power contains non-finite values")

    def ra_hr(self) -> np.ndarray:
        """Pointing RA per sample, unwrapped so the scan is monotonic.

        Drift scans advance in RA at the sidereal rate; a scan that crosses
        0 hr would otherwise wrap and break the profile fit.
        """
        ra = lst_hours(self.utc_s, self.longitude_deg)
        # Undo 24 hr wraps; RA increases monotonically during a drift scan.
        jumps = np.diff(ra) < -12.0
        ra[1:] += 24.0 * np.cumsum(jumps)
        return ra


@dataclass
class GaussFlatFit:
    """Result of fitting power(ra) = floor + amplitude * exp(-(ra-c)^2/(2 s^2))."""

    amplitude: float
    center_ra_hr: float
    sigma_ra_hr: float
    floor: float
    residual_rms: float
    converged: bool
    n_iter: int

    @property
    def fwhm_ra_hr(self) -> float:
        return FWHM_PER_SIGMA * self.sigma_ra_hr

    @property
    def fwhm_ra_deg(self) -> float:
        """FWHM as an RA angle in degrees (15 deg per hour)."""
        return self.fwhm_ra_hr * 15.0


def _gauss_flat_model(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    floor, amp, center, sigma = theta
    z = (x - center) / sigma
    return floor + amp * np.exp(-0.5 * z * z)


def _initial_guess(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    floor0 = float(np.median(y))
    imax = int(np.argmax(y))
    amp0 = float(y[imax] - floor0)
    center0 = float(x[imax])
    # Sigma from the half-max crossings nearest the peak.
    half = floor0 + 0.5 * amp0
    above = y >= half
    left = imax
    while left > 0 and above[left - 1]:
        left -= 1
    right = imax
    while right < len(y) - 1 and above[right + 1]:
        right += 1
    if left == 0 and right == len(y) - 1:
        width = (x[-1] - x[0]) / 2.0
    else:
        width = max(x[right] - x[left], 2.0 * float(np.mean(np.diff(x))))
    sigma0 = width / FWHM_PER_SIGMA
    return np.array([floor0, amp0, center0, sigma0])


def fit_gauss_flat(scan: DriftScan) -> GaussFlatFit:
    """Fit a Gaussian on a flat floor to a drift scan.

    Damped Gauss-Newton with Levenberg-style diagonal damping and a
    deterministic initial guess (floor = median, amplitude = max - median,
    center = argmax, sigma from half-max crossings).  Convergence when the
    largest relative parameter step falls below FIT_RTOL; `converged` is
    False if FIT_MAX_ITER iterations are exhausted first.  Raises
    ValidationError for scans that cannot constrain the model: too few
    samples, no peak above the floor, or a fitted width wider than the scan
    itself.
    """
    x = scan.ra_hr()
    y = scan.power.astype(float)
    if x.size < 8:
        raise ValidationError(f"need at least 8 samples, got {x.size}")
    theta = _initial_guess(x, y)
    if theta[1] <= 0 or not np.isfinite(theta).all():
        raise ValidationError("degenerate scan: no peak above the median floor")
    if theta[3] <= 0:
        raise ValidationError("degenerate scan: zero width estimate")
    span = x[-1] - x[0]

    lam = 1e-3
    resid = y - _gauss_flat_model(theta, x)
    cost = float(resid @ resid)
    converged = False
    n_iter = 0
    for n_iter in range(1, FIT_MAX_ITER + 1):
        floor, amp, center, sigma = theta
        z = (x - center) / sigma
        g = np.exp(-0.5 * z * z)
        jac = np.column_stack([
            np.ones_like(x),          # d/d floor
            g,                        # d/d amplitude
            amp * g * z / sigma,      # d/d center
            amp * g * z * z / sigma,  # d/d sigma
        ])
        grad = jac.T @ resid
        hess = jac.T @ jac
        step_ok = False
        for _ in range(50):
            damped = hess + lam * np.diag(np.diag(hess))
            try:
                delta = np.linalg.solve(damped, grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + delta
            if trial[3] <= 0:
                lam *= 10.0
                continue
            trial_resid = y - _gauss_flat_model(trial, x)
            trial_cost = float(trial_resid @ trial_resid)
            if trial_cost <= cost:
                step_ok = True
                break
            lam *= 10.0
        if not step_ok:
            break
        rel_step = float(np.max(np.abs(delta) / (np.abs(theta) + 1e-12)))
        theta, resid, cost = trial, trial_resid, trial_cost
        lam = max(lam / 3.0, 1e-12)
        if rel_step < FIT_RTOL:
            converged = True
            break

    floor, amp, center, sigma = theta
    # a peak wider than the scan leaves floor and width degenerate
    if FWHM_PER_SIGMA * abs(sigma) >= span:
        raise ValidationError(
            f"fitted FWHM {FWHM_PER_SIGMA * abs(sigma):.3f} hr does not fit "
            f"inside the {span:.3f} hr scan; width is unconstrained")
    return GaussFlatFit(
        amplitude=float(amp),
        center_ra_hr=float(center % 24.0),
        sigma_ra_hr=float(abs(sigma)),
        floor=float(floor),
        residual_rms=float(np.sqrt(cost / x.size)),
        converged=converged,
        n_iter=n_iter,
    )


def continuum_snr_db(fit: GaussFlatFit) -> float:
    """Source-on vs source-off power ratio of a converged fit, in dB."""
    if not fit.converged:
        raise ValidationError("fit did not converge; continuum ratio undefined")
    if fit.floor <= 0:
        raise ValidationError(f"non-positive floor {fit.floor}")
    if fit.amplitude <= 0:
        raise ValidationError(f"non-positive amplitude {fit.amplitude}")
    return 10.0 * math.log10((fit.floor + fit.amplitude) / fit.floor)


def read_drift_scan_csv(path, longitude_deg: float = -79.8398) -> DriftScan:
    """Load a two-column CSV (utc_s, power) into a DriftScan.

    A single non-numeric header row is tolerated and skipped, and a UTF-8
    byte-order mark is dropped.
    """
    utc, power = [], []
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not UTF-8 text: {exc.reason}") from None
    for i, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ValidationError(f"{path}: line {i}: expected 2 columns")
        try:
            utc.append(float(row[0]))
            power.append(float(row[1]))
        except ValueError:
            if i == 1:
                continue  # header
            raise ValidationError(f"{path}: line {i}: non-numeric row") from None
    if not utc:
        raise ValidationError(f"{path}: no data rows")
    return DriftScan(np.array(utc), np.array(power), longitude_deg)


def write_fit_report(path, fit: GaussFlatFit, extra: dict | None = None) -> None:
    """Write a fit as sorted `key = value` lines (byte-stable across reruns)."""
    rows = {
        "amplitude": f"{fit.amplitude:.8g}",
        "center_ra_hr": f"{fit.center_ra_hr:.8g}",
        "sigma_ra_hr": f"{fit.sigma_ra_hr:.8g}",
        "fwhm_ra_hr": f"{fit.fwhm_ra_hr:.8g}",
        "fwhm_ra_deg": f"{fit.fwhm_ra_deg:.8g}",
        "floor": f"{fit.floor:.8g}",
        "residual_rms": f"{fit.residual_rms:.8g}",
        "converged": str(fit.converged).lower(),
        "n_iter": str(fit.n_iter),
    }
    if extra:
        rows.update({k: str(v) for k, v in extra.items()})
    write_kv_file(path, rows)


def tau_int_scan(east_frames, west_frames, rf_freqs_hz,
                 tap_range_s: tuple[float, float],
                 tap_step_s: float) -> tuple[float, float]:
    """Coherent instrument-delay search over correlated broadband frames.

    Accumulates the cross spectrum sum_frames E_k conj(W_k) and scans
    compensating delays tau over [tap_range_s[0], tap_range_s[1]] in steps of
    `tap_step_s`, scoring |sum_k X_k exp(-2j pi f_k tau)|.  Returns
    (best_tau_s, tap_step_s): the quoted uncertainty is one tap step.

    Raises ValidationError when no significant correlated signal is present
    (peak less than 5 robust sigma above the scan median), so a pure-noise
    input cannot silently return a bogus delay.

    Assumes the west element lags the east one by the physical delay:
    phase(W) - phase(E) = channelizer.fringe_phase(f, tau), as simulated.
    The calibrator is a broadband_flat emitter reaching the west element
    sidelobe_delay_s late: simulate_frames(mode="freq") draws its frames.
    """
    lo, hi = tap_range_s
    if not (hi > lo) or tap_step_s <= 0:
        raise ValidationError("bad tap range or step")
    freqs = np.asarray(rf_freqs_hz, dtype=float)
    cross = np.zeros(freqs.size, dtype=complex)
    n_frames = 0
    for east, west in zip(east_frames, west_frames):
        east = np.asarray(east)
        west = np.asarray(west)
        if east.size != freqs.size or west.size != freqs.size:
            raise ValidationError("frame length does not match rf_freqs_hz")
        cross += east * np.conj(west)
        n_frames += 1
    if n_frames == 0:
        raise ValidationError("no frames supplied")

    taps = np.arange(lo, hi + 0.5 * tap_step_s, tap_step_s)
    phase = np.exp(1j * fringe_phase(freqs, taps[:, None]))
    response = np.abs(phase @ cross)
    med = float(np.median(response))
    mad = float(np.median(np.abs(response - med)))
    spread = 1.4826 * mad + 1e-300
    peak = float(np.max(response))
    if (peak - med) / spread < 5.0:
        raise ValidationError(
            "no correlated tone: delay-scan peak is not significant "
            f"((peak-median)/sigma = {(peak - med) / spread:.2f} < 5)")
    return float(taps[int(np.argmax(response))]), float(tap_step_s)
