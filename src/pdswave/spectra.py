"""Eigenvalue extraction from probe signals by discrete Fourier analysis.

A probe signal of a free wave is a superposition of cos(q t) tones at the
square roots of the Laplace-Beltrami eigenvalues (plus an affine-in-t part
from the zero mode).  Peaks of the DFT magnitude give the q's, refined by
parabolic interpolation, and are matched against the exactly known
spectrum q^2 = beta^2 - 1 of the dodecahedral space.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import TooShort

# admissible beta: the sporadic low values, then every odd integer >= 61
_BETA_BASE = (1, 13, 21, 25, 31, 33, 37, 41, 43, 45, 49, 51, 53, 55, 57)


def exact_spectrum(count: int) -> np.ndarray:
    """First `count` rows of (beta, q^2 = beta^2 - 1), increasing in q^2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    betas = list(_BETA_BASE)
    b = 61
    while len(betas) < count:
        betas.append(b)
        b += 2
    betas = np.array(betas[:count], dtype=float)
    return np.column_stack([betas, betas ** 2 - 1.0])


@dataclass
class MagnitudeSpectrum:
    magnitude: np.ndarray     # bins 0 .. n_fft//2
    n_signal: int             # samples actually recorded
    n_fft: int                # padded transform length
    dt: float

    def bin_to_q(self, j) -> np.ndarray:
        return 2.0 * math.pi * np.asarray(j, dtype=float) / (self.n_fft * self.dt)

    @property
    def resolution(self) -> float:
        """Frequency resolution of the recording window, 2 pi / (N dt)."""
        return 2.0 * math.pi / (self.n_signal * self.dt)


def dft_magnitude(signal: np.ndarray, dt: float,
                  window: str | None = None) -> MagnitudeSpectrum:
    """Magnitude spectrum of a real signal, zero-padded to a fast length."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"sample spacing dt must be finite and positive, got {dt}")
    signal = np.asarray(signal, dtype=float)
    n = len(signal)
    if n < 16:
        raise TooShort(f"signal has {n} samples, need at least 16")
    if window == "hann":
        signal = signal * np.hanning(n)
    elif window is not None:
        raise ValueError(f"unknown window {window!r}")
    n_fft = scipy.fft.next_fast_len(n)
    mag = np.abs(scipy.fft.rfft(signal, n=n_fft))
    return MagnitudeSpectrum(magnitude=mag, n_signal=n, n_fft=n_fft, dt=dt)


@dataclass
class Peak:
    q: float
    q_squared: float
    bin: float                # fractional bin after parabolic refinement
    magnitude: float


def find_peaks(spec: MagnitudeSpectrum, min_prominence: float = 0.01,
               max_peaks: int | None = None) -> list[Peak]:
    """Local maxima above min_prominence times the global maximum, bin 0 excluded.

    The zero mode contributes an affine-in-time term handled separately,
    so the search starts at bin 1.  Peak positions are refined by a
    three-point parabola through the log magnitudes.
    """
    m = spec.magnitude
    if len(m) < 4:
        return []
    interior = m[1:-1]
    floor = min_prominence * (m[1:].max() if m[1:].size else 0.0)
    idx = np.nonzero((interior >= m[:-2]) & (interior > m[2:])
                     & (interior > floor))[0] + 1
    idx = idx[idx >= 2]   # a maximum at bin 1 is leakage from the zero mode
    peaks = []
    for j in idx:
        delta = 0.0
        if m[j - 1] > 0 and m[j] > 0 and m[j + 1] > 0:
            la, lb, lc = math.log(m[j - 1]), math.log(m[j]), math.log(m[j + 1])
            denom = la - 2 * lb + lc
            if abs(denom) > 1e-300:
                delta = 0.5 * (la - lc) / denom
                delta = max(-0.5, min(0.5, delta))
        q = float(spec.bin_to_q(j + delta))
        peaks.append(Peak(q=q, q_squared=q * q, bin=j + delta, magnitude=float(m[j])))
    peaks.sort(key=lambda p: -p.magnitude)
    if max_peaks is not None:
        peaks = peaks[:max_peaks]
    peaks.sort(key=lambda p: p.q)
    return peaks


def average_spectra(spectra: list[MagnitudeSpectrum]) -> MagnitudeSpectrum:
    """Incoherent average over probes; suppresses per-probe nodal-line misses."""
    ref = spectra[0]
    for s in spectra[1:]:
        if s.n_fft != ref.n_fft or s.dt != ref.dt:
            raise ValueError("spectra to average must share window and step")
    mag = np.mean([s.magnitude for s in spectra], axis=0)
    return MagnitudeSpectrum(magnitude=mag, n_signal=ref.n_signal,
                             n_fft=ref.n_fft, dt=ref.dt)


@dataclass
class Match:
    beta: float
    exact_q2: float
    detected_q2: float
    relative_error: float


@dataclass
class SpectrumReport:
    peaks: list                       # all detected Peak objects
    matches: list                     # Match per exact value found
    missing: list                     # (beta, exact q^2) rows with no peak
    resolution: float                 # frequency resolution in q
    match_tolerance: float = 0.05
    meta: dict = field(default_factory=dict)
    # probe-averaged magnitudes the peaks were taken from; not part of to_json
    spectrum: MagnitudeSpectrum | None = field(default=None, repr=False)

    def to_json(self) -> str:
        out = {
            "resolution": self.resolution,
            "match_tolerance": self.match_tolerance,
            "peaks": [vars(p) for p in self.peaks],
            "matches": [vars(m) for m in self.matches],
            "missing": [{"beta": b, "exact_q2": e} for b, e in self.missing],
            "meta": self.meta,
        }
        return json.dumps(out, indent=1)

    def table(self) -> str:
        lines = [f"{'beta':>6} {'exact q^2':>12} {'numerical':>14} {'relative error':>15}"]
        found = {m.beta: m for m in self.matches}
        rows = sorted([(m.beta, m) for m in self.matches]
                      + [(b, None) for b, _ in self.missing])
        for beta, m in rows:
            if m is None:
                q2 = beta ** 2 - 1
                lines.append(f"{beta:>6.0f} {q2:>12.0f} {'missing':>14} {'-':>15}")
            else:
                lines.append(f"{beta:>6.0f} {m.exact_q2:>12.0f} "
                             f"{m.detected_q2:>14.4f} {m.relative_error:>15.7e}")
        return "\n".join(lines)


def match_eigenvalues(peaks: list, exact: np.ndarray, tol: float = 0.05, *,
                      resolution: float = 0.0) -> SpectrumReport:
    """Greedy nearest matching of detected q against exact sqrt(beta^2 - 1).

    Matching happens in q with relative tolerance `tol`; reported errors are
    on q^2.  Exact values with no surviving peak are listed as missing
    (probes can sit on nodal lines; use several probes to mitigate).
    `resolution` is the frequency resolution in q of the spectrum the peaks
    came from, stored in the report (0.0 when unknown).
    """
    peaks = sorted(peaks, key=lambda p: p.q)
    qs = np.array([p.q for p in peaks])
    used = np.zeros(len(peaks), dtype=bool)
    matches = []
    missing = []
    for beta, q2 in exact:
        if q2 <= 0:
            continue                       # the zero mode is not an oscillation
        q = math.sqrt(q2)
        if len(qs) == 0:
            missing.append((beta, q2))
            continue
        order = np.argsort(np.abs(qs - q))
        pick = next((int(k) for k in order if not used[k]), None)
        if pick is None or abs(qs[pick] - q) > tol * q:
            missing.append((beta, q2))
            continue
        used[pick] = True
        det = peaks[pick].q_squared
        matches.append(Match(beta=float(beta), exact_q2=float(q2),
                             detected_q2=det,
                             relative_error=abs(det - q2) / q2))
    return SpectrumReport(peaks=peaks, matches=matches, missing=missing,
                          resolution=resolution, match_tolerance=tol)


def analyze_probe_signals(signals: np.ndarray, dt: float, count: int = 10,
                          min_prominence: float = 0.01, tol: float = 0.05,
                          window: str | None = None) -> SpectrumReport:
    """DFT each probe column, average magnitudes, detect and match peaks.

    `signals` is (samples, probes), probes >= 1; a 1-D array is one probe.
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    elif signals.ndim != 2 or signals.shape[1] == 0:
        raise ValueError(f"signals must be (samples, probes >= 1), got shape {signals.shape}")
    spectra = [dft_magnitude(signals[:, k], dt, window=window)
               for k in range(signals.shape[1])]
    avg = average_spectra(spectra)
    peaks = find_peaks(avg, min_prominence=min_prominence)
    report = match_eigenvalues(peaks, exact_spectrum(count), tol=tol,
                               resolution=avg.resolution)
    report.spectrum = avg
    report.meta = {"n_signal": avg.n_signal, "n_fft": avg.n_fft,
                   "dt": dt, "probes": signals.shape[1]}
    return report
