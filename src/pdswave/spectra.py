"""Eigenvalue extraction from probe signals by discrete Fourier analysis.

A probe signal of a free wave is a superposition of cos(q t) tones at the
square roots of the Laplace-Beltrami eigenvalues (plus an affine-in-t part
from the zero mode).  Peaks of the unwindowed DFT magnitude give the q's,
refined by parabolic interpolation, and are matched against the exact
spectrum q^2 = beta^2 - 1 of the dodecahedral space.  The admissible beta and
their multiplicities come from the characters of the 120 icosians: the
eigenvalue with beta = k + 1 has multiplicity beta * d_k, where d_k counts
the invariants of degree k (Ikeda 1980; Lachieze-Rey & Caillerie 2005).

The leapfrog of step dt moves a discrete eigenvalue mu to the frequency q
with sin(q dt / 2) = (dt / 2) sqrt(mu), so each match also inverts its
detected q to mu = (2 / dt sin(q dt / 2))^2, the discrete eigenvalue the
tone comes from; matching itself stays on q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import GenerationDiverged, TooShort
from .icosian import generate_group


# degrees per block of the character sums, whose temporaries then do not grow with kmax
K_BLOCK = 4096


def invariant_counts(kmax: int) -> np.ndarray:
    """d_k, k < kmax: (1/120) sum_g sin((k+1) chi_g) / sin chi_g over the 120 icosians.

    The sum runs once per distinct chi, times its class size, in blocks of
    K_BLOCK degrees; at chi in {0, pi} the term is its limit (k+1) cos(k chi).
    """
    chis = generate_group().chi
    _, first, sizes = np.unique(np.round(chis, 9), return_index=True, return_counts=True)
    chi = chis[first, None]
    pole = np.abs(np.sin(chi)) < 1e-9
    d = np.empty(kmax, dtype=np.int64)
    for start in range(0, kmax, K_BLOCK):
        k = np.arange(start, min(start + K_BLOCK, kmax))
        s = sizes @ np.where(pole, (k + 1) * np.cos(k * chi),
                             np.sin((k + 1) * chi) / np.sin(np.where(pole, 1.0, chi))) / len(chis)
        if np.abs(s - np.rint(s)).max(initial=0.0) > 1e-9:
            raise GenerationDiverged("a character sum over the group is not an integer")
        d[k] = np.rint(s)
    return d


def exact_spectrum(count: int) -> np.ndarray:
    """First `count` rows of (beta, q^2 = beta^2 - 1), increasing in q^2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    # By the Molien series (1 + t^30) / ((1 - t^12)(1 - t^20)) every even
    # k >= 60 has d_k >= 1, and 15 degrees below 60 do, so these suffice.
    betas = np.flatnonzero(invariant_counts(2 * count + 60))[:count] + 1.0
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


def dft_magnitude(signals: np.ndarray, dt: float) -> MagnitudeSpectrum:
    """Probe-averaged unwindowed magnitude spectrum, zero-padded to a fast length.

    `signals` is (samples, probes), probes >= 1; a 1-D array is one probe.
    The incoherent average over probes suppresses per-probe nodal-line misses.
    """
    signals = np.asarray(signals, dtype=float)
    if signals.ndim == 1:
        signals = signals[:, None]
    elif signals.ndim != 2 or signals.shape[1] == 0:
        raise ValueError(f"signals must be (samples, probes >= 1), got shape {signals.shape}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"sample spacing dt must be finite and positive, got {dt}")
    n = len(signals)
    if n < 16:
        raise TooShort(f"signal has {n} samples, need at least 16")
    n_fft = scipy.fft.next_fast_len(n)
    mag = np.abs(scipy.fft.rfft(signals.T, n=n_fft)).mean(axis=0)
    return MagnitudeSpectrum(magnitude=mag, n_signal=n, n_fft=n_fft, dt=dt)


@dataclass
class Peak:
    q: float
    q_squared: float
    bin: float                # fractional bin after parabolic refinement
    magnitude: float


def find_peaks(spec: MagnitudeSpectrum, min_prominence: float = 0.01) -> list[Peak]:
    """Local maxima above min_prominence times the global maximum, bin 0 excluded.

    The zero mode contributes an affine-in-time term handled separately,
    so the search starts at bin 1.  Peak positions are refined by a
    three-point parabola through the log magnitudes.  The peaks come in
    increasing q: two adjacent bins cannot both be strict local maxima, and
    the refinement moves a peak by at most half a bin.
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
    return peaks


def leapfrog_eigenvalue(q, dt: float):
    """mu = (2 / dt sin(q dt / 2))^2, whose leapfrog frequency at step dt is
    q; q^2 at dt = 0."""
    q = np.asarray(q, dtype=float)
    if dt == 0:
        return q * q
    return (2.0 / dt * np.sin(0.5 * q * dt)) ** 2


@dataclass
class Match:
    beta: float
    exact_q2: float
    detected_q2: float
    relative_error: float
    detected_mu: float        # the detected q inverted through the leapfrog


@dataclass
class SpectrumReport:
    peaks: list                       # all detected Peak objects
    matches: list                     # Match per exact value found
    missing: list                     # (beta, exact q^2) rows with no peak
    resolution: float                 # frequency resolution in q
    match_tolerance: float
    meta: dict
    # probe-averaged magnitudes the peaks were taken from; not part of to_json
    spectrum: MagnitudeSpectrum = field(repr=False)

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
        rows = sorted([(m.beta, m.exact_q2, f"{m.detected_q2:>14.4f} {m.relative_error:>15.7e}")
                       for m in self.matches]
                      + [(b, q2, f"{'missing':>14} {'-':>15}") for b, q2 in self.missing])
        lines += [f"{beta:>6.0f} {q2:>12.0f} {rest}" for beta, q2, rest in rows]
        return "\n".join(lines)


def match_eigenvalues(peaks: list, exact: np.ndarray,
                      tol: float = 0.05, dt: float = 0.0) -> tuple[list, list]:
    """Greedy nearest matching of detected q against exact sqrt(beta^2 - 1).

    Matching happens in q with relative tolerance `tol`; reported errors are
    on q^2.  Each match also carries the detected q inverted through a
    leapfrog of step `dt` (q^2 for the default dt = 0, a signal continuous
    in time).  Returns the Match of each exact value found and the (beta,
    exact q^2) rows with no surviving peak (probes can sit on nodal lines;
    use several probes to mitigate).
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
                             relative_error=abs(det - q2) / q2,
                             detected_mu=float(leapfrog_eigenvalue(peaks[pick].q, dt))))
    return matches, missing


def analyze_probe_signals(signals: np.ndarray, dt: float, count: int = 10,
                          min_prominence: float = 0.01, tol: float = 0.05) -> SpectrumReport:
    """DFT the probe columns (unwindowed), average magnitudes, detect and match peaks.

    `signals` is (samples, probes), probes >= 1; a 1-D array is one probe.
    """
    spec = dft_magnitude(signals, dt)
    peaks = find_peaks(spec, min_prominence=min_prominence)
    matches, missing = match_eigenvalues(peaks, exact_spectrum(count), tol=tol, dt=dt)
    meta = {"n_signal": spec.n_signal, "n_fft": spec.n_fft, "dt": dt,
            "probes": 1 if np.ndim(signals) == 1 else np.shape(signals)[1]}
    return SpectrumReport(peaks=peaks, matches=matches, missing=missing,
                          resolution=spec.resolution, match_tolerance=tol,
                          meta=meta, spectrum=spec)
