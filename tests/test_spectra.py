import json
import math
import tracemalloc

import numpy as np
import pytest

from pdswave import spectra
from pdswave.errors import TooShort
from pdswave.icosian import generate_group
from pdswave.spectra import (MagnitudeSpectrum, Peak, SpectrumReport,
                             analyze_probe_signals, dft_magnitude, exact_spectrum,
                             find_peaks, invariant_counts, leapfrog_eigenvalue,
                             match_eigenvalues)

# the admissible beta as a table: the sporadic low values, then every odd
# integer >= 61; the reference for the values derived from the group
BETA_TABLE = (1, 13, 21, 25, 31, 33, 37, 41, 43, 45, 49, 51, 53, 55, 57)


def tabulated_spectrum(count):
    betas = list(BETA_TABLE)
    b = 61
    while len(betas) < count:
        betas.append(b)
        b += 2
    betas = np.array(betas[:count], dtype=float)
    return np.column_stack([betas, betas ** 2 - 1.0])


class TestExactSpectrum:
    def test_first_entries(self):
        es = exact_spectrum(4)
        assert es[0].tolist() == [1, 0]
        assert es[1].tolist() == [13, 168]
        assert es[2].tolist() == [21, 440]

    def test_beta_61(self):
        es = exact_spectrum(16)
        assert es[-1].tolist() == [61, 3720]

    def test_strictly_increasing_and_tail(self):
        es = exact_spectrum(40)
        assert np.all(np.diff(es[:, 1]) > 0)
        # after the sporadic block every odd beta appears
        tail = es[15:, 0]
        assert np.array_equal(tail, np.arange(61, 61 + 2 * len(tail), 2))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            exact_spectrum(0)

    def test_invariant_counts_are_the_molien_series(self):
        # (1 + t^30) / ((1 - t^12)(1 - t^20)), the Molien series of the group
        kmax = 400
        series = np.zeros(kmax, dtype=np.int64)
        for a in range(0, kmax, 12):
            for b in range(0, kmax - a, 20):
                series[a + b] += 1
        series[30:] += series[:-30].copy()
        assert np.array_equal(invariant_counts(kmax), series)

    def test_derived_betas_are_the_table(self):
        d = invariant_counts(57)
        assert tuple(int(k) + 1 for k in np.flatnonzero(d)) == BETA_TABLE

    def test_multiplicities_below_79(self):
        d = invariant_counts(78)
        betas = np.flatnonzero(d) + 1
        assert set(d[betas - 1]) == {1, 2}
        assert {int(b): int(b * d[b - 1]) for b in betas if d[b - 1] == 2} == {61: 122, 73: 146}

    def test_bytes_match_the_table(self):
        # the last two counts sum the characters over several blocks of degrees
        for count in [*range(1, 400), 10 ** 4, 10 ** 5]:
            assert exact_spectrum(count).tobytes() == tabulated_spectrum(count).tobytes(), count

    @pytest.mark.parametrize("count", [1, 7, 15, 16, 10 ** 5])
    def test_one_character_sum_per_call(self, monkeypatch, count):
        # each degree is summed once: one invariant_counts call sized from the
        # Molien series
        calls = []

        def counting(kmax):
            calls.append(kmax)
            return invariant_counts(kmax)
        monkeypatch.setattr(spectra, "invariant_counts", counting)
        assert exact_spectrum(count).tobytes() == tabulated_spectrum(count).tobytes()
        assert calls == [2 * count + 60]

    def test_memory_is_bounded_by_the_output(self):
        # the character sums run in blocks of degrees, so the peak stays near
        # the int64 d_k and the (count, 2) result
        generate_group()
        tracemalloc.start()
        try:
            exact_spectrum(10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


class TestDft:
    def test_constant_signal_energy_in_bin_zero(self):
        spec = dft_magnitude(np.full(64, 2.5), dt=0.1)
        assert spec.magnitude[0] == pytest.approx(2.5 * spec.n_fft / spec.n_fft * 64)
        assert spec.magnitude[1:].max() < 1e-12
        assert find_peaks(spec) == []

    def test_synthetic_tone_bin(self):
        dt = 5e-4
        n = 104971
        q = math.sqrt(168.0)
        t = np.arange(n) * dt
        spec = dft_magnitude(np.cos(q * t), dt)
        j_expected = round(q * spec.n_fft * dt / (2 * math.pi))
        assert int(spec.magnitude[1:].argmax()) + 1 == j_expected

    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4096)
        lhs = float((x ** 2).sum())
        rhs = float((np.abs(np.fft.fft(x)) ** 2).sum()) / len(x)
        assert abs(lhs - rhs) / lhs < 1e-10

    def test_too_short(self):
        with pytest.raises(TooShort):
            dft_magnitude(np.zeros(15), dt=0.1)


class TestFindPeaks:
    def synth(self, qs, amps, dt=1e-3, n=60000):
        t = np.arange(n) * dt
        sig = sum(a * np.cos(q * t) for q, a in zip(qs, amps))
        return dft_magnitude(sig, dt)

    def test_single_tone_within_one_bin(self):
        q = math.sqrt(168.0)
        spec = self.synth([q], [1.0])
        peaks = find_peaks(spec)
        assert len(peaks) == 1
        assert abs(peaks[0].q - q) < spec.resolution

    def test_two_tones_ordered(self):
        q1, q2 = math.sqrt(168.0), math.sqrt(440.0)
        peaks = find_peaks(self.synth([q1, q2], [1.0, 0.7]))
        assert len(peaks) == 2
        assert peaks[0].q < peaks[1].q
        assert abs(peaks[0].q - q1) < 0.02 and abs(peaks[1].q - q2) < 0.02

    def test_noise_under_tone(self):
        rng = np.random.default_rng(1)
        dt, n = 1e-3, 60000
        t = np.arange(n) * dt
        sig = np.cos(math.sqrt(168.0) * t) + 1e-12 * rng.standard_normal(n)
        peaks = find_peaks(dft_magnitude(sig, dt), min_prominence=0.01)
        assert len(peaks) == 1


class TestMatch:
    def peak(self, q2):
        return Peak(q=math.sqrt(q2), q_squared=q2, bin=0.0, magnitude=1.0)

    def test_paper_style_error_value(self):
        # 167.6126 is a 4-decimal rounding of the underlying detection, so the
        # reference error 2.3060753e-3 is reproduced to that rounding level
        matches, _ = match_eigenvalues([self.peak(167.6126)], exact_spectrum(2))
        assert len(matches) == 1
        assert matches[0].relative_error == pytest.approx(2.3060753e-3, rel=1e-4)

    def test_continuous_signal_mu_is_q_squared(self):
        # no time step to invert: mu is the detected q^2
        matches, _ = match_eigenvalues([self.peak(167.6126)], exact_spectrum(2))
        assert matches[0].detected_mu == pytest.approx(167.6126, rel=1e-15)

    def test_exact_match_zero_error(self):
        matches, _ = match_eigenvalues([self.peak(168.0)], exact_spectrum(2))
        assert matches[0].relative_error == 0.0

    def test_empty_peaks_all_missing(self):
        matches, missing = match_eigenvalues([], exact_spectrum(5))
        assert matches == []
        assert len(missing) == 4          # beta = 1 (zero mode) is skipped

    def test_never_pairs_beyond_tolerance(self):
        q = math.sqrt(168.0)
        stray = Peak(q=q * 1.2, q_squared=(q * 1.2) ** 2, bin=0.0, magnitude=1.0)
        matches, missing = match_eigenvalues([stray], exact_spectrum(2), tol=0.05)
        assert matches == []
        assert (13.0, 168.0) in [(b, e) for b, e in missing]

    def test_each_exact_matched_at_most_once(self):
        peaks = [self.peak(168.0), self.peak(168.5)]
        matches, _ = match_eigenvalues(peaks, exact_spectrum(2), tol=0.05)
        assert len(matches) == 1

    def test_report_carries_given_resolution(self):
        peaks = [self.peak(168.0)]
        matches, missing = match_eigenvalues(peaks, exact_spectrum(2))
        rep = SpectrumReport(peaks=peaks, matches=matches, missing=missing,
                             resolution=0.25, match_tolerance=0.05, meta={},
                             spectrum=None)
        assert rep.resolution == 0.25
        assert json.loads(rep.to_json())["resolution"] == 0.25

    def test_table_renders(self):
        peaks = [self.peak(167.6126)]
        matches, missing = match_eigenvalues(peaks, exact_spectrum(3))
        rep = SpectrumReport(peaks=peaks, matches=matches, missing=missing,
                             resolution=0.25, match_tolerance=0.05, meta={},
                             spectrum=None)
        text = rep.table()
        assert "167.6126" in text and "missing" in text

    def test_table_text_is_pinned(self):
        peaks = [self.peak(167.6126), self.peak(1400.0)]
        matches, missing = match_eigenvalues(peaks, exact_spectrum(7))
        rep = SpectrumReport(peaks=peaks, matches=matches, missing=missing,
                             resolution=0.25, match_tolerance=0.05, meta={},
                             spectrum=None)
        assert rep.table() == "\n".join([
            "  beta    exact q^2      numerical  relative error",
            "    13          168       167.6126   2.3059524e-03",
            "    21          440        missing               -",
            "    25          624        missing               -",
            "    31          960        missing               -",
            "    33         1088        missing               -",
            "    37         1368      1400.0000   2.3391813e-02"])
        # a missing row prints the q^2 it carries
        rep.missing = [(21.0, 441.0)]
        assert "    21          441        missing               -" in rep.table()


class TestEndToEnd:
    def test_multitone_recovery_within_one_bin(self):
        rng = np.random.default_rng(7)
        dt = 1e-3
        n = 80000
        t = np.arange(n) * dt
        exact = exact_spectrum(7)
        amps = rng.uniform(0.05, 1.0, len(exact))
        amps[amps < 0.01 * amps.max()] = 0.02 * amps.max()
        sig = sum(a * np.cos(math.sqrt(q2) * t)
                  for a, (_, q2) in zip(amps, exact) if q2 > 0)
        rep = analyze_probe_signals(sig, dt, count=7, min_prominence=0.005)
        assert rep.missing == []
        for m in rep.matches:
            assert abs(math.sqrt(m.detected_q2) - math.sqrt(m.exact_q2)) < rep.resolution

    def test_leapfrog_inversion_recovers_discrete_eigenvalues(self):
        # two modes of the scalar leapfrog u+ = 2u - u- - dt^2 mu u from a
        # Taylor start ring at q with sin(q dt / 2) = (dt / 2) sqrt(mu), so
        # q^2 sits above mu; the inversion brings each mu back within one bin
        dt, steps = 0.02, 20000
        mu = np.array([168.0, 440.0])
        u = np.array([1.0, 0.5])
        u_prev = u - 0.5 * dt * dt * mu * u
        sig = np.empty(steps)
        for k in range(steps):
            sig[k] = u.sum()
            u, u_prev = 2.0 * u - u_prev - dt * dt * mu * u, u
        rep = analyze_probe_signals(sig, dt, count=3)
        assert [m.exact_q2 for m in rep.matches] == [168.0, 440.0]
        bin_q = 2 * math.pi / (rep.spectrum.n_fft * dt)
        for m, want in zip(rep.matches, mu, strict=True):
            q = 2.0 / dt * math.asin(0.5 * dt * math.sqrt(want))
            lo, hi = leapfrog_eigenvalue([q - bin_q, q + bin_q], dt)
            assert lo <= m.detected_mu <= hi
            assert not lo <= m.detected_q2 <= hi
            assert m.detected_mu == pytest.approx(
                leapfrog_eigenvalue(math.sqrt(m.detected_q2), dt), rel=1e-14)
        assert json.loads(rep.to_json())["matches"][0]["detected_mu"] == \
            rep.matches[0].detected_mu

    def test_analyze_accepts_multiple_probes(self):
        dt = 1e-3
        t = np.arange(40000) * dt
        q = math.sqrt(440.0)
        sig = np.column_stack([np.cos(q * t), 0.5 * np.cos(q * t + 0.3)])
        rep = analyze_probe_signals(sig, dt, count=3)
        assert any(m.exact_q2 == 440.0 for m in rep.matches)
        assert rep.meta["probes"] == 2

    def test_analyze_takes_columns_as_probes(self):
        # fewer samples than probes: the array is not transposed
        sig = np.random.default_rng(0).standard_normal((20, 30))
        rep = analyze_probe_signals(sig, 0.01, count=3)
        assert rep.meta["probes"] == 30
        assert rep.meta["n_signal"] == 20

    def test_analyze_one_dimensional_is_one_probe(self):
        rep = analyze_probe_signals(np.cos(0.3 * np.arange(64)), 0.1, count=3)
        assert rep.meta["probes"] == 1
        assert rep.meta["n_signal"] == 64

    def test_analyze_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            analyze_probe_signals(np.zeros((64, 2, 2)), 0.1)

    def test_analyze_rejects_zero_probes(self):
        with pytest.raises(ValueError, match=r"probes >= 1"):
            analyze_probe_signals(np.zeros((64, 0)), 0.1)

    def test_report_carries_averaged_spectrum(self):
        # one transform of all probes gives the per-probe mean bit for bit
        for probes in (1, 2, 3, 7, 30):
            sig = np.random.default_rng(probes).standard_normal((64, probes))
            rep = analyze_probe_signals(sig, 0.1, count=3)
            avg = np.mean([dft_magnitude(sig[:, k], 0.1).magnitude
                           for k in range(probes)], axis=0)
            assert np.array_equal(rep.spectrum.magnitude, avg)
        assert rep.resolution == rep.spectrum.resolution == 2 * math.pi / (64 * 0.1)
        out = json.loads(rep.to_json())
        assert out["resolution"] == rep.resolution
        assert "spectrum" not in out
