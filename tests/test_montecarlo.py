"""Monte Carlo sampler: distributional checks and reproducibility."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from risfbl.channel import (
    GammaFit,
    Geometry,
    LinkGains,
    Perfect,
    QuantizedBits,
    RadioConfig,
    UniformSpread,
    fit_snr,
    link_gains,
    moments_X,
    snr_scale,
)
from risfbl import experiments, montecarlo
from risfbl.experiments import ScenarioConfig
from risfbl.fbl import PacketConfig, avg_blocklength
from risfbl.montecarlo import (
    McConfig,
    empirical_stats,
    ks_distance,
    mc_avg_metrics,
    sample_snr,
)
from risfbl.specfun import DomainError

import oracles

RHO = snr_scale(RadioConfig())
PHASES = (Perfect(), QuantizedBits(1), QuantizedBits(2), QuantizedBits(3),
          UniformSpread(0.25), UniformSpread(1.0))


def nodirect_gains():
    return link_gains(Geometry(), direct_link=False)


class TestReproducibility:
    def test_same_config_identical(self):
        g = nodirect_gains()
        cfg = McConfig(n_samples=4000, seed=11)
        a = sample_snr(g, 64, QuantizedBits(2), RHO, cfg)
        b = sample_snr(g, 64, QuantizedBits(2), RHO, cfg)
        assert np.array_equal(a, b)

    def test_seed_and_stream_change_draws(self):
        g = nodirect_gains()
        base = sample_snr(g, 16, Perfect(), RHO, McConfig(n_samples=1000, seed=1))
        other_seed = sample_snr(g, 16, Perfect(), RHO,
                                McConfig(n_samples=1000, seed=2))
        other_stream = sample_snr(g, 16, Perfect(), RHO,
                                  McConfig(n_samples=1000, seed=1, stream_id=3))
        assert not np.array_equal(base, other_seed)
        assert not np.array_equal(base, other_stream)

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("bits", [1, 2, 3, 52])
    def test_quantized_is_uniform_spread(self, bits, direct):
        # a b-bit quantizer's residual is uniform with spread 2^-b, and the
        # sampler draws it so: the same stream gives the same bytes
        g = link_gains(Geometry(), direct_link=direct)
        cfg = McConfig(n_samples=1234, seed=13)
        a = sample_snr(g, 33, QuantizedBits(bits), RHO, cfg)
        b = sample_snr(g, 33, UniformSpread(2.0 ** -bits), RHO, cfg)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("n", [1, 17, 300, 2048])
    def test_magnitudes_independent_of_phase_model(self, n, direct):
        # the phases come from the stream's first child, so every phase
        # model reads the same magnitudes; a spread of 2^-40 turns each
        # element by at most 3e-12 rad, which moves X by O(1e-23)
        g = link_gains(Geometry(), direct_link=direct)
        cfg = McConfig(n_samples=1000, seed=17, stream_id=4)
        a = sample_snr(g, n, UniformSpread(2.0 ** -40), RHO, cfg)
        b = sample_snr(g, n, Perfect(), RHO, cfg)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)

    def test_chunking_invariant(self, monkeypatch):
        # rows come from each stream in order, so the row cap and the block
        # size only set memory; the patched block sizes make the byte cap bind
        n, n_samples = 9, 1234
        cfg = McConfig(n_samples=n_samples, seed=5)
        for direct in (True, False):
            g = link_gains(Geometry(), direct_link=direct)
            for phase in PHASES:
                width = (1 if direct else 0) + (
                    2 if isinstance(phase, Perfect) else 3) * n
                runs = []
                for chunk in (1, 7, 500, n_samples, n_samples + 1):
                    monkeypatch.setattr(McConfig, "chunk", chunk)
                    runs.append(sample_snr(g, n, phase, RHO, cfg))
                monkeypatch.undo()
                for block in (1, 8 * width * 3):
                    monkeypatch.setattr(montecarlo, "_BLOCK_BYTES", block)
                    runs.append(sample_snr(g, n, phase, RHO, cfg))
                monkeypatch.undo()
                for other in runs[1:]:
                    assert np.array_equal(runs[0], other), (phase, direct)


class TestLiteralOracle:
    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("phase", PHASES, ids=repr)
    def test_matches_complex_rotation(self, phase, direct):
        # the literal complex controller on the same draws: a reordered
        # draw layout differs at O(1)
        g = link_gains(Geometry(), direct_link=direct)
        cfg = McConfig(n_samples=1234, seed=7, stream_id=2)
        for n in (0, 1, 17, 300):
            if n == 0 and not direct:
                # no channel at all: rejected, as moments_X rejects it
                with pytest.raises(DomainError,
                                   match="N = 0 requires a direct link"):
                    sample_snr(g, n, phase, RHO, cfg)
                continue
            got = sample_snr(g, n, phase, RHO, cfg)
            ref = oracles.sample_snr_same_draws(g, n, phase, RHO, cfg)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("phase", PHASES, ids=repr)
    def test_matches_gaussian_sampler_in_law(self, phase, direct):
        # independent streams of the sampled law and of the complex-Gaussian
        # channel; thresholds fixed up front, seed is the default one.  The
        # default direct link is ~1e7 times one cascade's power and would
        # hide the phase model, so it is set to match the aligned cascade sum
        n, n_samples = 8, 20_000
        hops = link_gains(Geometry(), direct_link=False)
        g = LinkGains(direct=n * n * hops.ap_ris * hops.ris_ac if direct else 0.0,
                      ap_ris=hops.ap_ris, ris_ac=hops.ris_ac)
        got = sample_snr(g, n, phase, RHO,
                         McConfig(n_samples=n_samples, stream_id=1)) / RHO
        ref = oracles.sample_snr_literal(
            g, n, phase, RHO, McConfig(n_samples=n_samples, stream_id=2)) / RHO
        assert stats.ks_2samp(got, ref).pvalue > 1e-3
        a, b = empirical_stats(got), empirical_stats(ref)
        assert abs(a.m1 - b.m1) < 4.0 * math.hypot(a.m1_se, b.m1_se)
        assert abs(a.m2 - b.m2) < 4.0 * math.hypot(a.m2_se, b.m2_se)


class TestRotationTable:
    """The per-call cos/sin table and its Taylor step against libm."""

    # phi = w (t - 1/2): w = 2 s pi for spreads 1, 1/4 and 2^-b, b = 1..52,
    # and w = -2 pi 2^-b, whose sums are the conjugates of those at +w
    RATES = ([2.0 * s * math.pi
              for s in [1.0, 0.25] + [2.0 ** -b for b in range(1, 53)]]
             + [-2.0 * math.pi * 2.0 ** -b for b in range(1, 53)])

    @staticmethod
    def _unit_sums(w, t):
        # one element per row with r = 1: the row sums are cos phi and sin phi
        return montecarlo._rotated_sums(
            np.ones_like(t), t.copy(), w, montecarlo._cis_table(w))

    @pytest.mark.parametrize("w", RATES)
    def test_matches_libm(self, w):
        # t = 0 and t = 1 are the ends of the range; grid points and
        # midpoints between them are the extremes of delta
        k = montecarlo._K
        t = np.concatenate(([0.0, 1.0], np.arange(k + 1) / k,
                            (np.arange(k) + 0.5) / k,
                            np.random.default_rng(3).random(20_000)))[:, None]
        re, im = self._unit_sums(w, t)
        phi = w * (t[:, 0] - 0.5)
        assert np.max(np.abs(re - np.cos(phi))) <= 1e-15
        assert np.max(np.abs(im - np.sin(phi))) <= 1e-15
        if w < 0:
            # the table is exactly symmetric: the sign of w, like reading
            # t as 1 - t, only conjugates the sums
            re_pos, im_pos = self._unit_sums(-w, t)
            assert np.array_equal(re, re_pos) and np.array_equal(im, -im_pos)
            re_ref, im_ref = self._unit_sums(-w, 1.0 - t)
            assert np.array_equal(re, re_ref) and np.array_equal(im, im_ref)

    def test_kernel_leaves_r_intact(self):
        # a 2-bit block: r is read, not written, so one draw of r may be
        # rotated again, and a fresh copy of t gives the same sums
        rng = np.random.default_rng(5)
        r, t = rng.random((2, 40, 64))
        w = 2.0 * math.pi * 2.0 ** -2
        table = montecarlo._cis_table(w)
        r0 = r.copy()
        first = montecarlo._rotated_sums(r, t.copy(), w, table)
        assert np.array_equal(r, r0)
        second = montecarlo._rotated_sums(r, t.copy(), w, table)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("direct", [True, False])
    @pytest.mark.parametrize("phase", PHASES, ids=repr)
    def test_trig_budget(self, monkeypatch, phase, direct):
        # the table's 2 (K + 1) values are all the trig one call may take,
        # however many samples and elements it draws
        counted = []

        def counting(f):
            def wrapper(x, *args, **kwargs):
                counted.append(np.size(x))
                return f(x, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "cos", counting(np.cos))
        monkeypatch.setattr(np, "sin", counting(np.sin))
        g = link_gains(Geometry(), direct_link=direct)
        sample_snr(g, 300, phase, RHO, McConfig(n_samples=2000))
        assert sum(counted) <= 2 * (montecarlo._K + 1)


class TestMemory:
    @pytest.mark.parametrize("phase", PHASES, ids=repr)
    def test_working_set_bounded(self, phase, monkeypatch):
        chunk, n = 1000, 512
        monkeypatch.setattr(McConfig, "chunk", chunk)
        g = link_gains(Geometry(), direct_link=True)
        cfg = McConfig(n_samples=2 * chunk)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_snr(g, n, phase, RHO, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * chunk * n * 8

    def test_block_bounded_at_large_n(self):
        # at N=2048 a default chunk of rows is ~98 MB; a block is <= 1 MiB
        g = link_gains(Geometry(), direct_link=True)
        cfg = McConfig()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sample_snr(g, 2048, QuantizedBits(2), RHO, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * montecarlo._BLOCK_BYTES + cfg.n_samples * 8


class TestDistributions:
    def test_direct_only_is_exponential(self):
        g = LinkGains(direct=3e-12, ap_ris=1e-12, ris_ac=1e-12)
        s = sample_snr(g, 0, Perfect(), RHO, McConfig(n_samples=10000))
        mean = RHO * g.direct
        # exponential: KS against Gamma(1, 1/mean)
        d = ks_distance(s, GammaFit(shape=1.0, rate=1.0 / mean))
        assert d < 0.02

    def test_moments_match_analytic(self):
        g = nodirect_gains()
        for phase in (Perfect(), UniformSpread(0.25), QuantizedBits(1)):
            s = sample_snr(g, 32, phase, RHO, McConfig(n_samples=10000))
            st_ = empirical_stats(s / RHO)
            an = moments_X(g, 32, phase)
            assert abs(an.m1 - st_.m1) < 4.0 * st_.m1_se
            assert abs(an.m2 - st_.m2) < 4.0 * st_.m2_se

    def test_perfect_phase_beats_quantized(self):
        g = nodirect_gains()
        sp_ = sample_snr(g, 128, Perfect(), RHO, McConfig(n_samples=4000))
        s1 = sample_snr(g, 128, QuantizedBits(1), RHO, McConfig(n_samples=4000))
        assert np.mean(sp_) > np.mean(s1)

    def test_quantized_residual_bounded(self):
        # 2-bit snapping keeps every realization within the 1-bit spread
        # envelope: mean should sit between uniform(1/4) analytic bounds
        g = nodirect_gains()
        s2 = sample_snr(g, 64, QuantizedBits(2), RHO, McConfig(n_samples=8000))
        lo = moments_X(g, 64, UniformSpread(0.5)).m1 * RHO
        hi = moments_X(g, 64, Perfect()).m1 * RHO
        assert lo < float(np.mean(s2)) < hi


class TestStatistics:
    def test_empirical_stats_against_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.gamma(3.0, 2.0, size=5000)
        st_ = empirical_stats(x)
        assert st_.m1 == pytest.approx(float(np.mean(x)), rel=1e-12)
        assert st_.m2 == pytest.approx(float(np.mean(x ** 2)), rel=1e-12)
        assert st_.m1_se == pytest.approx(
            float(np.std(x, ddof=1)) / math.sqrt(x.size), rel=1e-12)

    def test_ks_distance_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.gamma(4.0, 1.5, size=2000)
        fit = GammaFit(shape=4.0, rate=1.0 / 1.5)
        ref = stats.kstest(x, lambda v: stats.gamma.cdf(v, 4.0, scale=1.5)).statistic
        assert ks_distance(x, fit) == pytest.approx(ref, rel=1e-10)

    def test_ks_distance_lower_side_matches_scipy(self):
        # unit exponentials against a Gamma of mean 1/2: the fit's CDF lies
        # above the ECDF, so D- = max(F(x_i) - (i - 1)/n) decides the
        # statistic (taking i/n there understates it by 1/n)
        x = np.random.default_rng(3).exponential(size=500)
        ref = stats.kstest(x, lambda v: stats.gamma.cdf(v, 1.0, scale=0.5))
        assert ref.statistic_sign == -1
        assert ks_distance(x, GammaFit(shape=1.0, rate=2.0)) == pytest.approx(
            ref.statistic, rel=1e-10)

    def test_ks_detects_mismatch(self):
        rng = np.random.default_rng(2)
        x = rng.gamma(4.0, 1.5, size=2000)
        assert ks_distance(x, GammaFit(shape=1.0, rate=1.0)) > 0.3

    def test_input_validation(self):
        with pytest.raises(DomainError):
            empirical_stats(np.array([1.0]))
        with pytest.raises(DomainError):
            McConfig(n_samples=1)
        with pytest.raises(DomainError, match="need at least 2 samples"):
            ks_distance(np.array([1.0]), GammaFit(shape=1.0, rate=1.0))
        g = nodirect_gains()
        with pytest.raises(DomainError, match="n_elements must be >= 0"):
            sample_snr(g, -1, Perfect(), RHO)
        with pytest.raises(DomainError, match="unknown phase model '2bit'"):
            sample_snr(g, 16, "2bit", RHO)
        with pytest.raises(DomainError, match="rho must be finite"):
            sample_snr(g, 16, Perfect(), math.inf)


class TestMetricAverages:
    def test_means_match_direct_computation(self):
        g = nodirect_gains()
        s = sample_snr(g, 256, Perfect(), RHO, McConfig(n_samples=5000))
        pkt = PacketConfig()
        m = mc_avg_metrics(s, pkt)
        c, sqrt_v, rate, bler = oracles.per_sample_metrics(
            s, pkt.blocklength, pkt.info_bits, pkt.target_bler)
        assert m.avg_rate == pytest.approx(float(np.mean(rate)), rel=1e-12)
        assert m.avg_capacity == pytest.approx(float(np.mean(c)), rel=1e-12)
        # abs=0: the mean BLER here is about 1e-33
        assert m.avg_bler == pytest.approx(float(np.mean(bler)), rel=1e-12, abs=0)
        assert m.avg_blocklength == avg_blocklength(
            m.avg_capacity, m.avg_sqrt_dispersion, pkt.info_bits,
            pkt.target_bler)
        assert m.avg_sqrt_dispersion == pytest.approx(
            float(np.mean(sqrt_v)), rel=1e-12)
        assert m.avg_sqrt_dispersion_se == pytest.approx(
            float(np.std(sqrt_v, ddof=1)) / math.sqrt(s.size), rel=1e-12)
        assert 0.0 <= m.avg_bler <= 1.0

    def test_blocklength_se_is_the_delta_method(self):
        # the root's gradient in its closed form: r = x^2 with
        # x = (q S + D) / (2 C), D = sqrt(q^2 S^2 + 4 C L), so that
        # dr/dC = -2 x^3 / D and dr/dS = 2 q x^2 / D, against numpy's
        # sample covariance of (C, sqrt(V))
        s = sample_snr(nodirect_gains(), 64, QuantizedBits(2), RHO,
                       McConfig(n_samples=2000))
        pkt = PacketConfig()
        m = mc_avg_metrics(s, pkt)
        c, sqrt_v, _, _ = oracles.per_sample_metrics(
            s, pkt.blocklength, pkt.info_bits, pkt.target_bler)
        q = stats.norm.isf(pkt.target_bler)
        c_m, s_m = float(np.mean(c)), float(np.mean(sqrt_v))
        d = math.sqrt(q * q * s_m * s_m + 4.0 * c_m * pkt.info_bits)
        x = (q * s_m + d) / (2.0 * c_m)
        grad = np.array([-2.0 * x ** 3 / d, 2.0 * q * x * x / d])
        se = math.sqrt(grad @ np.cov(c, sqrt_v) @ grad / s.size)
        assert m.avg_blocklength_se == pytest.approx(se, rel=1e-9, abs=0)

    def test_blocklength_se_matches_spread_over_streams(self):
        # 40 independent streams of 400 samples: the SD of their 40
        # blocklengths is within about 1 / sqrt(2 * 39) = 11% of the true
        # SD, so 0.35 allows three of those
        g, pkt = nodirect_gains(), PacketConfig()
        cfgs = [McConfig(n_samples=400, stream_id=k) for k in range(40)]
        ms = [mc_avg_metrics(sample_snr(g, 64, QuantizedBits(2), RHO, cfg), pkt)
              for cfg in cfgs]
        spread = float(np.std([m.avg_blocklength for m in ms], ddof=1))
        se = float(np.mean([m.avg_blocklength_se for m in ms]))
        assert spread / se == pytest.approx(1.0, abs=0.35)

    def test_rate_tracks_analytic_mean(self):
        from risfbl.fbl import avg_rate_exact

        g = nodirect_gains()
        fit = fit_snr(g, 256, Perfect(), RHO)
        s = sample_snr(g, 256, Perfect(), RHO, McConfig(n_samples=10000))
        m = mc_avg_metrics(s, PacketConfig())
        # loose sanity bound; the 1% agreement is asserted in acceptance
        ref = avg_rate_exact(fit, 300, 1e-9)
        assert m.avg_rate == pytest.approx(ref, rel=0.05)
        assert m.avg_capacity == pytest.approx(math.log2(1.0 + fit.mean),
                                               rel=0.05)

    @pytest.mark.parametrize("fields,rel", [
        ({"n_elements": 1}, 0.10),
        ({"n_elements": 64, "phase": UniformSpread(1.0)}, 0.10),
        ({"n_elements": 0, "direct_link": True}, 0.01),
    ], ids=("N1", "N64-uniform1", "N0-direct"))
    def test_blocklength_tracks_closed_form(self, fields, rel):
        # the SNR density is positive at 0 in all three cases, where the
        # per-sample root grows like 1 / gamma and its mean does not settle
        s = ScenarioConfig(**fields)
        samples = sample_snr(s.gains(), s.n_elements, s.phase, s.rho(), s.mc)
        m = mc_avg_metrics(samples, s.packet)
        ref = experiments.blocklength(s.fit(), s)
        assert m.avg_blocklength == pytest.approx(ref, rel=rel)
