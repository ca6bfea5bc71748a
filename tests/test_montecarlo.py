"""Channel simulation: determinism, bound margins against the closed forms
and the exact ergodic rate, and the Bartlett-factor slab against a
per-trial reference."""

import math
import tracemalloc

import numpy as np
import pytest

import mimo_ee.montecarlo as mc
from mimo_ee.link import Detector
from mimo_ee.montecarlo import _SLAB, McConfig, bound_gap_sweep

MRC, ZF = Detector.MRC, Detector.ZF


def _simulate(cfg, threads=1):
    """One config swept alone."""
    [(_, res)] = bound_gap_sweep([cfg], threads=threads)
    return res


def _slab_arrays(family):
    """Each detector's transmit SNRs in input order, and an empty
    (configs, trials) rate array for the slab to fill."""
    gammas = {det: np.array([cfg.gamma for cfg in family
                             if cfg.detector is det]) for det in (MRC, ZF)}
    gammas = {det: g for det, g in gammas.items() if g.size}
    trials = family[0].trials
    return gammas, {det: np.empty((g.size, trials))
                    for det, g in gammas.items()}


def _slab_streams(seed, slab):
    """A slab's Gamma stream and normal stream: Philox keyed by the seed,
    the variate kind (0 Gamma, 1 normal) and the slab in the counter's
    high words."""
    return [np.random.Generator(np.random.Philox(
        key=seed, counter=(0, 0, kind, slab))) for kind in (0, 1)]


def _reference_factor(gammas, normals, m, k):
    """One trial's Bartlett factor L, (k, min(m, k)), drawn entry by entry.

    L_ii^2 ~ Gamma(m - i) for i from 0, L_ij ~ CN(0, 1) below the diagonal
    in row-major order, each a (real, imaginary) pair of standard normals
    scaled by sqrt(1/2), drawn as the trial's own 2n normals.
    """
    r = min(m, k)
    below = [(i, j) for i in range(k) for j in range(min(i, r))]
    lower = np.zeros((k, r), dtype=np.complex128)
    for i in range(r):
        lower[i, i] = math.sqrt(gammas.standard_gamma(m - i))
    parts = normals.standard_normal(2 * len(below)) * math.sqrt(0.5)
    for (i, j), re, im in zip(below, parts[0::2], parts[1::2]):
        lower[i, j] = complex(re, im)
    return lower


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        cfg = McConfig(m=16, k=4, gamma=0.3, detector=MRC, trials=5000, seed=42)
        assert _simulate(cfg) == _simulate(cfg)

    def test_thread_count_does_not_change_results(self):
        cfg = McConfig(m=16, k=4, gamma=0.3, detector=ZF, trials=9000, seed=7)
        assert _simulate(cfg, threads=1) == _simulate(cfg, threads=3)

    def test_grouped_equals_individual(self):
        family = [
            McConfig(m=12, k=3, gamma=g, detector=det, trials=4000, seed=9)
            for det in (MRC, ZF) for g in (0.05, 0.4)]
        # then two designs interleaved, detectors alternating, gamma 0.4
        # repeated, and trials and seed set per point: each detector's rows
        # of a design must follow its configs' input order
        family += [
            McConfig(m=8, k=2, gamma=0.4, detector=ZF, trials=300, seed=4),
            McConfig(m=12, k=3, gamma=0.4, detector=MRC, trials=4000, seed=9),
            McConfig(m=8, k=2, gamma=0.4, detector=MRC, trials=300, seed=4),
            McConfig(m=12, k=3, gamma=2.5, detector=ZF, trials=4000, seed=9),
            McConfig(m=8, k=2, gamma=1.5, detector=ZF, trials=_SLAB + 5,
                     seed=4),
            McConfig(m=12, k=3, gamma=0.4, detector=MRC, trials=4000, seed=3),
            McConfig(m=8, k=2, gamma=0.4, detector=ZF, trials=300, seed=4),
            McConfig(m=12, k=3, gamma=0.05, detector=MRC, trials=4000, seed=9),
        ]
        swept = bound_gap_sweep(family, threads=2)
        assert [cfg for cfg, _ in swept] == family
        for cfg, res in swept:
            assert res == _simulate(cfg), cfg
        assert len({res.empirical_rate for _, res in swept}) == len(family) - 3

    @pytest.mark.parametrize("order", [(MRC, ZF), (ZF, MRC)])
    def test_overflow_names_the_first_config_in_input_order(self, order):
        # both detectors' rates leave double range at gamma = 1.7e308; the
        # refusal names whichever comes first in the input, not the first
        # detector's rows
        family = [McConfig(m=8, k=2, gamma=0.2, detector=MRC, trials=50)]
        family += [McConfig(m=8, k=2, gamma=g, detector=det, trials=50)
                   for det in order for g in (1.7e308, 1.6e308)]
        with np.errstate(all="raise"):   # and no numpy warning escapes
            with pytest.raises(OverflowError, match=(
                    f"gamma=1.7e\\+308, {order[0].value}: simulated")):
                bound_gap_sweep(family)

    def test_overflow_names_the_first_config_across_designs(self):
        # groups run in order of their first config, so the (8, 2) group
        # runs first; its bad point is third in the input, the (6, 3) one
        # second, and the refusal names the second
        family = [McConfig(m=8, k=2, gamma=0.2, detector=MRC, trials=50),
                  McConfig(m=6, k=3, gamma=1.7e308, detector=ZF, trials=50),
                  McConfig(m=8, k=2, gamma=1.6e308, detector=MRC, trials=50)]
        with np.errstate(all="raise"):
            with pytest.raises(OverflowError,
                               match="m=6, k=3, gamma=1.7e\\+308, zf"):
                bound_gap_sweep(family)

    def test_mrc_simulates_wherever_its_closed_form_is_finite(self):
        # gamma * d^2 overflows at gamma = 1e306; dividing by gamma first
        # keeps the SINR finite, and the rate saturates near 7.87 bits
        cfg = McConfig(m=8, k=2, gamma=1e306, detector=MRC, trials=2000)
        with np.errstate(all="raise"):
            res = _simulate(cfg)
        assert res.bound_rate == 6.0
        assert 7.5 < res.empirical_rate < 8.0

    def test_seed_changes_the_draws(self):
        a = _simulate(McConfig(m=8, k=2, gamma=0.2, detector=MRC,
                               trials=2000, seed=0))
        b = _simulate(McConfig(m=8, k=2, gamma=0.2, detector=MRC,
                               trials=2000, seed=1))
        assert a.empirical_rate != b.empirical_rate


class TestChannelDraws:
    def test_slab_and_kind_address_disjoint_streams(self):
        def first(seed, kind, slab):
            return mc._slab_stream(seed, kind, slab).random(8)

        base = first(5, mc._GAMMA, 0)
        assert np.array_equal(first(5, mc._GAMMA, 0), base)
        for other in (first(5, mc._NORMAL, 0), first(5, mc._GAMMA, 1),
                      first(6, mc._GAMMA, 0)):
            assert not np.array_equal(other, base)

    def test_buffered_words_do_not_leak_between_slabs(self):
        # one worker runs slabs in order; run backwards they must agree,
        # so no stream state outlives its slab
        trials = 2 * _SLAB + 5
        family = _family(6, 3, trials, seed=13)
        want = bound_gap_sweep(family)
        gammas, rates = _slab_arrays(family)
        for lo in reversed(range(0, trials, _SLAB)):
            mc._process_slab(13, 6, 3, lo, min(lo + _SLAB, trials),
                             gammas, rates)
        rows = [*rates[MRC], *rates[ZF]]     # the family lists MRC first
        assert len(rows) == len(want)
        for row, (_, res) in zip(rows, want):
            assert float(row.mean()) == res.empirical_rate

    def test_entries_are_standard_complex_gaussian(self, monkeypatch):
        # the slab's own L, caught where MRC forms its Gram: 2000 trials
        # of 10 off-diagonal entries each, across two chunks
        m, k, trials = 8, 5, 2000
        rows, cols = np.tril_indices(k, -1)
        seen = []
        matmul = np.matmul

        def catch(lower, conj, **kwargs):
            seen.append(lower[:, rows, cols])   # fancy indexing copies
            return matmul(lower, conj, **kwargs)

        gammas, rates = _slab_arrays([McConfig(
            m=m, k=k, gamma=0.1, detector=MRC, trials=trials, seed=11)])
        with monkeypatch.context() as patch:
            patch.setattr(mc.np, "matmul", catch)
            mc._process_slab(11, m, k, 0, trials, gammas, rates)
        assert len(seen) == 2
        h = np.concatenate(seen).ravel()
        assert h.size == 20_000
        power = np.abs(h) ** 2
        assert float(power.mean()) == pytest.approx(1.0, abs=0.02)
        assert float(h.real.var()) == pytest.approx(0.5, abs=0.01)
        assert float(h.imag.var()) == pytest.approx(0.5, abs=0.01)
        assert abs(complex(h.mean())) < 0.02
        # squared magnitudes are Exp(1)
        assert float((power > 1.0).mean()) == pytest.approx(math.exp(-1.0),
                                                            abs=0.01)

    @pytest.mark.parametrize("m,k", [(6, 3), (2, 5)])
    def test_factor_gram_has_wishart_moments(self, m, k):
        # W = L L^H of the Bartlett factor is complex Wishart CW_k(m, I):
        # E W = m I, E |W_ij|^2 = m off the diagonal, E W_ii^2 = m (m + 1)
        gammas, normals = _slab_streams(17, 0)
        grams = []
        for _ in range(20_000):
            lower = _reference_factor(gammas, normals, m, k)
            grams.append(lower @ lower.conj().T)
        w = np.array(grams)
        off = ~np.eye(k, dtype=bool)

        def assert_mean(samples, want):
            se = samples.std(ddof=1, axis=0) / math.sqrt(len(samples))
            assert np.all(np.abs(samples.mean(axis=0) - want) <= 5.0 * se)

        assert_mean(w.real, m * np.eye(k))
        assert_mean(w.imag[:, off], 0.0)
        assert_mean(np.abs(w[:, off]) ** 2, m)
        assert_mean(np.diagonal(w, axis1=1, axis2=2).real ** 2, m * (m + 1.0))


class TestBoundMargins:
    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_closed_form_sits_below_empirical_mean(self, det):
        res = _simulate(McConfig(m=32, k=4, gamma=0.2, detector=det,
                                 trials=20_000, seed=1))
        assert res.margin > 0
        assert res.margin > res.ci_halfwidth
        assert res.resampled == 0

    def test_single_antenna_bound_degenerates_to_zero(self):
        res = _simulate(McConfig(m=1, k=1, gamma=1.0, detector=MRC,
                                 trials=2000, seed=3))
        assert res.bound_rate == 0.0
        assert res.empirical_rate > 0.0

    def test_detectors_coincide_for_one_user(self):
        kwargs = dict(m=4, k=1, gamma=0.5, trials=2000, seed=3)
        a = _simulate(McConfig(detector=MRC, **kwargs))
        b = _simulate(McConfig(detector=ZF, **kwargs))
        assert a.empirical_rate == pytest.approx(b.empirical_rate, rel=1e-12)
        assert a.bound_rate == pytest.approx(b.bound_rate, rel=1e-12)

    def test_single_trial_has_no_spread_estimate(self):
        res = _simulate(McConfig(m=8, k=2, gamma=0.1, detector=MRC,
                                 trials=1, seed=0))
        assert res.ci_halfwidth == 0.0
        assert math.isfinite(res.empirical_rate)


# trapezoid nodes in v = ln s: e^{-s} is below 1e-23 past v = 4, and the
# integrand is below g n e^{-60} before v = -60
_LN_S = np.linspace(-60.0, 4.0, 4097)
_S = np.exp(_LN_S)


def _mean_log1p(g, n):
    """E ln(1 + g X) in nats for X ~ Gamma(n, 1); 0 for n = 0.

    Frullani's integral for ln(1 + a) averaged over X gives
    E ln(1 + g X) = ∫ e^{-s} (1 - (1 + g s)^{-n}) ds / s over s > 0,
    integrated by the trapezoid rule in v = ln s.
    """
    f = np.exp(-_S) * -np.expm1(-n * np.log1p(g * _S))
    return float((_LN_S[1] - _LN_S[0]) * (f.sum() - 0.5 * (f[0] + f[-1])))


def _exact_sum_rate(m, k, gamma, det):
    """The ergodic sum rate in bits that the simulator estimates.

    ZF: each user's SINR is gamma / [W^{-1}]_kk and 1 / [W^{-1}]_kk is
    Gamma(m - k + 1). MRC: given h_k, SINR = gamma A / (gamma B + 1) with
    independent A ~ Gamma(m) and B ~ Gamma(k - 1), and ln(1 + SINR) =
    ln(1 + gamma (A + B)) - ln(1 + gamma B) with A + B ~ Gamma(m + k - 1).
    """
    if det is ZF:
        nats = _mean_log1p(gamma, m - k + 1)
    else:
        nats = _mean_log1p(gamma, m + k - 1) - _mean_log1p(gamma, k - 1)
    return k * nats / math.log(2.0)


class TestExactOracle:
    """The simulated mean against the exact ergodic rate, two-sided."""

    @pytest.mark.parametrize("g,n", [(1e-6, 1), (0.05, 1), (0.2, 5),
                                     (1.0, 16), (3.0, 63), (1e3, 200),
                                     (1e8, 1e6)])
    def test_quadrature_matches_adaptive_integration(self, g, n):
        from scipy.integrate import quad

        def integrand(v):   # the same integral in v = ln s, by another rule
            return math.exp(-math.exp(v)) * -math.expm1(
                -n * math.log1p(g * math.exp(v)))

        want = sum(quad(integrand, a, b, limit=500, epsabs=0.0,
                        epsrel=1e-12)[0]
                   for a, b in ((-math.inf, -10.0), (-10.0, 0.0), (0.0, 6.0)))
        assert _mean_log1p(g, n) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("m,k", [(4, 1), (8, 2), (12, 3), (16, 4),
                                     (32, 4), (64, 8), (10, 7)])
    def test_simulated_mean_matches_exact_rate(self, m, k):
        family = [McConfig(m=m, k=k, gamma=g, detector=det, trials=20_000,
                           seed=2027) for det in (MRC, ZF) for g in (0.05, 1.0)]
        for cfg, res in bound_gap_sweep(family):
            exact = _exact_sum_rate(m, k, cfg.gamma, cfg.detector)
            assert abs(res.empirical_rate - exact) <= 4.0 * res.ci_halfwidth, cfg
            assert exact > res.bound_rate   # the closed form is a lower bound

    @pytest.mark.parametrize("m,k", [(2, 5), (1, 3)])
    def test_mrc_with_fewer_antennas_than_users(self, m, k):
        for g in (0.1, 2.0):
            res = _simulate(McConfig(m=m, k=k, gamma=g, detector=MRC,
                                     trials=50_000, seed=31))
            exact = _exact_sum_rate(m, k, g, MRC)
            assert abs(res.empirical_rate - exact) <= 4.0 * res.ci_halfwidth


class TestNoRedraw:
    def test_square_factor_needs_no_redraw(self):
        # at m = k + 1 the last user's L_kk^2 is Gamma(1), the ZF Gram's
        # worst conditioning; it is still never singular
        res = _simulate(McConfig(m=4, k=3, gamma=0.5, detector=ZF,
                                 trials=_SLAB + 37, seed=9))
        assert res.resampled == 0
        assert math.isfinite(res.empirical_rate)
        exact = _exact_sum_rate(4, 3, 0.5, ZF)
        assert abs(res.empirical_rate - exact) <= 4.0 * res.ci_halfwidth


class TestForwardSubstitution:
    @pytest.mark.parametrize("k", [3, 16])
    def test_zf_rates_match_the_gram_inverse(self, k):
        # m = k + 1 gives the last user's L_kk^2 ~ Gamma(1), the worst
        # conditioned square factor; at k = 16 the trials span three chunks
        m, trials, seed = k + 1, 300, 21
        snrs, rates = _slab_arrays([
            McConfig(m=m, k=k, gamma=g, detector=ZF, trials=trials, seed=seed)
            for g in (0.02, 3.0)])
        mc._process_slab(seed, m, k, 0, trials, snrs, rates)
        gammas, normals = _slab_streams(seed, 0)
        for t in range(trials):
            lower = _reference_factor(gammas, normals, m, k)
            diag_inv = np.diagonal(np.linalg.inv(lower @ lower.conj().T)).real
            for g, row in zip(snrs[ZF], rates[ZF]):
                want = np.log2(1.0 + g / diag_inv).sum()
                assert row[t] == pytest.approx(want, rel=1e-12, abs=0)


class TestValidation:
    def test_config_rejections(self):
        good = dict(m=4, k=2, gamma=0.5, detector=MRC)
        with pytest.raises(ValueError, match="m > k"):
            McConfig(m=2, k=2, gamma=0.5, detector=ZF)
        with pytest.raises(ValueError, match="trials"):
            McConfig(trials=0, **good)
        with pytest.raises(ValueError, match="gamma"):
            McConfig(m=4, k=2, gamma=0.0, detector=MRC)
        with pytest.raises(ValueError, match="gamma"):
            McConfig(m=4, k=2, gamma=math.inf, detector=MRC)
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1, **good)
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=2 ** 64, **good)
        with pytest.raises(ValueError, match="m"):
            McConfig(m=0, k=1, gamma=0.5, detector=MRC)
        with pytest.raises(ValueError, match="m"):
            McConfig(m=4.0, k=2, gamma=0.5, detector=MRC)

    @pytest.mark.parametrize("name", ["m", "k", "trials", "seed", "gamma"])
    def test_bools_are_not_integers(self, name):
        fields = dict(m=4, k=2, trials=10, seed=1, gamma=0.5)
        fields[name] = name != "seed"  # True, or False for the seed
        with pytest.raises(ValueError, match=f"{name} must be"):
            McConfig(detector=MRC, **fields)

    def test_thread_count_rejections(self):
        cfg = McConfig(m=4, k=2, gamma=0.5, detector=MRC, trials=10)
        with pytest.raises(ValueError, match="threads"):
            _simulate(cfg, threads=0)
        with pytest.raises(ValueError, match="threads"):
            bound_gap_sweep([cfg], threads=-1)
        with pytest.raises(ValueError, match="threads"):
            _simulate(cfg, threads=True)
        with pytest.raises(ValueError, match="threads"):
            bound_gap_sweep([cfg], threads=True)

    def test_sweep_requires_configs(self):
        with pytest.raises(ValueError, match="nonempty"):
            bound_gap_sweep([])

    def test_sweep_preserves_input_order(self):
        family = [
            McConfig(m=8, k=2, gamma=0.3, detector=ZF, trials=500, seed=4),
            McConfig(m=6, k=3, gamma=0.1, detector=MRC, trials=700, seed=5),
            McConfig(m=8, k=2, gamma=0.7, detector=MRC, trials=500, seed=4),
            McConfig(m=8, k=2, gamma=0.3, detector=ZF, trials=500, seed=4),
        ]
        swept = bound_gap_sweep(family)
        assert [cfg for cfg, _ in swept] == family
        # duplicated configs get identical results
        assert swept[0][1] == swept[3][1]


def _bartlett_reference(seed, m, k, lo, hi, snrs, rates):
    """The slab one trial at a time, straight from the Bartlett factor.

    The reference for the chunked slab: it shares no chunk, buffer or
    index table with the code under test, only the stream layout and each
    trial's arithmetic.
    """
    gammas, normals = _slab_streams(seed, lo // _SLAB)
    for t in range(lo, hi):
        lower = _reference_factor(gammas, normals, m, k)
        gram = np.matmul(lower, lower.conj().T)
        d = np.diagonal(gram).real
        cross = (gram.real ** 2 + gram.imag ** 2).sum(axis=1) - d * d
        for g, row in zip(snrs.get(MRC, ()), rates.get(MRC, ())):
            row[t] = np.log2(1.0 + d * d / (cross + d / g)).sum()
        if ZF in snrs:
            # L^{-1} by forward substitution, one row at a time
            inv = np.zeros((k, k), dtype=np.complex128)
            for i in range(k):
                scale = 1.0 / lower[i, i].real
                inv[i, i] = scale
                inv[i, :i] = (lower[i, :i] @ inv[:i, :i]) * -scale
            diag_inv = (inv.real ** 2 + inv.imag ** 2).sum(axis=0)
            # the column norms of L^{-1} are the diagonal of W^{-1}
            assert np.allclose(diag_inv, np.diagonal(np.linalg.inv(gram)).real,
                               rtol=1e-6)
        for g, row in zip(snrs.get(ZF, ()), rates.get(ZF, ())):
            row[t] = np.log2(1.0 + g / diag_inv).sum()


def _family(m, k, trials, seed=13):
    return [McConfig(m=m, k=k, gamma=g, detector=det, trials=trials, seed=seed)
            for det in (MRC, ZF) for g in (0.02, 3.0)
            if det is MRC or m > k]


def _assert_chunked_equals_reference(monkeypatch, family):
    chunked = {t: bound_gap_sweep(family, threads=t) for t in (1, 2)}
    with monkeypatch.context() as patch:
        patch.setattr(mc, "_process_slab", _bartlett_reference)
        want = bound_gap_sweep(family)
    assert chunked[1] == want
    assert chunked[2] == want


class TestStreamedSlab:
    @pytest.mark.parametrize("m,k", [(5, 3), (4, 1), (6, 5), (6, 3),
                                     (17, 16), (64, 8), (2, 5)])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_chunks_leave_every_result_unchanged(self, monkeypatch, m, k,
                                                 chunk):
        # chunk=None keeps the module's 1 MiB chunk, which holds a whole
        # slab at most of these sizes; 7 trials puts chunk edges inside
        # each slab, and the last trial of a slab in a partial chunk
        if chunk is not None:
            monkeypatch.setattr(mc, "_CHUNK_BYTES", 16 * k * k * chunk)
        size = chunk or min(_SLAB, mc._CHUNK_BYTES // (16 * k * k))
        for trials in (1, size - 1, size + 1, _SLAB + 37):
            _assert_chunked_equals_reference(
                monkeypatch, _family(m, k, trials))

    def test_cache_sized_chunks_of_a_large_design(self, monkeypatch):
        chunk = mc._CHUNK_BYTES // (16 * 16 * 16)
        assert 1 < chunk < _SLAB
        for trials in (chunk - 1, chunk + 1, _SLAB + 37):
            _assert_chunked_equals_reference(
                monkeypatch, _family(128, 16, trials))

    def test_two_chunk_sizes_give_identical_results(self, monkeypatch):
        family = _family(128, 16, 2 * _SLAB + 3)
        want = bound_gap_sweep(family, threads=2)
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 16 * 16 * 16 * 37)
        assert bound_gap_sweep(family, threads=2) == want

    def test_slab_memory_per_worker_at_two_threads(self):
        # two workers each stream one slab at once, so the peak is two sets
        # of chunk buffers: 8 MB a worker, where one slab-sized Gram with
        # ZF's inverse would take about 34 MB
        family = [McConfig(m=128, k=16, gamma=0.1, detector=det,
                           trials=2 * _SLAB, seed=3) for det in (MRC, ZF)]
        tracemalloc.start()
        try:
            bound_gap_sweep(family, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_slab_memory_is_its_chunk_buffers(self):
        # every stage runs per chunk, so the peak is the 512 KiB chunk
        # buffers (L, its conjugate, the Gram matrices) and ZF's inverse of
        # one chunk; one slab-sized (4096, 16, 16) array would take 16.8 MB
        # on its own
        family = [McConfig(m=128, k=16, gamma=0.1, detector=det,
                           trials=_SLAB, seed=3) for det in (MRC, ZF)]
        tracemalloc.start()
        try:
            bound_gap_sweep(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
