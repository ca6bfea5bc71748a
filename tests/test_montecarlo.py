"""Channel simulation: determinism, bound margins, the resample path and
the streamed slab."""

import math
import tracemalloc

import numpy as np
import pytest

import mimo_ee.montecarlo as mc
from mimo_ee.link import Detector
from mimo_ee.montecarlo import (_SLAB, McConfig, _ChannelStream,
                                bound_gap_sweep, channel_from_uniforms,
                                channel_matrix, simulate)

MRC, ZF = Detector.MRC, Detector.ZF


def _mask_first_draws(monkeypatch, trials=None):
    """Make the first draw of each trial (of every trial by default) singular."""
    orig = _ChannelStream.uniforms

    def masked(self, trial, resample=0, out=None):
        u = orig(self, trial, resample, out)
        if resample == 0 and (trials is None or trial in trials):
            u[..., 0, :, -1] = 0.0  # zero radius wipes the last column
        return u

    monkeypatch.setattr(mc._ChannelStream, "uniforms", masked)


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        cfg = McConfig(m=16, k=4, gamma=0.3, detector=MRC, trials=5000, seed=42)
        assert simulate(cfg) == simulate(cfg)

    def test_thread_count_does_not_change_results(self):
        cfg = McConfig(m=16, k=4, gamma=0.3, detector=ZF, trials=9000, seed=7)
        assert simulate(cfg, threads=1) == simulate(cfg, threads=3)

    def test_grouped_equals_individual(self):
        family = [
            McConfig(m=12, k=3, gamma=g, detector=det, trials=4000, seed=9)
            for det in (MRC, ZF) for g in (0.05, 0.4)]
        swept = bound_gap_sweep(family, threads=2)
        for cfg, res in swept:
            assert res == simulate(cfg)

    def test_seed_changes_the_draws(self):
        a = simulate(McConfig(m=8, k=2, gamma=0.2, detector=MRC,
                              trials=2000, seed=0))
        b = simulate(McConfig(m=8, k=2, gamma=0.2, detector=MRC,
                              trials=2000, seed=1))
        assert a.empirical_rate != b.empirical_rate


class TestChannelDraws:
    def test_trial_and_resample_address_disjoint_draws(self):
        h00 = channel_matrix(6, 3, seed=5, trial=0)
        assert np.array_equal(channel_matrix(6, 3, seed=5, trial=0), h00)
        assert not np.array_equal(channel_matrix(6, 3, seed=5, trial=1), h00)
        assert not np.array_equal(
            channel_matrix(6, 3, seed=5, trial=0, resample=1), h00)
        assert not np.array_equal(channel_matrix(6, 3, seed=6, trial=0), h00)

    def test_entries_are_standard_complex_gaussian(self):
        h = channel_matrix(200, 100, seed=11, trial=0)
        power = np.abs(h) ** 2
        assert float(power.mean()) == pytest.approx(1.0, abs=0.02)
        assert float(h.real.var()) == pytest.approx(0.5, abs=0.01)
        assert float(h.imag.var()) == pytest.approx(0.5, abs=0.01)
        assert abs(complex(h.mean())) < 0.02
        # squared magnitudes are Exp(1)
        assert float((power > 1.0).mean()) == pytest.approx(math.exp(-1.0),
                                                            abs=0.01)

    def test_uniform_mapping_shape_contract(self):
        u = _ChannelStream(3, 4, 2).uniforms(trial=0)
        assert u.shape == (2, 4, 2)
        # the matrix lands in out and u becomes scratch
        out = np.empty((4, 2), dtype=np.complex128)
        assert channel_from_uniforms(u, out=out) is out
        assert np.array_equal(out, channel_matrix(4, 2, seed=3, trial=0))

    def test_buffered_words_do_not_leak_between_trials(self):
        # drawing trials in different orders must give the same matrices
        s = _ChannelStream(21, 5, 3)
        first_then_second = [s.uniforms(0).copy(), s.uniforms(1).copy()]
        s2 = _ChannelStream(21, 5, 3)
        second_then_first = [s2.uniforms(1).copy(), s2.uniforms(0).copy()]
        assert np.array_equal(first_then_second[0], second_then_first[1])
        assert np.array_equal(first_then_second[1], second_then_first[0])


class TestBoundMargins:
    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_closed_form_sits_below_empirical_mean(self, det):
        res = simulate(McConfig(m=32, k=4, gamma=0.2, detector=det,
                                trials=20_000, seed=1))
        assert res.margin > 0
        assert res.margin > res.ci_halfwidth
        assert res.resampled == 0

    def test_single_antenna_bound_degenerates_to_zero(self):
        res = simulate(McConfig(m=1, k=1, gamma=1.0, detector=MRC,
                                trials=2000, seed=3))
        assert res.bound_rate == 0.0
        assert res.empirical_rate > 0.0

    def test_detectors_coincide_for_one_user(self):
        kwargs = dict(m=4, k=1, gamma=0.5, trials=2000, seed=3)
        a = simulate(McConfig(detector=MRC, **kwargs))
        b = simulate(McConfig(detector=ZF, **kwargs))
        assert a.empirical_rate == pytest.approx(b.empirical_rate, rel=1e-12)
        assert a.bound_rate == pytest.approx(b.bound_rate, rel=1e-12)

    def test_single_trial_has_no_spread_estimate(self):
        res = simulate(McConfig(m=8, k=2, gamma=0.1, detector=MRC,
                                trials=1, seed=0))
        assert res.ci_halfwidth == 0.0
        assert math.isfinite(res.empirical_rate)


class TestResamplePath:
    def test_singular_gram_is_redrawn(self, monkeypatch):
        m, k, seed, gamma = 6, 3, 9, 0.5
        _mask_first_draws(monkeypatch)
        res = simulate(McConfig(m=m, k=k, gamma=gamma, detector=ZF,
                                trials=1, seed=seed))
        assert res.resampled == 1
        h1 = channel_matrix(m, k, seed, 0, resample=1)
        diag = np.diagonal(np.linalg.inv(h1.conj().T @ h1)).real
        assert res.empirical_rate == float(np.log2(1.0 + gamma / diag).sum())

    def test_rank_deficient_batch_falls_back_per_trial(self, monkeypatch):
        _mask_first_draws(monkeypatch)
        res = simulate(McConfig(m=6, k=3, gamma=0.5, detector=ZF,
                                trials=64, seed=2))
        assert res.resampled == 64
        assert math.isfinite(res.empirical_rate)
        assert res.empirical_rate > 0


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
            simulate(cfg, threads=0)
        with pytest.raises(ValueError, match="threads"):
            bound_gap_sweep([cfg], threads=-1)
        with pytest.raises(ValueError, match="threads"):
            simulate(cfg, threads=True)
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


def _box_muller_gram(u):
    radius = np.sqrt(-np.log(1.0 - u[..., 0, :, :]))
    angle = 2.0 * math.pi * u[..., 1, :, :]
    h = np.empty(radius.shape, dtype=np.complex128)
    h.real = radius * np.cos(angle)
    h.imag = radius * np.sin(angle)
    return np.matmul(h.conj().swapaxes(-1, -2), h)


def _redrawn_diag_inv(stream, trial, gram):
    """Diagonal of the inverted Gram matrix, redrawing on rank deficiency."""
    resamples = 0
    while True:
        try:
            np.linalg.cholesky(gram)
            return np.diagonal(np.linalg.inv(gram)).real.copy(), resamples
        except np.linalg.LinAlgError:
            resamples += 1
            gram = _box_muller_gram(stream.uniforms(trial, resamples))


def _whole_slab_reference(seed, m, k, lo, hi, mrc_members, zf_members):
    """The slab body before chunking: each stage on the whole slab at once.

    The reference for the streamed slab, with Box-Muller spelled out as it
    was and its own per-trial redraw, so it shares no chunk, buffer or
    redraw logic with the code under test. Returns the ZF redraw count.
    """
    n = hi - lo
    stream = _ChannelStream(seed, m, k)
    u = np.empty((n, 2, m, k))
    for i in range(n):
        stream.uniforms(lo + i, 0, out=u[i])
    gram = _box_muller_gram(u)

    if mrc_members:
        d = np.diagonal(gram, axis1=1, axis2=2).real
        row_power = (gram.real ** 2 + gram.imag ** 2).sum(axis=2)
        cross = row_power - d * d
        for mem in mrc_members:
            g = mem.cfg.gamma
            sinr = (g * d * d) / (g * cross + d)
            mem.rates[lo:hi] = np.log2(1.0 + sinr).sum(axis=1)

    resampled = 0
    if zf_members:
        try:
            np.linalg.cholesky(gram)
            diag_inv = np.diagonal(
                np.linalg.inv(gram), axis1=1, axis2=2).real
        except np.linalg.LinAlgError:
            diag_inv = np.empty((n, k))
            for i in range(n):
                diag_inv[i], extra = _redrawn_diag_inv(stream, lo + i, gram[i])
                resampled += extra
        for mem in zf_members:
            mem.rates[lo:hi] = np.log2(1.0 + mem.cfg.gamma / diag_inv).sum(axis=1)
    return resampled


def _family(m, k, trials, seed=13):
    return [McConfig(m=m, k=k, gamma=g, detector=det, trials=trials, seed=seed)
            for det in (MRC, ZF) for g in (0.02, 3.0)
            if det is MRC or m > k]


def _assert_streamed_equals_whole_slab(monkeypatch, family):
    streamed = {t: bound_gap_sweep(family, threads=t) for t in (1, 2)}
    with monkeypatch.context() as patch:
        patch.setattr(mc, "_process_slab", _whole_slab_reference)
        want = bound_gap_sweep(family)
    assert streamed[1] == want
    assert streamed[2] == want


class TestStreamedSlab:
    @pytest.mark.parametrize("m,k", [(5, 3), (4, 1), (6, 5)])
    @pytest.mark.parametrize("chunk", [None, 7])
    def test_chunks_leave_every_result_unchanged(self, monkeypatch, m, k,
                                                 chunk):
        # chunk=None keeps the module's 1 MiB chunk, which holds a whole
        # slab at these sizes; 7 trials puts chunk edges inside each slab
        if chunk is not None:
            monkeypatch.setattr(mc, "_CHUNK_BYTES", 16 * m * k * chunk)
        size = chunk or _SLAB
        for trials in (1, size - 1, size + 1, _SLAB + 37):
            _assert_streamed_equals_whole_slab(
                monkeypatch, _family(m, k, trials))

    def test_cache_sized_chunks_of_a_large_design(self, monkeypatch):
        chunk = mc._CHUNK_BYTES // (16 * 128 * 16)
        assert 1 < chunk < _SLAB
        for trials in (chunk - 1, chunk + 1, _SLAB + 37):
            _assert_streamed_equals_whole_slab(
                monkeypatch, _family(128, 16, trials))

    def test_rank_deficient_fallback(self, monkeypatch):
        _mask_first_draws(monkeypatch)
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 16 * 6 * 3 * 7)
        # MRC is left out: its zero-norm user makes every rate NaN
        family = [cfg for cfg in _family(6, 3, 7 * 3 + 2)
                  if cfg.detector is ZF]
        _assert_streamed_equals_whole_slab(monkeypatch, family)
        assert bound_gap_sweep(family)[0][1].resampled == 23

    @pytest.mark.parametrize("m,k", [(6, 3), (17, 16), (64, 8)])
    def test_singular_trials_fall_back_within_their_chunk(self, monkeypatch,
                                                           m, k):
        # 7-trial chunks: trial 0 opens a chunk, 10 sits inside one, 4095
        # fills the first slab's last partial chunk, 4100 is in the second
        # slab and 4132 is the run's last trial, in its last partial chunk
        masked = {0, 10, _SLAB - 1, _SLAB + 4, _SLAB + 36}
        _mask_first_draws(monkeypatch, masked)
        monkeypatch.setattr(mc, "_CHUNK_BYTES", 16 * m * k * 7)
        family = [cfg for cfg in _family(m, k, _SLAB + 37)
                  if cfg.detector is ZF]
        _assert_streamed_equals_whole_slab(monkeypatch, family)
        assert bound_gap_sweep(family)[0][1].resampled == len(masked)

    def test_slab_memory_per_worker_at_two_threads(self):
        # two workers each stream one slab at once, so the peak is two sets
        # of chunk buffers: 8 MB a worker, where one slab-sized Gram with
        # ZF's factor and inverse would take about 40 MB
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
        # every stage runs per chunk, so the peak is the three ~1 MiB chunk
        # buffers and a chunk of Gram matrices; one slab-sized (4096, 16, 16)
        # array would take 16.8 MB on its own
        family = [McConfig(m=128, k=16, gamma=0.1, detector=det,
                           trials=_SLAB, seed=3) for det in (MRC, ZF)]
        tracemalloc.start()
        try:
            bound_gap_sweep(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
