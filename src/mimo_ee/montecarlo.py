"""Monte-Carlo check that the closed-form rates are achievable on average.

Simulates the flat i.i.d. Rayleigh uplink and measures the ergodic sum
rate under MRC or ZF combining with perfect receiver CSI, confirming that
the closed-form expressions used by the optimizer sit below the empirical
mean (they are Jensen-style lower bounds, so the margin must be positive
up to Monte-Carlo noise).

Determinism contract: every trial draws its channel from a counter-based
substream addressed by (seed, trial index, resample index), so results
are bit-identical across runs, across thread counts, and between a
standalone run and a member of a grouped sweep. Work is partitioned into
fixed-size slabs of trials, all run on one pool of `threads` workers (a
single worker at threads=1); the thread count only decides which worker
handles a slab, never where slab boundaries fall. A ZF trial whose Gram
fails Cholesky is redrawn at (seed, trial, resample + 1) until it
factors, and `resampled` counts those redraws.

Inside a slab, trials stream through chunks of about 1 MiB of uniforms,
which reuse four chunk buffers: the uniforms, the complex channels,
their conjugates and their (k, k) Gram matrices. Every stage, from the
draw and any redraw to each member's per-trial rates, runs on one chunk
at a time. A chunk only bounds how many trials are handled at once; it
never moves a slab boundary, and every operation acts per trial or along
a trial's own axes, so every result is the same for any chunk size.
Memory per worker thread is the chunk buffers plus what one chunk's
rates derive from the Gram, plus each member's per-trial rates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .link import AntennaConfig, Detector, rate_achieved

_SLAB = 4096        # trials per work unit; fixed so threading cannot move boundaries
_CHUNK_BYTES = 1 << 20  # uniforms per chunk of a slab, sized to stay in L2 cache
_Z95 = 1.96         # two-sided 95% normal quantile
_TWO_PI = 2.0 * math.pi
_SEED_BOUND = 2 ** 64


@dataclass(frozen=True)
class McConfig:
    """One simulation point: a design (m, k) driven at transmit SNR gamma.

    m >= 2 is advisable for MRC (at m = 1 the closed-form bound degenerates
    to zero) and at least a few hundred trials are needed before the normal
    CI approximation means anything; neither is enforced beyond validity.
    """

    m: int
    k: int
    gamma: float
    detector: Detector
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("m", "k", "trials"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.detector is Detector.ZF and self.m <= self.k:
            raise ValueError(
                f"ZF needs m > k for an invertible bound, got m={self.m}, k={self.k}")
        if isinstance(self.gamma, bool) or not (
                math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < _SEED_BOUND):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class McResult:
    empirical_rate: float   # mean over trials of the per-trial sum rate
    ci_halfwidth: float     # 95% normal-approximation halfwidth
    bound_rate: float       # closed-form achievable rate at the same gamma
    margin: float           # empirical_rate - bound_rate
    resampled: int = 0      # ZF trials redrawn after a singular Gram matrix


class _ChannelStream:
    """Per-worker channel source with one counter-block per (trial, resample)."""

    def __init__(self, seed: int, m: int, k: int) -> None:
        self._gen = np.random.Generator(np.random.Philox(key=seed))
        self._shape = (2, m, k)
        # one state dict, reused: each draw rewrites only its counter words,
        # and buffer_pos = 4 discards any buffered words from a prior block
        self._state = self._gen.bit_generator.state
        self._state["buffer_pos"] = 4
        self._counter = self._state["state"]["counter"]

    def uniforms(self, trial: int, resample: int = 0,
                 out: np.ndarray | None = None) -> np.ndarray:
        self._counter[:] = (0, resample, 0, trial)
        self._gen.bit_generator.state = self._state
        return self._gen.random(self._shape, out=out)


def channel_from_uniforms(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (..., 2, m, k) to CN(0, 1) matrices (..., m, k).

    Polar Box-Muller with the pair (radius, angle) per entry; each complex
    coefficient has unit total variance, i.e. 1/2 per real component.
    The matrices are written to `out` (complex128, shape (..., m, k)) and
    u is overwritten as scratch.
    """
    radius, angle = u[..., 0, :, :], u[..., 1, :, :]
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.negative(radius, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(_TWO_PI, angle, out=angle)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    np.multiply(out.real, radius, out=out.real)
    np.multiply(out.imag, radius, out=out.imag)
    return out


def channel_matrix(m: int, k: int, seed: int, trial: int,
                   resample: int = 0) -> np.ndarray:
    """The exact (m, k) channel draw that trial `trial` of a run would see."""
    return channel_from_uniforms(
        _ChannelStream(seed, m, k).uniforms(trial, resample),
        np.empty((m, k), dtype=np.complex128))


class _Member:
    """A config sharing the group's channel draws, plus its per-trial rates."""

    def __init__(self, cfg: McConfig) -> None:
        self.cfg = cfg
        self.rates = np.empty(cfg.trials)


def _factors(gram: np.ndarray) -> bool:
    """Whether every Gram matrix in `gram` is positive definite."""
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _process_slab(seed: int, m: int, k: int, lo: int, hi: int,
                  mrc_members: list[_Member], zf_members: list[_Member]) -> int:
    """Fill every member's rates for trials lo..hi-1; return ZF redraws."""
    n = hi - lo
    stream = _ChannelStream(seed, m, k)
    # a trial's uniforms take 2 m k doubles, 16 m k bytes
    chunk = min(n, max(1, _CHUNK_BYTES // (16 * m * k)))
    u = np.empty((chunk, 2, m, k))
    h = np.empty((chunk, m, k), dtype=np.complex128)
    h_conj = np.empty_like(h)
    gram_buf = np.empty((chunk, k, k), dtype=np.complex128)

    def draw(first: int, rows: slice, resample: int) -> np.ndarray:
        """Draw trials first + i, i in rows, at `resample`; return their Grams."""
        for i in range(rows.start, rows.stop):
            stream.uniforms(first + i, resample, out=u[i])
        channel_from_uniforms(u[rows], out=h[rows])
        np.conjugate(h[rows], out=h_conj[rows])
        return np.matmul(h_conj[rows].transpose(0, 2, 1), h[rows],
                         out=gram_buf[rows])

    resampled = 0
    for a in range(0, n, chunk):
        c = min(chunk, n - a)
        start, stop = lo + a, lo + a + c
        gram = draw(start, slice(0, c), 0)

        if mrc_members:
            d = np.diagonal(gram, axis1=1, axis2=2).real      # (c, k) channel norms
            row_power = (gram.real ** 2 + gram.imag ** 2).sum(axis=2)
            cross = row_power - d * d                         # interference power
            for mem in mrc_members:
                g = mem.cfg.gamma
                sinr = (g * d * d) / (g * cross + d)
                mem.rates[start:stop] = np.log2(1.0 + sinr).sum(axis=1)

        if zf_members:
            if not _factors(gram):
                # rare path: redraw each singular trial in place until it factors
                for i in range(c):
                    resample = 0
                    while not _factors(gram[i]):
                        resample += 1
                        draw(start, slice(i, i + 1), resample)
                    resampled += resample
            diag_inv = np.diagonal(np.linalg.inv(gram), axis1=1, axis2=2).real
            for mem in zf_members:
                mem.rates[start:stop] = np.log2(
                    1.0 + mem.cfg.gamma / diag_inv).sum(axis=1)
    return resampled


def _run_group(configs: Sequence[McConfig], threads: int) -> list[McResult]:
    """Simulate configs sharing (m, k, trials, seed) on common channel draws."""
    first = configs[0]
    m, k, trials, seed = first.m, first.k, first.trials, first.seed
    members = [_Member(cfg) for cfg in configs]
    mrc_members = [x for x in members if x.cfg.detector is Detector.MRC]
    zf_members = [x for x in members if x.cfg.detector is Detector.ZF]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [
            pool.submit(_process_slab, seed, m, k, lo, min(lo + _SLAB, trials),
                        mrc_members, zf_members)
            for lo in range(0, trials, _SLAB)]
        zf_resampled = sum(fut.result() for fut in futures)

    results = []
    for mem in members:
        cfg = mem.cfg
        empirical = float(mem.rates.mean())
        spread = float(mem.rates.std(ddof=1)) if trials > 1 else 0.0
        bound = rate_achieved(
            AntennaConfig(M=cfg.m, K=cfg.k), cfg.gamma, cfg.detector)
        results.append(McResult(
            empirical_rate=empirical,
            ci_halfwidth=_Z95 * spread / math.sqrt(trials),
            bound_rate=bound,
            margin=empirical - bound,
            resampled=zf_resampled if cfg.detector is Detector.ZF else 0))
    return results


def _require_threads(threads: int) -> None:
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")


def simulate(cfg: McConfig, *, threads: int = 1) -> McResult:
    """Measure the ergodic sum rate of one config against its closed form."""
    _require_threads(threads)
    return _run_group([cfg], threads)[0]


def bound_gap_sweep(configs: Iterable[McConfig], *,
                    threads: int = 1) -> list[tuple[McConfig, McResult]]:
    """Simulate a family of configs, one (cfg, result) row per input point.

    Configs agreeing on (m, k, trials, seed) share channel draws, so the
    family costs one channel sweep per distinct design rather than one per
    (gamma, detector) combination. Results are bit-identical to running
    simulate on each config alone, and come back in input order.
    """
    _require_threads(threads)
    config_list = list(configs)
    if not config_list:
        raise ValueError("config family must be nonempty")
    grouped: dict[tuple[int, int, int, int], list[int]] = {}
    for idx, cfg in enumerate(config_list):
        grouped.setdefault((cfg.m, cfg.k, cfg.trials, cfg.seed), []).append(idx)
    results: list[McResult | None] = [None] * len(config_list)
    for indices in grouped.values():
        for idx, res in zip(
                indices, _run_group([config_list[i] for i in indices], threads)):
            results[idx] = res
    return list(zip(config_list, results))
