"""Monte-Carlo check that the closed-form rates are achievable on average.

Simulates the flat i.i.d. Rayleigh uplink and measures the ergodic sum
rate under MRC or ZF combining with perfect receiver CSI, confirming that
the closed-form expressions used by the optimizer sit below the empirical
mean (they are Jensen-style lower bounds, so the margin must be positive
up to Monte-Carlo noise).

Each trial needs only its Gram matrix W = H^H H, never the (m, k) channel
H. The complex Bartlett decomposition draws W's factor directly:
W = L L^H, with L lower-trapezoidal (k, min(m, k)), independent
L_ii = sqrt(Gamma(m - i + 1, 1)) on the diagonal and L_ij ~ CN(0, 1)
below it. That takes k (k + 1) / 2 variates a trial instead of m k, and
L_ii > 0, so ZF's factor is never singular and nothing is redrawn;
`resampled` stays 0.

Determinism contract: work is partitioned into fixed-size slabs of
trials, all run on one pool of `threads` workers (a single worker at
threads=1); the thread count only decides which worker handles a slab,
never where slab boundaries fall. Each slab reads two counter-based
Philox streams keyed by the seed, one for the Gamma draws and one for
the uniforms that Box-Muller maps to L's off-diagonal entries; the
stream kind and the slab index sit in the counter's high words. Each
stream is read in trial order, so results are bit-identical across
runs, across thread counts, and between a standalone run and a member
of a grouped sweep. A trial is addressed only through its slab: trial t
of a slab depends on the draws of the trials before it.

Inside a slab, trials stream through chunks of 512 KiB of (k, k)
complex matrices, which reuse the same buffers: the Gamma draws, the
uniforms, L's off-diagonal entries, L, its conjugate, the Gram matrices
and, for ZF, L's inverse, built by forward substitution. Every stage,
from the draw to each member's per-trial rates, runs on one chunk at a
time. A chunk only bounds how many trials are handled at once; it
never moves a slab boundary, both streams are read element by element,
and every other operation acts per trial or along a trial's own axes,
so every result is the same for any chunk size.
Memory per worker thread is the chunk buffers plus what one chunk's
rates derive from L, plus each member's per-trial rates.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .link import AntennaConfig, Detector, rate_achieved

_SLAB = 4096        # trials per work unit; fixed so threading cannot move boundaries
_CHUNK_BYTES = 1 << 19  # (k, k) complex matrices per chunk; its buffers stay in L2
_GAMMA, _UNIFORM = 0, 1  # a slab's two streams, by the variate kind they draw
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
    resampled: int = 0      # ZF redraws; the Bartlett factor never needs one


def channel_from_uniforms(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Map uniforms of shape (..., 2, n) to CN(0, 1) entries (..., n).

    Polar Box-Muller with the pair (radius, angle) per entry; each complex
    coefficient has unit total variance, i.e. 1/2 per real component.
    The entries are written to `out` (complex128, shape (..., n)) and
    u is overwritten as scratch.
    """
    radius, angle = u[..., 0, :], u[..., 1, :]
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


def _slab_stream(seed: int, kind: int, slab: int) -> np.random.Generator:
    """The Philox stream of one variate kind in one slab."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=(0, 0, kind, slab)))


class _Member:
    """A config sharing the group's channel draws, plus its per-trial rates."""

    def __init__(self, cfg: McConfig) -> None:
        self.cfg = cfg
        self.rates = np.empty(cfg.trials)


def _process_slab(seed: int, m: int, k: int, lo: int, hi: int,
                  mrc_members: list[_Member], zf_members: list[_Member]) -> None:
    """Fill every member's rates for trials lo..hi-1."""
    n = hi - lo
    gammas = _slab_stream(seed, _GAMMA, lo // _SLAB)
    uniforms = _slab_stream(seed, _UNIFORM, lo // _SLAB)
    r = min(m, k)
    shape = m - np.arange(r)                   # L_ii^2 ~ Gamma(m - i), i from 0
    diag = np.arange(r)
    rows, cols = np.tril_indices(k, -1, r)     # L's CN(0, 1) entries
    # a trial's Gram takes k^2 complex doubles, 16 k^2 bytes
    chunk = min(n, max(1, _CHUNK_BYTES // (16 * k * k)))
    draws = np.empty((chunk, r))
    u = np.empty((chunk, 2, rows.size))
    z = np.empty((chunk, rows.size), dtype=np.complex128)
    factor = np.zeros((chunk, k, r), dtype=np.complex128)
    factor_conj = np.empty_like(factor)
    gram_buf = np.empty((chunk, k, k), dtype=np.complex128)
    if zf_members:     # only the lower triangle is ever written
        inv_buf = np.zeros((chunk, k, k), dtype=np.complex128)

    for a in range(0, n, chunk):
        c = min(chunk, n - a)
        start, stop = lo + a, lo + a + c
        lower = factor[:c]
        lower[:, diag, diag] = np.sqrt(
            gammas.standard_gamma(shape, out=draws[:c]))
        uniforms.random(out=u[:c])
        lower[:, rows, cols] = channel_from_uniforms(u[:c], out=z[:c])

        if mrc_members:
            np.conjugate(lower, out=factor_conj[:c])
            gram = np.matmul(lower, factor_conj[:c].transpose(0, 2, 1),
                             out=gram_buf[:c])
            d = np.diagonal(gram, axis1=1, axis2=2).real      # (c, k) channel norms
            row_power = (gram.real ** 2 + gram.imag ** 2).sum(axis=2)
            cross = row_power - d * d                         # interference power
            for mem in mrc_members:
                g = mem.cfg.gamma
                sinr = (g * d * d) / (g * cross + d)
                mem.rates[start:stop] = np.log2(1.0 + sinr).sum(axis=1)

        if zf_members:
            # [W^{-1}]_jj = |column j of L^{-1}|^2, and L is square for ZF;
            # row i of L^{-1} by forward substitution on rows 0..i-1
            inv = inv_buf[:c]
            inv_diag = 1.0 / lower[:, diag, diag].real
            inv[:, diag, diag] = inv_diag
            for i in range(1, k):
                np.matmul(lower[:, i, None, :i], inv[:, :i, :i],
                          out=inv[:, i, None, :i])
                inv[:, i, :i] *= -inv_diag[:, i, None]
            diag_inv = (inv.real ** 2 + inv.imag ** 2).sum(axis=1)
            for mem in zf_members:
                mem.rates[start:stop] = np.log2(
                    1.0 + mem.cfg.gamma / diag_inv).sum(axis=1)


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
        for fut in futures:
            fut.result()

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
            margin=empirical - bound))
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
