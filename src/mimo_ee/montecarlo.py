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
L_ii > 0, so ZF's factor is never singular and nothing is redrawn.
Each off-diagonal entry is a pair of standard normals, real part first,
scaled by sqrt(1/2); one index table places them in L row by row, in the
order the stream is read.

Determinism contract: work is partitioned into fixed-size slabs of
trials; every slab of a `bound_gap_sweep` call runs on the one pool of
`threads` workers it opens (a single worker at threads=1). The thread count
only decides which worker handles a slab, never where slab boundaries
fall. Each slab reads two counter-based Philox streams keyed by the
seed, one for the Gamma draws and one for the normals of L's
off-diagonal entries; the stream kind and the slab index sit in the
counter's high words. One stream read a chunk of Gamma draws, then a
chunk of normals, at a time would give a trial other draws at another
chunk size; two streams keep it out. Each stream is read in trial
order, so results are bit-identical across runs, across thread counts,
and between a config swept alone and one swept with others. A trial is
addressed only through its slab: trial t of a slab depends on the draws
of the trials before it.

Inside a slab, trials stream through chunks of 512 KiB of (k, k)
complex matrices, which reuse the same buffers: L's off-diagonal
entries, L, the Gram matrices, their squared moduli and, for ZF, L's
inverse, built by forward substitution. Every stage,
from the draw to the rates, one broadcast per detector over its configs'
SNRs into a (configs, trials) array, runs on one chunk at a time. A
chunk only bounds how many trials are handled at once; it never moves a
slab boundary, both streams are read element by element, and every
other operation acts per trial or along a trial's own axes, so every
result is the same for any chunk size. Memory is the rate arrays plus,
per worker, the chunk buffers and a (configs, chunk, k) array per detector.

Both detectors take a trial's rate by one step, `_rate`: where the SINR
overflows, its log is a difference of logs, so the simulated rate stays
finite. A point whose simulated or closed-form rate leaves double range
is refused with OverflowError; near gamma = 1.7e308 that is the closed
form, whose SINR overflows first.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .link import AntennaConfig, Detector, rate_achieved
from .units import _refuse, _require_count, _require_number

_SLAB = 4096        # trials per work unit; fixed so threading cannot move boundaries
_CHUNK_BYTES = 1 << 19  # (k, k) complex matrices per chunk; its buffers stay in L2
_GAMMA, _NORMAL = 0, 1  # a slab's two streams, by the variate kind they draw
_Z95 = 1.96         # two-sided 95% normal quantile
_SQRT_HALF = math.sqrt(0.5)  # CN(0, 1) has variance 1/2 per real component
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
            _require_count(name, getattr(self, name))
        if self.detector is Detector.ZF and self.m <= self.k:
            raise ValueError(
                f"ZF needs m > k for an invertible bound, got m={self.m}, k={self.k}")
        _require_number("gamma", self.gamma, 0)
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < _SEED_BOUND):
            _refuse("seed", "a 64-bit unsigned integer", self.seed)


@dataclass(frozen=True)
class McResult:
    empirical_rate: float   # mean over trials of the per-trial sum rate
    ci_halfwidth: float     # 95% normal-approximation halfwidth
    bound_rate: float       # closed-form achievable rate at the same gamma
    margin: float           # empirical_rate - bound_rate
    # always 0: perfbench/tracing.py reads it, the only reason it stays
    resampled: int = 0


def _slab_stream(seed: int, kind: int, slab: int) -> np.random.Generator:
    """The Philox stream of one variate kind in one slab."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=(0, 0, kind, slab)))


def _rate(signal: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Per-trial sum over users of log2(1 + signal / noise), both > 0 and
    broadcast to (configs, trials, k); only where that SINR overflows is
    its log2 the log difference log2(signal) - log2(noise)."""
    rate = np.log2(1.0 + signal / noise)
    if np.isinf(rate).any():
        np.subtract(np.log2(signal), np.log2(noise), out=rate, where=np.isinf(rate))
    return rate.sum(axis=-1)


def _process_slab(seed: int, m: int, k: int, lo: int, hi: int,
                  gammas: dict[Detector, np.ndarray],
                  rates: dict[Detector, np.ndarray]) -> None:
    """Fill columns lo..hi-1 of each detector's (configs, trials) rates,
    one row per transmit SNR in gammas[det]."""
    n = hi - lo
    gamma_draws = _slab_stream(seed, _GAMMA, lo // _SLAB)
    normals = _slab_stream(seed, _NORMAL, lo // _SLAB)
    r = min(m, k)
    shape = m - np.arange(r)                   # L_ii^2 ~ Gamma(m - i), i from 0
    diag = np.arange(r)
    below = np.tril_indices(k, -1, r)   # L's CN(0, 1) entries, row-major
    # a trial's Gram takes k^2 complex doubles, 16 k^2 bytes
    chunk = min(n, max(1, _CHUNK_BYTES // (16 * k * k)))
    # reused chunk buffers: plain expressions give the same bytes, 8-9 % slower
    z = np.empty((chunk, below[0].size), dtype=np.complex128)
    factor = np.zeros((chunk, k, r), dtype=np.complex128)
    gram_buf = np.empty((chunk, k, k), dtype=np.complex128)
    square, square_im = np.empty((2, chunk, k, k))   # |x|^2 = re^2 + im^2
    mrc, zf = gammas.get(Detector.MRC), gammas.get(Detector.ZF)
    if zf is not None:     # only the lower triangle is ever written
        inv_buf = np.zeros((chunk, k, k), dtype=np.complex128)

    # a rate past double range is refused by _run_group, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, n, chunk):
            c = min(chunk, n - a)
            start, stop = lo + a, lo + a + c
            lower = factor[:c]
            lower[:, diag, diag] = np.sqrt(
                gamma_draws.standard_gamma(shape, size=(c, r)))
            parts = z[:c].view(np.float64)      # (re, im) of each entry in turn
            normals.standard_normal(out=parts)
            parts *= _SQRT_HALF
            lower[:, below[0], below[1]] = z[:c]

            if mrc is not None:
                gram = np.matmul(lower, lower.conj().transpose(0, 2, 1),
                                 out=gram_buf[:c])
                d = np.diagonal(gram, axis1=1, axis2=2).real      # (c, k) channel norms
                row_power = np.add(np.square(gram.real, out=square[:c]),
                                   np.square(gram.imag, out=square_im[:c]),
                                   out=square[:c]).sum(axis=2)
                cross = row_power - d * d                         # interference power
                g = mrc[:, None, None]                            # one SNR per row
                # SINR g d^2 / (g cross + d), divided by g first: g d^2
                # overflows long before the rate does
                rates[Detector.MRC][:, start:stop] = _rate(d * d, cross + d / g)

            if zf is not None:
                # [W^{-1}]_jj = |column j of L^{-1}|^2, and L is square for ZF;
                # row i of L^{-1} by forward substitution on rows 0..i-1
                inv = inv_buf[:c]
                inv_diag = 1.0 / lower[:, diag, diag].real
                inv[:, diag, diag] = inv_diag
                for i in range(1, k):
                    np.matmul(lower[:, i, None, :i], inv[:, :i, :i],
                              out=inv[:, i, None, :i])
                    inv[:, i, :i] *= -inv_diag[:, i, None]
                diag_inv = np.add(np.square(inv.real, out=square[:c]),
                                  np.square(inv.imag, out=square_im[:c]),
                                  out=square[:c]).sum(axis=1)
                rates[Detector.ZF][:, start:stop] = _rate(zf[:, None, None], diag_inv)


def _run_group(configs: Sequence[McConfig], pool: ThreadPoolExecutor
               ) -> list[McResult | OverflowError]:
    """Simulate configs sharing (m, k, trials, seed) on common channel draws;
    a config whose rate leaves double range gets the error to raise."""
    first = configs[0]
    m, k, trials, seed = first.m, first.k, first.trials, first.seed
    gammas = {det: np.array([c.gamma for c in configs if c.detector is det])
              for det in dict.fromkeys(cfg.detector for cfg in configs)}
    rates = {det: np.empty((g.size, trials)) for det, g in gammas.items()}
    list(pool.map(lambda lo: _process_slab(
        seed, m, k, lo, min(lo + _SLAB, trials), gammas, rates),
        range(0, trials, _SLAB)))

    # a detector's rows follow its configs' input order
    rows = {det: iter(r) for det, r in rates.items()}
    results = []
    for cfg in configs:
        row = next(rows[cfg.detector])
        empirical = float(row.mean())
        bound = rate_achieved(
            AntennaConfig(M=cfg.m, K=cfg.k), cfg.gamma, cfg.detector)
        if not (math.isfinite(empirical) and math.isfinite(bound)):
            results.append(OverflowError(
                f"rate out of double range at m={cfg.m}, k={cfg.k}, "
                f"gamma={cfg.gamma!r}, {cfg.detector.value}: simulated "
                f"{empirical!r}, closed form {bound!r}"))
            continue
        spread = float(row.std(ddof=1)) if trials > 1 else 0.0
        results.append(McResult(
            empirical_rate=empirical, bound_rate=bound, margin=empirical - bound,
            ci_halfwidth=_Z95 * spread / math.sqrt(trials)))
    return results


def bound_gap_sweep(configs: Iterable[McConfig], *,
                    threads: int = 1) -> list[tuple[McConfig, McResult]]:
    """Simulate a family of configs, one (cfg, result) row per input point.

    Configs agreeing on (m, k, trials, seed) share channel draws, so the
    family costs one channel sweep per distinct design rather than one per
    (gamma, detector) combination. Results are bit-identical to sweeping
    each config alone, and come back in input order.
    """
    _require_count("threads", threads)
    config_list = list(configs)
    if not config_list:
        raise ValueError("config family must be nonempty")
    grouped: dict[tuple[int, int, int, int], list[McConfig]] = {}
    for cfg in dict.fromkeys(config_list):    # a repeated config runs once
        grouped.setdefault((cfg.m, cfg.k, cfg.trials, cfg.seed), []).append(cfg)
    with ThreadPoolExecutor(threads) as pool:
        results = {cfg: res for group in grouped.values()
                   for cfg, res in zip(group, _run_group(group, pool))}
    rows = [(cfg, results[cfg]) for cfg in config_list]
    for _, res in rows:     # the first point out of range in input order
        if isinstance(res, OverflowError):
            raise res
    return rows
