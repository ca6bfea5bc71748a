"""Integer (M, K) optimizer: brute-force agreement, frozen cases, pruning."""

import contextlib
import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mimo_ee.efficiency import EfficiencyRangeError, evaluate_efficiency
from mimo_ee.integer_opt import (_FIRST_BLOCK, _K_EXACT, _LAST_BLOCK,
                                 Optimum, _block_powers, _interval_bound,
                                 _split, _window, optimize_exact)
from mimo_ee.link import (AntennaConfig, Detector, InfeasibleError,
                          _rate_headroom)
from mimo_ee.relaxation import minimize_relaxed, optimal_m
from mimo_ee.report import SweepSpec, sweep_records
from mimo_ee.units import PowerProfile, SystemParams

MRC, ZF = Detector.MRC, Detector.ZF


def _theta(R=4.0, alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0):
    return SystemParams(R=R, alpha=alpha, rho_r=rho_r, rho_d=rho_d, rho_s=rho_s)


def _total_power(m, k, theta, det):
    """evaluate_efficiency's total power at (m, k), +inf where it raises."""
    try:
        cfg = AntennaConfig(M=m, K=k)
        return evaluate_efficiency(cfg, theta, det).total_power
    except (InfeasibleError, EfficiencyRangeError):
        return math.inf


def _best_m_for_k(k, theta, det):
    """Least total power at integer K = k and the smallest M attaining it.

    The scalar oracle for the block kernel: one K at a time, exact Python
    ints throughout, candidates ranked through the public API only. The
    power is +inf (and M is 0) when no M reaches the rate with finite power.
    """
    if theta.R / k >= 1024.0:
        return math.inf, 0
    if det is ZF:
        m_lo = k + 1
    else:
        # MRC needs M - 1 > (K-1)(2^(R/K) - 1)
        boundary = (k - 1) * (2.0 ** (theta.R / k) - 1.0)
        if boundary == math.inf:
            return math.inf, 0
        m_lo = math.floor(boundary) + 2
    m_cont = optimal_m(theta, float(k), det)
    if math.isfinite(m_cont):
        candidates = (max(m_lo, math.floor(m_cont)),
                      max(m_lo, math.ceil(m_cont)))
    else:
        candidates = (m_lo, m_lo + 1)
    return min((_total_power(m, k, theta, det), m) for m in candidates)


def _kernel_at(k, theta, det):
    """The block kernel's power and M at the single user count k."""
    powers, best_m = _block_powers(np.array([float(k)]), theta, det)
    return float(powers[0]), best_m(0)


def _power_over_m(theta, det, k, mm):
    """Total power for a fixed K over an array of M values.

    Replicates the scalar evaluation term by term, in the same order, so
    the minima are comparable bit for bit. Infeasible entries become inf.
    """
    e = 2.0 ** (theta.R / k) - 1.0
    if det is ZF:
        denom = mm - k
    else:
        denom = mm - 1.0 - (0.0 if k == 1 else (k - 1.0) * e)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gamma = e / denom
        power = (theta.alpha * k * gamma + mm * theta.rho_r
                 + k * theta.rho_d + theta.rho_s)
    power[~((denom > 0) & np.isfinite(gamma) & (gamma > 0))] = np.inf
    return power


def _brute_force(theta, det, m_hi, k_hi):
    """Exhaustive scan; first minimum wins, so ties prefer small K then M."""
    best = None
    mm = np.arange(1.0, m_hi + 1.0)
    for k in range(1, k_hi + 1):
        power = _power_over_m(theta, det, k, mm)
        i = int(np.argmin(power))
        p = float(power[i])
        if math.isfinite(p) and (best is None or p < best[0]):
            best = (p, i + 1, k)
    assert best is not None
    return best[1], best[2], theta.R / best[0]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_small_instance(self, det):
        theta = _theta(R=1.0, alpha=2.0, rho_r=0.1, rho_d=0.1, rho_s=0.0)
        m_ref, k_ref, zeta_ref = _brute_force(theta, det, m_hi=500, k_hi=60)
        got = optimize_exact(theta, det)
        assert (got.m_star, got.k_star) == (m_ref, k_ref)
        assert got.zeta_star == zeta_ref

    def test_small_instance_frozen_value(self):
        got = optimize_exact(
            _theta(R=1.0, alpha=2.0, rho_r=0.1, rho_d=0.1, rho_s=0.0), MRC)
        assert (got.m_star, got.k_star) == (5, 1)
        assert got.zeta_star == 0.9090909090909091

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_heavy_user_circuits_force_one_user(self, det):
        theta = _theta(R=8.0, alpha=2.0, rho_r=1.0, rho_d=1e6, rho_s=1.0)
        m_ref, k_ref, zeta_ref = _brute_force(theta, det, m_hi=200, k_hi=3)
        got = optimize_exact(theta, det)
        assert (got.m_star, got.k_star) == (m_ref, k_ref) == (24, 1)
        assert got.zeta_star == zeta_ref

    def test_detectors_coincide_for_one_user(self):
        theta = _theta(R=8.0, alpha=2.0, rho_r=1.0, rho_d=1e6, rho_s=1.0)
        mrc = optimize_exact(theta, MRC)
        zf = optimize_exact(theta, ZF)
        assert (mrc.m_star, mrc.k_star) == (zf.m_star, zf.k_star)
        assert mrc.zeta_star == zf.zeta_star

    def test_rounding_the_continuous_optimum_is_sufficient(self):
        # the per-K shortcut checks only floor/ceil of the real-valued
        # optimum; exhaustive integer scans must never find anything better
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.integers(1, 13))
            theta = SystemParams(
                R=k * float(rng.uniform(0.3, 8.0)),
                alpha=float(rng.uniform(1.05, 4.0)),
                rho_r=float(10.0 ** rng.uniform(-2, 2)),
                rho_d=float(10.0 ** rng.uniform(-2, 2)),
                rho_s=float(10.0 ** rng.uniform(-2, 2)))
            det = MRC if rng.integers(2) == 0 else ZF
            power, m = _kernel_at(k, theta, det)
            assert math.isfinite(power)
            m_cont = optimal_m(theta, float(k), det)
            m_hi = max(int(math.ceil(4.0 * m_cont)), m + 50)
            mm = np.arange(1.0, float(m_hi + 1))
            scan_min = float(np.min(_power_over_m(theta, det, k, mm)))
            assert power == pytest.approx(scan_min, rel=1e-15)


class TestRateScaling:
    def test_growing_rate_targets(self):
        spec = SweepSpec(r_values=(100.0, 300.0, 1000.0),
                         theta_base=PowerProfile(alpha=2.0, rho_r=1e3,
                                                 rho_d=1e3, rho_s=1e3),
                         detectors=(MRC,))
        rows = sweep_records(spec)
        assert [(r["M_star"], r["K_star"]) for r in rows] == \
            [(120, 68), (359, 207), (1193, 692)]
        zetas = [r["zeta_star"] for r in rows]
        assert zetas == sorted(zetas)
        for r in rows:
            assert 0.999 < r["ratio"] <= 1.0 + 1e-12
        ratios = [r["ratio"] for r in rows]
        assert ratios == sorted(ratios)

    def test_sweep_row_matches_direct_calls(self):
        theta = _theta(R=40.0)
        (row,) = sweep_records(SweepSpec(
            r_values=(40.0,), theta_base=PowerProfile(
                alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
            detectors=(ZF,)))
        opt = optimize_exact(theta, ZF)
        relaxed = minimize_relaxed(theta, ZF)
        assert (row["M_star"], row["K_star"]) == (opt.m_star, opt.k_star)
        assert row["zeta_star"] == opt.zeta_star
        assert row["zeta_relaxed"] == relaxed.zeta
        assert row["ratio"] == opt.zeta_star / relaxed.zeta


class TestRelaxationDominates:
    @pytest.mark.parametrize("det", [MRC, ZF])
    @pytest.mark.parametrize("rate", [4.0, 40.0, 150.0])
    def test_integer_solution_never_beats_relaxed(self, det, rate):
        theta = _theta(R=rate)
        exact = optimize_exact(theta, det)
        relaxed = minimize_relaxed(theta, det)
        assert exact.zeta_star <= relaxed.zeta * (1.0 + 1e-12)


class TestInvariances:
    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_residual_power_shifts_objective_not_argmin(self, det):
        base = optimize_exact(_theta(R=60.0, rho_s=0.0), det)
        shifted = optimize_exact(_theta(R=60.0, rho_s=1e3), det)
        assert (base.m_star, base.k_star) == (shifted.m_star, shifted.k_star)
        assert shifted.objective == pytest.approx(base.objective + 1e3,
                                                  rel=1e-12)

    def test_result_fields_consistent(self):
        got = optimize_exact(_theta(R=60.0), MRC)
        assert got.zeta_star == got.report.zeta
        assert got.objective == got.report.total_power
        assert got.objective == pytest.approx(60.0 / got.zeta_star, rel=1e-12)
        direct = evaluate_efficiency(
            AntennaConfig(M=got.m_star, K=got.k_star), _theta(R=60.0), MRC)
        assert direct.zeta == got.zeta_star

    def test_one_report_per_search(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return evaluate_efficiency(*args, **kwargs)

        monkeypatch.setattr("mimo_ee.integer_opt.evaluate_efficiency", counted)
        got = optimize_exact(_theta(R=60.0), MRC)
        assert len(calls) == 1
        assert calls[0][0] == AntennaConfig(M=got.m_star, K=got.k_star)

    def test_search_metadata(self):
        got = optimize_exact(_theta(R=60.0), MRC)
        assert got.pruned_at is not None
        assert got.pruned_at > got.k_star
        assert got.k_range_searched == (1, got.pruned_at - 1)

    def test_explicit_k_max_restricts_search(self):
        theta = _theta(R=60.0)
        capped = optimize_exact(theta, MRC, k_max=2)
        assert capped.k_star <= 2
        assert capped.zeta_star <= optimize_exact(theta, MRC).zeta_star

    def test_k_max_enables_free_user_circuits(self):
        got = optimize_exact(_theta(rho_d=0.0), MRC, k_max=8)
        assert 1 <= got.k_star <= 8


class TestErrors:
    def test_unreachable_rates(self):
        with pytest.raises(InfeasibleError):
            optimize_exact(_theta(R=1e6), MRC, k_max=500)
        with pytest.raises(InfeasibleError):
            optimize_exact(_theta(R=2000.0), ZF, k_max=1)

    def test_validation(self):
        with pytest.raises(ValueError, match="rho_r"):
            optimize_exact(_theta(rho_r=0.0), MRC)
        with pytest.raises(ValueError, match="k_max"):
            optimize_exact(_theta(rho_d=0.0), MRC)
        for k_max in (0, True, 2.5, 3.0):
            with pytest.raises(ValueError, match="k_max must be an integer"):
                optimize_exact(_theta(), MRC, k_max=k_max)
            with pytest.raises(ValueError, match="k_max must be an integer"):
                SweepSpec(r_values=(4.0,), theta_base=PowerProfile(
                    alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0), k_max=k_max)

    def test_k_max_without_a_double_is_refused(self):
        # the relaxation takes the same cap as a double
        largest = int(sys.float_info.max)
        for k_max in (10 ** 400, largest + 1):
            with pytest.raises(ValueError, match="within double range"):
                optimize_exact(_theta(), MRC, k_max=k_max)
            with pytest.raises(ValueError, match="within double range"):
                SweepSpec(r_values=(4.0,), theta_base=PowerProfile(
                    alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0), k_max=k_max)
        # the largest double, as an integer, still runs
        got = optimize_exact(_theta(R=8.0), MRC, k_max=largest)
        want = optimize_exact(_theta(R=8.0), MRC)
        assert (got.m_star, got.k_star, got.zeta_star) == (
            want.m_star, want.k_star, want.zeta_star)

    def test_min_feasible_m_exact_integer_boundary(self):
        # R = 12, K = 3: four bits per user, boundary 2*(2^4-1) = 30, so
        # the smallest workable M is 32 and M = 31 sits exactly on the
        # infeasible boundary; costly antennas push the search onto it
        theta = _theta(R=12.0, rho_r=1e6)
        assert _kernel_at(3, theta, MRC)[1] == 32
        assert _rate_headroom(AntennaConfig(M=31, K=3), 12.0, MRC)[1] == 0.0
        assert _rate_headroom(AntennaConfig(M=32, K=3), 12.0, MRC)[1] > 0.0
        assert _kernel_at(3, theta, ZF)[1] == 4


# (R, alpha, rho_r, rho_d, rho_s), detector, k_max ->
#     (M*, K*, zeta*, k_range_searched, pruned_at).
#     (M*, K*, zeta*) are frozen from the first, rate-blind search, so any
#     rework must reproduce them bit for bit; the K range and pruned_at are
#     the least and greatest K the interval search priced and the first K
#     past them it excluded
FROZEN_OPTIMA = (
    ((35.0, 2.0, 1.0, 1.0, 1.0), MRC, None, (49, 25, 0.4144013443440592, (1, 512), 513)),
    ((35.0, 2.0, 1.0, 1.0, 1.0), ZF, None, (24, 11, 0.7047281797522282, (1, 512), 513)),
    ((35.0, 1.5, 0.1, 10.0, 0.1), MRC, None, (244, 7, 0.3492647058823529, (1, 512), 513)),
    ((35.0, 1.5, 0.1, 10.0, 0.1), ZF, None, (103, 5, 0.49914868227658366, (1, 512), 513)),
    ((35.0, 3.0, 0.5, 2.0, 5.0), MRC, None, (73, 16, 0.42352945222185007, (1, 512), 513)),
    ((35.0, 3.0, 0.5, 2.0, 5.0), ZF, None, (36, 9, 0.6385230586963037, (1, 512), 513)),
    ((120.0, 2.0, 1.0, 1.0, 1.0), MRC, None, (156, 86, 0.46137045569423224, (1, 512), 513)),
    ((120.0, 2.0, 1.0, 1.0, 1.0), ZF, None, (60, 30, 0.9917355371900827, (1, 512), 513)),
    ((120.0, 1.5, 0.1, 10.0, 0.1), MRC, None, (909, 23, 0.3612267792974406, (1, 512), 513)),
    ((120.0, 1.5, 0.1, 10.0, 0.1), ZF, None, (296, 14, 0.6062006013300335, (1, 512), 513)),
    ((120.0, 3.0, 0.5, 2.0, 5.0), MRC, None, (230, 54, 0.4895608574495864, (1, 512), 513)),
    ((120.0, 3.0, 0.5, 2.0, 5.0), ZF, None, (85, 27, 0.9194693059628237, (1, 512), 513)),
    ((480.0, 2.0, 1.0, 1.0, 1.0), MRC, None, (599, 339, 0.49374513712714563, (1, 512), 513)),
    ((480.0, 2.0, 1.0, 1.0, 1.0), ZF, None, (173, 97, 1.382231352367195, (1, 512), 513)),
    ((480.0, 1.5, 0.1, 10.0, 0.1), MRC, None, (3422, 93, 0.3708623675779677, (1, 512), 513)),
    ((480.0, 1.5, 0.1, 10.0, 0.1), ZF, None, (906, 48, 0.7310986397347424, (1, 512), 513)),
    ((480.0, 3.0, 0.5, 2.0, 5.0), MRC, None, (873, 212, 0.5331258304946763, (1, 512), 513)),
    ((480.0, 3.0, 0.5, 2.0, 5.0), ZF, None, (238, 88, 1.2785742449500992, (1, 512), 513)),
    ((3000.0, 2.0, 1.0, 1.0, 1.0), MRC, None, (3640, 2096, 0.5153159204179901, (3, 29800), 29801)),
    ((3000.0, 2.0, 1.0, 1.0, 1.0), ZF, None, (748, 474, 2.0030572745723507, (3, 526), 527)),
    ((3000.0, 1.5, 0.1, 10.0, 0.1), MRC, None, (21242, 576, 0.37783154560517684, (3, 686), 687)),
    ((3000.0, 1.5, 0.1, 10.0, 0.1), ZF, None, (3853, 256, 0.9076843106138633, (3, 514), 515)),
    ((3000.0, 3.0, 0.5, 2.0, 5.0), MRC, None, (5269, 1310, 0.5610708534521782, (3, 7926), 7927)),
    ((3000.0, 3.0, 0.5, 2.0, 5.0), ZF, None, (995, 432, 1.8207005806870153, (3, 514), 515)),
    ((480.0, 2.0, 1.0, 1.0, 1.0), MRC, 1, (2498699081648685706009877066535308618943944941330959117958010198753804288, 1, 9.604998127331275e-71, (1, 1), None)),
    ((480.0, 2.0, 1.0, 1.0, 1.0), ZF, 7, (78359641543, 7, 3.0628011470235123e-09, (1, 7), None)),
    ((3000.0, 2.0, 1.0, 1.0, 1.0), MRC, 40, (1473378342657067694686208, 40, 2.036136892433417e-21, (3, 40), None)),
    ((3000.0, 2.0, 1.0, 1.0, 1.0), ZF, 300, (1083, 300, 1.3838225313878523, (3, 300), None)),
    ((120.0, 1.5, 0.1, 10.0, 0.1), MRC, 2, (1152921510487973120, 2, 1.040834074967362e-15, (1, 2), None)),
    ((120.0, 3.0, 0.5, 2.0, 5.0), ZF, 9, (756, 9, 0.1550343681783867, (1, 9), None)),
    ((3000.0, 3.0, 0.5, 2.0, 5.0), MRC, 1000, (7199, 1000, 0.5256758460496316, (3, 1000), None)),
    ((35.0, 2.0, 1.0, 1.0, 1.0), ZF, 3, (143, 3, 0.12225553744044046, (1, 3), None)),
    ((35.0, 2.0, 1.0, 0.0, 1.0), MRC, 5, (545, 5, 0.0602121762400841, (1, 5), None)),
    ((35.0, 2.0, 1.0, 0.0, 1.0), ZF, 60, (25, 13, 0.9250080981031971, (1, 60), None)),
    ((120.0, 1.5, 0.1, 0.0, 0.1), MRC, 30, (518, 30, 1.9956193721100022, (1, 30), None)),
    ((120.0, 1.5, 0.1, 0.0, 0.1), ZF, 12, (441, 12, 1.3773618223556419, (1, 12), None)),
    ((480.0, 3.0, 0.5, 0.0, 0.0), MRC, 200, (924, 200, 0.9642163985885978, (1, 200), None)),
    ((480.0, 3.0, 0.5, 0.0, 0.0), ZF, 150, (232, 142, 2.98965267331326, (1, 150), None)),
    ((3000.0, 2.0, 1.0, 0.0, 1.0), MRC, 700, (13096, 700, 0.22627239845738914, (3, 700), None)),
    ((3000.0, 2.0, 1.0, 0.0, 1.0), ZF, 2000, (776, 569, 3.0488247607233516, (3, 722), 723)),
)


class TestFrozenOptima:
    def test_every_field_matches(self):
        for (R, alpha, rho_r, rho_d, rho_s), det, k_max, want in \
                FROZEN_OPTIMA:
            case = (R, alpha, rho_r, rho_d, rho_s, det, k_max)
            got = optimize_exact(_theta(R=R, alpha=alpha, rho_r=rho_r,
                                        rho_d=rho_d, rho_s=rho_s),
                                 det, k_max=k_max)
            assert (got.m_star, got.k_star, got.zeta_star,
                    got.k_range_searched, got.pruned_at) == want, case
            # the range starts at the first K whose 2^(R/K) is finite
            assert got.k_range_searched[0] == math.floor(R / 1024) + 1, case
            if got.pruned_at is None:
                assert got.k_range_searched[1] == k_max, case
            else:
                assert got.k_range_searched[1] == got.pruned_at - 1, case


def _scalar_tail_bound(k, theta, det):
    """The tail bound at user count k, one K at a time in plain floats.

    Written apart from the block kernel, in the same operations and order,
    so it must agree with it bit for bit. MRC: C + h(k) where the convex
    minorant of h climbs from k, else the K -> inf limit of the
    interference antennas; ZF: the rate-blind and the rate-aware bound.
    """
    rate_ln2 = theta.R * math.log(2.0)
    pa_antennas = (2.0 * math.sqrt(theta.alpha) * math.sqrt(theta.rho_r)
                   * math.sqrt(rate_ln2))
    if det is ZF:
        return max((k + 1) * theta.rho_r + k * theta.rho_d + theta.rho_s,
                   pa_antennas + k * (theta.rho_r + theta.rho_d)
                   + theta.rho_s) * (1.0 - 1e-12)
    x = theta.R / k
    e = 2.0 ** x - 1.0 if x < 1024.0 else 0.0
    share = (k - 1.0) / k
    drop = x * (e + 1.0) * math.log(2.0) - e
    if x >= 2.0 ** -8 and share * drop < theta.rho_d / theta.rho_r:
        interference = theta.rho_r * ((k - 1.0) * e)
    else:
        interference = (theta.rho_r * rate_ln2) * share
    return ((pa_antennas + theta.rho_r + theta.rho_s
             + (k * theta.rho_d + interference)) * (1.0 - 1e-12))


def _sequential_search(theta, det, k_max=None):
    """optimize_exact as a one-K-at-a-time loop over _best_m_for_k.

    The reference for the interval search's answer: the earlier scan's
    tail bound (computed apart, in scalar floats) and ceiling, its tie rule
    (strict improvement in ascending K). It starts at K = 1, so it also
    checks that the search may skip the K whose 2^(R/K) overflows.
    """
    power_star, m_star, k_star = math.inf, 0, 0
    pruned_at = None
    k_hi_seen = 0
    k = 1
    k_ceiling = k_max if k_max is not None else 10_000_000
    while k <= k_ceiling:
        if k_star and _scalar_tail_bound(k, theta, det) >= power_star:
            pruned_at = k
            break
        power, m = _best_m_for_k(k, theta, det)
        k_hi_seen = k
        if power < power_star:
            power_star, m_star, k_star = power, m, k
        k += 1
    if not k_star:
        raise InfeasibleError(
            "no integer design achieves the rate with finite power")
    report = evaluate_efficiency(AntennaConfig(M=m_star, K=k_star), theta, det)
    return Optimum(m_star=m_star, k_star=k_star, zeta_star=report.zeta,
                   report=report, detector=det,
                   k_range_searched=(1, k_hi_seen), pruned_at=pruned_at)


def _answer(opt):
    """The fields of an Optimum that do not depend on which K were priced."""
    return opt.m_star, opt.k_star, opt.zeta_star, opt.report, opt.detector


def _drawn_design(rng, i, log_r_max=3.5):
    """Seeded design i and its k_max: uncapped, capped where i % 3 == 1,
    or with costly antennas where i % 3 == 2; R up to 10^log_r_max."""
    k_max = None
    rho_r, rho_d = (float(10.0 ** rng.uniform(-1, 1)) for _ in range(2))
    if i % 3 == 1:
        k_max = int(rng.integers(1, 60))
    elif i % 3 == 2:
        # costly antennas push M onto the MRC feasibility boundary
        log_rho_r = float(rng.uniform(0, 6))
        rho_r = 10.0 ** log_rho_r
        rho_d = float(10.0 ** rng.uniform(log_rho_r - 2, log_rho_r + 1))
    return SystemParams(
        R=float(10.0 ** rng.uniform(0, log_r_max)),
        alpha=float(rng.uniform(1.05, 4.0)), rho_r=rho_r, rho_d=rho_d,
        rho_s=float(10.0 ** rng.uniform(-1, 1))), k_max


def _reference_corpus():
    """Seeded designs: uncapped, capped, rho_d = 0 with a cap, extremes."""
    rng = np.random.default_rng(20)
    cases = []
    for i in range(90):
        theta, k_max = _drawn_design(rng, i)
        cases.append((theta, MRC if i % 2 else ZF, k_max))
    for i in range(10):
        cases.append((_theta(R=float(rng.integers(1, 3000)), rho_d=0.0),
                      MRC if i % 2 else ZF, int(rng.integers(1, 2000))))
    cases += [
        (_theta(R=1e5), ZF, None),
        (_theta(R=1e4), MRC, None),
        # M = 31 at K = 3 sits exactly on the MRC boundary
        (_theta(R=12.0, rho_r=1e6), MRC, None),
        (_theta(R=12.0, rho_r=1e6), ZF, None),
        (_theta(R=12.0, rho_r=1e6), MRC, 3),
        # R / K* where numpy's power and ** disagree in the last bit on
        # some numpy builds; the search must not see the difference
        (_theta(R=83.0), ZF, None),
        (_theta(R=153.0), MRC, None),
        (_theta(R=160.0), MRC, None),
        (_theta(R=188.0), ZF, None),
    ]
    return cases


class TestBlockScan:
    def test_block_powers_equal_scalar_powers(self):
        # bit for bit, infeasible K included, over designs whose optimal M
        # ranges from a few antennas to past 2^53
        rng = np.random.default_rng(11)
        for i in range(60):
            theta = SystemParams(
                R=float(10.0 ** rng.uniform(-1, 5)),
                alpha=float(rng.uniform(1.01, 10.0)),
                rho_r=float(10.0 ** rng.uniform(-4, 40 if i % 3 == 0 else 4)),
                rho_d=float(10.0 ** rng.uniform(-4, 3)),
                rho_s=float(10.0 ** rng.uniform(-3, 3)))
            det = MRC if i % 2 else ZF
            k0 = int(rng.integers(1, 3000))
            ks = np.arange(k0, k0 + 300, dtype=float)
            want = [_best_m_for_k(k, theta, det) for k in range(k0, k0 + 300)]
            powers, best_m = _block_powers(ks, theta, det)
            assert powers.tolist() == [p for p, _ in want], (theta, det)
            finite = [i for i, (p, _) in enumerate(want) if p < math.inf]
            assert [best_m(i) for i in finite] == [want[i][1] for i in finite], \
                (theta, det)

    def test_clamped_m_past_2_54_is_exact(self):
        # MRC's least feasible M, floor(boundary) + 2, has no float here:
        # float(M) rounds it up by 2, and that M wins at K = 5
        theta = _theta(R=261.533, rho_r=5.57e16)
        m_star = 22280019290633006
        assert int(float(m_star)) == m_star + 2
        assert _best_m_for_k(5, theta, MRC) == (1.2409970744882586e+33, m_star)
        assert _kernel_at(5, theta, MRC) == (1.2409970744882586e+33, m_star)
        got = optimize_exact(theta, MRC, k_max=5)
        assert (got.m_star, got.k_star) == (m_star, 5)

    def test_matches_the_sequential_loop(self):
        for theta, det, k_max in _reference_corpus():
            try:
                want = _sequential_search(theta, det, k_max)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError, match=str(exc)):
                    optimize_exact(theta, det, k_max=k_max)
                continue
            assert _answer(optimize_exact(theta, det, k_max=k_max)) == \
                _answer(want), (theta, det, k_max)

    @pytest.mark.parametrize("det", [MRC, ZF])
    @settings(max_examples=60, deadline=None)
    @given(rate=st.floats(0.5, 5000.0), alpha=st.floats(1.05, 5.0),
           log_rho_r=st.floats(-3.0, 5.0), log_rho_d=st.floats(-4.0, 3.0),
           rho_s=st.floats(0.0, 1e3), k=st.integers(1, 5000))
    def test_tail_bound_holds_for_larger_user_counts(
            self, det, rate, alpha, log_rho_r, log_rho_d, rho_s, k):
        # the sequential oracle's tail bound, which must stay sound
        theta = SystemParams(R=rate, alpha=alpha, rho_r=10.0 ** log_rho_r,
                             rho_d=10.0 ** log_rho_d, rho_s=rho_s)
        for k_bound in (k, 511, 512, 513, 1535, 1536, 1537):
            if k_bound <= rate / 1024.0:
                continue  # the search starts past every K 2^(R/K) overflows
            bound = _scalar_tail_bound(k_bound, theta, det)
            for j in (*range(k_bound, k_bound + 201), 2 * k_bound,
                      10 * k_bound):
                assert bound <= _best_m_for_k(j, theta, det)[0], (k_bound, j)

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_interval_bound_holds_on_every_user_count(self, det):
        # seeded profiles and intervals, R/hi from past 2^-8 down to 1e-9,
        # hi = lo, and K near 2^53; every K of each interval is priced
        rng = np.random.default_rng(29)
        for i in range(300):
            theta = SystemParams(
                R=float(10.0 ** rng.uniform(-1, 6)),
                alpha=float(rng.uniform(1.01, 10.0)),
                rho_r=float(10.0 ** rng.uniform(-4, 40 if i % 5 == 0 else 4)),
                rho_d=float(10.0 ** rng.uniform(-9, 3)),
                rho_s=float(10.0 ** rng.uniform(-3, 3)))
            k_lo = math.floor(theta.R / 1024.0) + 1
            if i % 10 == 9:
                lo = _K_EXACT - int(rng.integers(1, 10 ** 6))
            else:   # R/lo log-uniform in [1e-9, 2^10]
                lo = max(k_lo, int(theta.R / 2.0 ** rng.uniform(-30, 10)))
            hi = lo if i % 4 == 0 else min(
                _K_EXACT - 1, lo + int(rng.integers(1, 4 * lo + 300)))
            ks = np.unique(np.concatenate((
                np.arange(lo, min(hi, lo + 200) + 1),
                np.arange(max(lo, hi - 200), hi + 1),
                rng.integers(lo, hi + 1, 200)))).astype(float)
            bound = float(_interval_bound(np.array([float(lo)]),
                                          np.array([float(hi)]), theta, det)[0])
            powers, _ = _block_powers(ks, theta, det)
            assert bound <= powers.min(), (theta, det, lo, hi)


def _counting_blocks(monkeypatch):
    """The sizes of the K blocks optimize_exact prices, as it prices them."""
    sizes = []

    def counted(ks, theta, det):
        sizes.append(ks.size)
        return _block_powers(ks, theta, det)

    monkeypatch.setattr("mimo_ee.integer_opt._block_powers", counted)
    return sizes


class TestCertification:
    def test_large_antenna_power_prunes_after_one_user(self, monkeypatch):
        # the rate-blind bound rho_r + k*rho_d + rho_s ran this to the
        # ceiling; the interval bound excludes every K past the window in
        # its first pass
        sizes = _counting_blocks(monkeypatch)
        theta = SystemParams(R=9.147, alpha=7.77, rho_r=4.85e5,
                             rho_d=0.0288, rho_s=2080.0)
        got = optimize_exact(theta, MRC)
        assert (got.m_star, got.k_star) == (2, 1)
        assert got.k_range_searched == (1, _FIRST_BLOCK)
        assert got.pruned_at == _FIRST_BLOCK + 1
        assert sizes == [_FIRST_BLOCK]

    def test_tiny_user_power_stays_bounded(self, monkeypatch):
        # 939 266 K under the rate-blind bound, 10 700 under the K -> inf
        # limit of the interference antennas, 7 526 under their convex
        # minorant, 6 342 priced now; 5 % margin
        sizes = _counting_blocks(monkeypatch)
        got = optimize_exact(_theta(R=100.0, rho_d=1e-4), MRC)
        assert got.k_star == 5094 and got.pruned_at is not None
        assert sum(sizes) <= 6_700

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_overflowing_cap_is_refused_at_once(self, det):
        # incumbent / rho_d overflows at rho_d = 5e-324, so MRC, whose
        # users add only rho_d each, asks for k_max; ZF's add rho_r too
        theta = _theta(R=10.0, rho_d=5e-324)
        start = time.perf_counter()
        if det is MRC:
            with pytest.raises(ValueError, match="overflows: supply k_max"):
                optimize_exact(theta, det)
        else:
            got = optimize_exact(theta, det)
            assert (got.m_star, got.k_star) == (10, 5)
        assert time.perf_counter() - start < 0.1
        capped = optimize_exact(theta, det, k_max=50)
        assert capped.pruned_at is None
        assert capped.k_range_searched == (1, 50)

    def test_user_counts_past_2_53_are_refused_at_once(self):
        # at rho_d = 1e-300 the cap incumbent / rho_d is finite, but no
        # bound excludes the K from 2^53 on, where the power still falls
        start = time.perf_counter()
        with pytest.raises(ValueError, match="below K = 2\\^53 .*supply a k_max"):
            optimize_exact(_theta(R=10.0, rho_d=1e-300), MRC)
        assert time.perf_counter() - start < 0.1
        # below 2^53 the power falls with K, so a cap takes the optimum
        got = optimize_exact(_theta(R=10.0, rho_d=1e-300), MRC, k_max=5000)
        assert got.k_star == 5000

    def test_search_pricing_ten_million_user_counts_is_refused(self):
        # K* ~ 5e8, and the best integer M sits off the real one over
        # billions of K, so no piece near K* can be excluded; the search
        # stops at 10 000 000 priced K and asks for k_max
        theta = _theta(R=1e3, rho_d=1e-12)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="10000000 priced K: supply"):
            optimize_exact(theta, MRC)
        assert time.perf_counter() - start < 5.0
        assert optimize_exact(theta, MRC, k_max=1000).k_star == 1000

    def test_uncertified_search_is_a_row_error(self):
        (row,) = sweep_records(SweepSpec(
            r_values=(100.0,), theta_base=PowerProfile(
                alpha=2.0, rho_r=1.0, rho_d=5e-324, rho_s=1.0),
            detectors=(MRC,)))
        assert row["M_star"] is None
        assert row["error"].startswith(
            "exact: k cap incumbent/rho_d overflows: supply k_max")

    @pytest.mark.parametrize("rate, profile", [
        (3e6, dict(alpha=2.0, rho_r=10.0, rho_d=0.1, rho_s=1.0)),
        (1e8, dict(alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0))])
    def test_large_rates_follow_the_relaxed_optimum(self, rate, profile):
        # the paper's R -> inf regime, past the earlier 10 000 000-K ceiling
        theta = PowerProfile(**profile).at_rate(rate)
        relaxed = minimize_relaxed(theta, MRC)
        start = time.perf_counter()
        got = optimize_exact(theta, MRC, k_relaxed=relaxed.k_star)
        assert time.perf_counter() - start < 5.0
        assert got.zeta_star <= relaxed.zeta
        assert abs(got.k_star - relaxed.k_star) <= 0.01 * relaxed.k_star


class TestSplit:
    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.tuples(st.integers(1, 2 ** 53 - 1),
                                   st.integers(1, 2 ** 53 - 1)),
                         min_size=1, max_size=6))
    def test_pieces_cover_each_gap_exactly(self, gaps):
        gaps = [(min(a, b), max(a, b)) for a, b in gaps]
        lo, hi = (np.array(side, dtype=float) for side in zip(*gaps))
        starts, ends = _split(lo, hi)
        assert (starts <= ends).all()
        # the pieces of each gap follow its own, ascending and disjoint
        # (each starts one past the last's end), from its lo to its hi
        pieces = iter(zip(starts.tolist(), ends.tolist()))
        for a, b in gaps:
            at = a
            while at <= b:
                start, end = next(pieces)
                assert start == at and end <= b
                at = end + 1
        assert next(pieces, None) is None


class TestUnreachableRates:
    # 2^(R/1) rounds to 1 for every R below this, so no K reaches R
    R_ZERO_GAIN = 1.6017132519074588e-16

    @pytest.mark.parametrize("det", [MRC, ZF])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.0 + 2e-16, 1.5, 1e3])
    def test_early_stop_matches_the_full_scan(self, det, scale):
        theta = _theta(R=self.R_ZERO_GAIN * scale)
        try:
            want = _sequential_search(theta, det, k_max=50_000)
        except InfeasibleError as exc:
            for k_max in (None, 50_000):
                with pytest.raises(InfeasibleError, match=str(exc)):
                    optimize_exact(theta, det, k_max=k_max)
            return
        assert _answer(optimize_exact(theta, det)) == _answer(want)
        assert _answer(optimize_exact(theta, det, k_max=50_000)) == \
            _answer(want)

    @pytest.mark.parametrize("rate", [1e-17, 1e-300])
    def test_unreachable_rate_stops_after_one_block(self, monkeypatch, rate):
        calls = _counting_blocks(monkeypatch)
        for det in (MRC, ZF):
            calls.clear()
            with pytest.raises(InfeasibleError,
                               match="no integer design achieves the rate"):
                optimize_exact(_theta(R=rate), det)
            assert len(calls) == 1

    @pytest.mark.parametrize("det", [MRC, ZF])
    @pytest.mark.parametrize("k_max", [None, 1, 10_000_000, 10 ** 30])
    def test_huge_rate_is_refused_at_once(self, det, k_max):
        # 2^(R/K) overflows at every K up to R / 1024 = 1e297, so the
        # search has no K below 2^53 to price
        start = time.perf_counter()
        with pytest.raises(InfeasibleError,
                           match="no integer design achieves the rate"):
            optimize_exact(_theta(R=1e300), det, k_max=k_max)
        assert time.perf_counter() - start < 0.1

    def test_k_max_with_no_finite_power_is_infeasible(self):
        # every K <= 8 has infinite MRC power; with no K from 2^53 on to
        # certify, that is infeasible, as the one-K loop finds, not a
        # refusal of K >= 2^53
        theta = SystemParams(R=3047.260126688663, alpha=1.1097556158954283,
                             rho_r=5.898908873084341, rho_d=57.29832792249938,
                             rho_s=1.1967997696561243)
        for search in (_sequential_search, optimize_exact):
            with pytest.raises(InfeasibleError,
                               match="no integer design achieves the rate"):
                search(theta, MRC, k_max=8)

    def test_unpriceable_headroom_is_refused_by_its_cause(self):
        # at 296 bits per user I = (K - 1) e passes 2^52 times the surplus at
        # every K <= 5, so the M priced rounds to a headroom M - 1 - I of 0,
        # though the power is finite: the relaxation prices zeta = 3.03e-87
        theta = SystemParams(R=1480.1009878050186, alpha=2.6633416661274714,
                             rho_r=0.9465874706940952,
                             rho_d=2.400727791314941,
                             rho_s=0.12021406948212582)
        assert minimize_relaxed(theta, MRC, k_max=5).zeta == \
            pytest.approx(3.03e-87, rel=1e-2)
        with pytest.raises(InfeasibleError) as refused:
            optimize_exact(theta, MRC, k_max=5)
        assert str(refused.value) == (
            "no integer design achieves the rate with a power a double can "
            "price: at K = 5, M is past 2^52 times its surplus M - 1 - I")
        # ZF's least M, K + 1, keeps a headroom of 1, and ZF finds a design
        assert optimize_exact(theta, ZF, k_max=5).k_star == 5

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_scan_starts_at_the_first_reachable_user_count(self, det):
        # 2100 / K >= 1024 at K = 1 and 2, so the search starts at K = 3;
        # the one-K loop starts at 1 and must agree
        theta = _theta(R=2100.0)
        got = optimize_exact(theta, det)
        assert _answer(got) == _answer(_sequential_search(theta, det))
        assert got.k_range_searched[0] == 3


class TestRelaxedFirstBlock:
    """k_relaxed only places the window priced first: every answer field
    stays the default search's, whatever the estimate."""

    @staticmethod
    def _hints(k_ref):
        return (1, 0.5 * k_ref, k_ref, 10 * k_ref, 1e12, math.nan, math.inf,
                10 ** 400)

    def test_any_estimate_gives_the_default_answer(self):
        unreachable = _theta(R=TestUnreachableRates.R_ZERO_GAIN * 0.5)
        corpus = list(_reference_corpus())
        for det in (MRC, ZF):
            corpus += [(_theta(R=2100.0), det, None),   # search starts at K = 3
                       (_theta(R=2100.0), det, 40),
                       (unreachable, det, None), (unreachable, det, 5000)]
        for theta, det, k_max in corpus:
            try:
                want = optimize_exact(theta, det, k_max=k_max)
            except InfeasibleError as exc:
                for hint in self._hints(100.0):
                    with pytest.raises(InfeasibleError, match=str(exc)):
                        optimize_exact(theta, det, k_max=k_max,
                                       k_relaxed=hint)
                continue
            for hint in self._hints(float(want.k_star)):
                assert _answer(optimize_exact(
                    theta, det, k_max=k_max, k_relaxed=hint)) == \
                    _answer(want), (theta, det, k_max, hint)

    def test_first_block_sizes(self):
        top = _K_EXACT - 1
        for det in (MRC, ZF):
            assert _window(1, top, None, det) == (1, _FIRST_BLOCK)
            assert _window(1, top, math.nan, det) == (1, _FIRST_BLOCK)
            assert _window(1, top, math.inf, det) == (1, _FIRST_BLOCK)
            for far in (1.7e308, 10 ** 400):
                assert _window(1, top, far, det) == (top - _LAST_BLOCK + 1,
                                                     top)
            for near in (1.0, -1.7e308, -10 ** 400):
                assert _window(5000, top, near, det) == (5000, 5000)
            assert _window(1, 40, 1e12, det) == (1, 40)
        assert _window(1, top, 100.0, MRC) == (1, 130 + 32)
        assert _window(3, top, 100.0, ZF) == (3, 160 + 32)
        # a far k* moves the window, which keeps the largest block's size
        assert _window(1, top, 1e6, MRC) == (1_300_032 - _LAST_BLOCK + 1,
                                             1_300_032)

    @pytest.mark.parametrize("det", [MRC, ZF])
    def test_the_relaxed_k_star_prices_one_window(self, monkeypatch, det):
        # given the relaxed k*, the window that the detector's reach places
        # holds K*, and the bound excludes every K outside it
        sizes = _counting_blocks(monkeypatch)
        rng = np.random.default_rng(30)
        for i in range(600):
            theta, k_max = _drawn_design(rng, i, log_r_max=4.0)
            try:
                k_relaxed = minimize_relaxed(theta, det, k_max=k_max).k_star
            except InfeasibleError:   # no k up to k_max reaches the rate
                continue
            sizes.clear()
            with contextlib.suppress(InfeasibleError):
                optimize_exact(theta, det, k_max=k_max, k_relaxed=k_relaxed)
            assert len(sizes) == 1, (theta, det, k_max, sizes)

    @pytest.mark.parametrize("det, rate", [(MRC, 140.0), (ZF, 500.0)])
    def test_a_hundred_users_take_one_short_block(self, monkeypatch, det,
                                                  rate):
        sizes = _counting_blocks(monkeypatch)
        (row,) = sweep_records(SweepSpec(
            r_values=(rate,), theta_base=PowerProfile(
                alpha=2.0, rho_r=1.0, rho_d=1.0, rho_s=1.0),
            detectors=(det,)))
        assert 90 <= row["K_star"] <= 110
        assert len(sizes) == 1 and sizes[0] < _FIRST_BLOCK, sizes
