"""Acceptance gate: one test (or test group) per release criterion.

Each test prints one `[PASS]`/`[FAIL]` line with the measured quantities, then
asserts at the criterion's stated tolerance. The MISE orderings of criteria 8
and 9 are the ones the composite estimator gives: MISE grows as dependence
weakens, because the variance of the rank-based curve estimators vanishes at
complete dependence. Each of them also asserts the measured part of that
explanation (the true-alpha refit, the IV ordering). Criterion 8's "CFG not
worse" check is asserted as stated and reports, beside its verdict, the
differences without the envelope clip of the inverse transform.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from randmax.depcore import (
    AlphaScaled,
    GevMargin,
    Independence,
    LimitLawQ,
    Logistic,
    astar_points,
    edge_grid,
    edge_points,
    extremal_coefficient,
    lambda_inverse_link,
    power_points,
    student_t_cdf,
)
from randmax.errors import EstimationError
from randmax.estimators import (
    EULER_MASCHERONI,
    FitSettings,
    endpoint_correct,
    fit_pairs,
    pickands_points,
    pseudo_uniforms,
)
from randmax.harness import (
    Combo,
    EstimatorPair,
    ExperimentConfig,
    enumerate_combos,
    figure_tables,
    replication_stream,
    results_csv_text,
    run_experiment,
    truth_curve,
    truth_model,
)
from randmax.samplers import (
    RngStream,
    sample_experiment1,
    sample_logistic_maxstable,
    sample_positive_stable,
)

from oracles import fit_row, madogram_nu, pseudo_angles, sample_spectral_scaled

SCALE_INDICES = (0.5, 0.633, 0.767, 0.9)
MASTER_SEED = 20260811


def _report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)


# -- criterion 1 -------------------------------------------------------------


def test_criterion_01_transform_identities():
    """Scaling-transform round trips and iteration closure, 1e-12, < 1 s."""
    start = time.perf_counter()
    pts = edge_points(edge_grid(201))
    bases = [Logistic(p) for p in np.linspace(0.1, 1.0, 10)] + [Independence()]
    worst_round = 0.0
    for alpha in SCALE_INDICES:
        # A(t) = Astar(t^alpha / |t^alpha|_1)
        inner, _ = power_points(pts, alpha)
        for base in bases:
            back = astar_points(AlphaScaled(base, alpha).values(inner), inner, alpha)[0]
            worst_round = max(worst_round, float(np.max(np.abs(back - base.values(pts)))))
    worst_closure = 0.0
    for a1, a2 in ((0.5, 0.9), (0.633, 0.767), (0.767, 0.5)):
        twice = AlphaScaled(AlphaScaled(Logistic(0.35), a1), a2)
        once = AlphaScaled(Logistic(0.35), a1 * a2)
        worst_closure = max(worst_closure, float(np.max(np.abs(twice.values(pts) - once.values(pts)))))
    elapsed = time.perf_counter() - start
    ok = worst_round < 1e-12 and worst_closure < 1e-12 and elapsed < 1.0
    _report(1, ok, f"round-trip {worst_round:.2e}, closure {worst_closure:.2e}, {elapsed:.2f}s")
    assert worst_round < 1e-12
    assert worst_closure < 1e-12
    assert elapsed < 1.0


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_extremal_coefficients():
    """theta power rule and lambda link at 1e-12; closed-form theta(Q) vs the
    matched-margin exponent evaluation at 1e-8, all four branches, < 5 s."""
    start = time.perf_counter()
    worst_pow = worst_lam = 0.0
    for psi in np.linspace(0.1, 1.0, 7):
        base = Logistic(psi)
        theta_g = extremal_coefficient(base)
        for alpha in SCALE_INDICES:
            theta_scaled = extremal_coefficient(AlphaScaled(base, alpha))
            worst_pow = max(worst_pow, abs(theta_scaled - theta_g**alpha))
            lam_x = lambda_inverse_link(2.0 - theta_scaled, alpha)
            worst_lam = max(worst_lam, abs(lam_x - (2.0 - theta_g)))
    worst_q = 0.0
    margins = (GevMargin("frechet"), GevMargin("frechet"))
    for base in (Logistic(0.5), Logistic(0.9), Independence()):
        for alpha, branch, y_star in (
            (0.3, "frechet", 1.0),
            (0.5, "frechet", 1.0),
            (0.9, "frechet", 1.0),
            (1.0, "frechet", 1.0),  # logarithmic-integral branch
            (1.5, "frechet", 1.0),
            (3.0, "frechet", 1.0),
            (0.5, "gumbel", 0.0),
        ):
            law = LimitLawQ(base, margins, alpha, branch)
            worst_q = max(worst_q, abs(law.theta() - law.neg_log_q(np.ones(2), y_star)))
    light = LimitLawQ(Logistic(0.5), margins, 1.5, "frechet").theta()
    gumbel = LimitLawQ(Independence(), margins, 0.5, "gumbel").theta()
    elapsed = time.perf_counter() - start
    ok = (
        worst_pow < 1e-12
        and worst_lam < 1e-12
        and worst_q < 1e-8
        and abs(light - 2.4142135624) < 1e-9
        and abs(gumbel - 3.0) < 1e-12
        and elapsed < 5.0
    )
    _report(
        2,
        ok,
        f"power rule {worst_pow:.2e}, lambda link {worst_lam:.2e}, "
        f"theta(Q) vs exponent {worst_q:.2e}, {elapsed:.2f}s",
    )
    assert worst_pow < 1e-12
    assert worst_lam < 1e-12
    assert worst_q < 1e-8
    assert abs(light - 2.4142135624) < 1e-9
    assert abs(gumbel - 3.0) < 1e-12
    assert elapsed < 5.0


# -- criterion 3 -------------------------------------------------------------


def test_criterion_03_margin_collapse():
    """Exponent of Q at y = 1e6 reproduces the margin exponents at 1e-8."""
    margins = (GevMargin("frechet"), GevMargin("frechet"))
    xs = [0.6, 0.9, 1.3, 2.0, 3.5]
    worst = 0.0
    for base in (Logistic(0.5), Logistic(0.8)):
        for alpha in (0.3, 0.5, 0.9, 1.0, 1.5, 3.0):
            law = LimitLawQ(base, margins, alpha, "frechet")
            for xv in xs:
                x = np.array([xv, 1.3])
                m = law.neg_log_g(x)
                target = m**alpha if alpha < 1.0 else m
                worst = max(worst, abs(law.neg_log_q(x, 1e6) - target))
        gum = LimitLawQ(base, margins, 0.5, "gumbel")
        for xv in xs:
            x = np.array([xv, 1.3])
            worst = max(worst, abs(gum.neg_log_q(x, 1e6) - gum.neg_log_g(x)))
    ok = worst < 1e-8
    _report(3, ok, f"largest deviation from margin exponent {worst:.2e}")
    assert worst < 1e-8


# -- criterion 4 -------------------------------------------------------------


def test_criterion_04_sampler_calibration():
    """Laplace transform within 3 MC standard errors, logistic extremal
    coefficient within 0.02, spectral vs direct construction KS at 1%, < 60 s."""
    start = time.perf_counter()
    details = []
    worst_sigma = 0.0
    for alpha in (0.5, 0.9):
        s = sample_positive_stable(alpha, RngStream(MASTER_SEED, 40 + int(10 * alpha)), 100_000)
        for sv in (0.5, 1.0, 2.0):
            vals = np.exp(-sv * s)
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            dev = abs(vals.mean() - np.exp(-(sv**alpha))) / se
            worst_sigma = max(worst_sigma, dev)
    details.append(f"Laplace worst {worst_sigma:.2f} se")
    worst_theta = 0.0
    for i, psi in enumerate((0.3, 0.5, 0.8, 1.0)):
        z = sample_logistic_maxstable(psi, 2, RngStream(MASTER_SEED, 50 + i), 100_000)
        u = np.exp(-1.0 / z)
        nu = np.abs(u[:, 0] - u[:, 1]).mean() / 2.0
        theta = (1.0 + 2.0 * nu) / (1.0 - 2.0 * nu)
        worst_theta = max(worst_theta, abs(theta - 2.0**psi))
    details.append(f"logistic theta worst {worst_theta:.4f}")
    spectral = sample_spectral_scaled(0.5, RngStream(MASTER_SEED, 60), 10_000, base_psi=1.0)
    direct = sample_experiment1(1.0, 0.5, 10_000, [RngStream(MASTER_SEED, 61)])
    pvalue = ks_2samp(spectral.max(axis=1), direct.xi[0]).pvalue
    details.append(f"KS p = {pvalue:.3f}")
    elapsed = time.perf_counter() - start
    details.append(f"{elapsed:.1f}s")
    ok = worst_sigma <= 3.0 and worst_theta < 0.02 and pvalue > 0.01 and elapsed < 60.0
    _report(4, ok, ", ".join(details))
    assert worst_sigma <= 3.0
    assert worst_theta < 0.02
    assert pvalue > 0.01
    assert elapsed < 60.0


# -- criterion 5 -------------------------------------------------------------


def test_criterion_05_gpwm_exactness():
    """Moment-ratio identity under quadrature at 1e-10 where alpha > 1/(k-1)."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for alpha in (0.3, 0.5, 0.7, 0.9):
        for k in (4, 5, 6):
            if alpha <= 1.0 / (k - 1):
                continue
            mu = lambda b: quad(
                lambda v: v * (-np.log(v)) ** (b - 1.0 / alpha),
                0.0,
                1.0,
                epsabs=1e-14,
                epsrel=1e-13,
                limit=200,
            )[0]
            worst = max(worst, abs(1.0 / (k - 2.0 * mu(k) / mu(k - 1)) - alpha))
            checked += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0 and checked == 11
    _report(5, ok, f"{checked} (alpha, k) pairs, worst {worst:.2e}, {elapsed:.2f}s")
    assert checked == 11
    assert worst < 1e-10
    assert elapsed < 1.0


# -- criterion 6 -------------------------------------------------------------

_PAIRS = tuple(EstimatorPair(p, a) for a in ("GPWM", "ML") for p in ("P", "CFG", "MD"))


def _sup_errors(sample, truth):
    """sup|A* estimate - truth| of every pair, from one fit_pairs call."""
    fits = fit_pairs(sample, _PAIRS, FitSettings())
    sups = {}
    for label, fit in fits.items():
        if isinstance(fit.errors[0], EstimationError):
            raise fit.errors[0]
        sups[label] = float(np.max(np.abs(fit.a_star[0] - truth)))
    return sups


def test_criterion_06_consistency_bound():
    """Every composite pair: sup|estimate - truth| < 0.05 at n = 10^4."""
    combo = Combo(1, 0.5, 0.5, float("nan"), 10_000)
    truth = truth_curve(combo, edge_grid(201))
    sample = sample_experiment1(0.5, 0.5, 10_000, [RngStream(MASTER_SEED, 0)])
    sups = _sup_errors(sample, truth)
    ok = all(v < 0.05 for v in sups.values())
    _report(6, ok, "sup errors " + ", ".join(f"{k}={v:.4f}" for k, v in sups.items()))
    assert all(v < 0.05 for v in sups.values()), sups


@pytest.fixture(scope="module")
def consistency_wins():
    """100 seeded trials: does the n = 10^4 sup error beat the n = 10^3 one?"""
    combo = Combo(1, 0.5, 0.5, float("nan"), 10_000)
    truth = truth_curve(combo, edge_grid(201))
    wins = {pair.label: 0 for pair in _PAIRS}
    for trial in range(100):
        small = sample_experiment1(0.5, 0.5, 1_000, [RngStream(500 + trial, 1)])
        large = sample_experiment1(0.5, 0.5, 10_000, [RngStream(500 + trial, 2)])
        sups_small = _sup_errors(small, truth)
        sups_large = _sup_errors(large, truth)
        for label in wins:
            wins[label] += bool(sups_large[label] < sups_small[label])
    return wins


def test_criterion_06_size_comparison_gpwm(consistency_wins):
    table = {k: v for k, v in consistency_wins.items() if k.endswith("GPWM")}
    ok = all(v >= 95 for v in table.values())
    _report(6, ok, "n=1e4 beats n=1e3 (GPWM pairs): " + str(table))
    assert all(v >= 95 for v in table.values()), table


def test_criterion_06_size_comparison_ml(consistency_wins):
    # The likelihood fit profiles out the Frechet scale (the row maximum of
    # pipeline 1 has scale 2^psi), so the tail estimate is consistent and the
    # sup error keeps shrinking with n, as for the scale-free GPWM ratio.
    table = {k: v for k, v in consistency_wins.items() if k.endswith("ML")}
    ok = all(v >= 95 for v in table.values())
    _report(6, ok, "n=1e4 beats n=1e3 (ML pairs): " + str(table))
    assert all(v >= 95 for v in table.values()), (
        f"profile-likelihood tail fits should make n=1e4 beat n=1e3; measured wins {table}"
    )


# -- criterion 7 -------------------------------------------------------------


def test_criterion_07_population_oracles():
    """Exponential-angle and madogram population identities, 3 MC se at 1e5."""
    sample = sample_experiment1(0.5, 0.5, 100_000, [RngStream(MASTER_SEED, 70)])
    uniforms = np.exp(-sample.eta[0] ** -0.5)  # exact scaled-law margins
    scaled = AlphaScaled(Logistic(0.5), 0.5)
    worst = 0.0
    for t in (np.array([0.5, 0.5]), np.array([0.3, 0.7])):
        a = scaled.values(t[np.newaxis])[0]
        angles = pseudo_angles(uniforms, t)
        se = angles.std(ddof=1) / np.sqrt(angles.size)
        worst = max(worst, abs(angles.mean() - 1.0 / a) / se)
        logs = np.log(angles)
        se_log = logs.std(ddof=1) / np.sqrt(logs.size)
        worst = max(worst, abs(logs.mean() - (-np.log(a) - EULER_MASCHERONI)) / se_log)
    gen = RngStream(MASTER_SEED, 71).generator()
    col = gen.random(100_000)
    dep = np.column_stack([col, col])
    t = np.array([0.5, 0.5])
    nu_dep = madogram_nu(dep, t)
    md_dep = float(pickands_points(dep, t[np.newaxis, :], "MD")[0][0])
    indep = gen.random((100_000, 2))
    powered = np.maximum(indep[:, 0], indep[:, 1]) ** 2.0 - 0.5 * (
        indep[:, 0] ** 2.0 + indep[:, 1] ** 2.0
    )
    se_nu = powered.std(ddof=1) / np.sqrt(powered.size)
    nu_dev = abs(madogram_nu(indep, t) - 1.0 / 6.0) / se_nu
    md_indep = float(pickands_points(indep, t[np.newaxis, :], "MD")[0][0])
    ok = (
        worst <= 3.0
        and nu_dep == 0.0
        and abs(md_dep - 0.5) < 1e-12
        and nu_dev <= 3.0
        and abs(md_indep - 1.0) <= 3.0 * se_nu * 4.0  # |dA/dnu| = 4 at independence
    )
    _report(
        7,
        ok,
        f"angle identities worst {worst:.2f} se, complete-dep nu {nu_dep}, "
        f"indep nu dev {nu_dev:.2f} se, indep madogram {md_indep:.4f}",
    )
    assert worst <= 3.0
    assert nu_dep == 0.0 and abs(md_dep - 0.5) < 1e-12
    assert nu_dev <= 3.0
    assert abs(md_indep - 1.0) <= 12.0 * se_nu


# -- criterion 8 -------------------------------------------------------------


_FIGURE1_PSIS = (0.1, 0.55, 1.0)
_PICKS = ("P", "CFG", "MD")
_FIGURE1_CONFIG = ExperimentConfig(
    experiment=1,
    alphas=(0.5,),
    psis=_FIGURE1_PSIS,
    sizes=(50,),
    replications=200,
    pairs=tuple(EstimatorPair(p, "GPWM") for p in _PICKS),
    seed=MASTER_SEED,
    jobs=1,
)


@pytest.fixture(scope="module")
def figure1_results():
    start = time.perf_counter()
    results = run_experiment(_FIGURE1_CONFIG)
    elapsed = time.perf_counter() - start
    return results, elapsed


def _unclipped_inverse(a_alpha_values, w, alpha):
    """The inverse scaling transform (A_alpha / |t|_alpha)^(1/alpha) on the
    grid w, without the clip of astar_points into the envelope [lower, 1]."""
    norm = ((1.0 - w) ** (1.0 / alpha) + w ** (1.0 / alpha)) ** alpha
    return (a_alpha_values / norm) ** (1.0 / alpha)


@pytest.fixture(scope="module")
def figure1_variants():
    """The figure-1 sweep refitted through the public estimator functions on
    the same replication streams, in three variants: the GPWM tail estimate
    as the harness uses it ("gpwm"), the same without the envelope clip of
    the inverse transform ("gpwm_unclipped"), and the true alpha ("true").
    Maps (variant, psi, pick) to the stack of inverse-transform curves."""
    config = _FIGURE1_CONFIG
    w = edge_grid(config.fit.grid_size)
    points = edge_points(w)
    stacks = {}
    for combo in enumerate_combos(config):
        psi = combo.psi_or_rho
        for rep in range(config.replications):
            sample = sample_experiment1(
                psi, combo.alpha, combo.n, [replication_stream(config.seed, combo, rep)]
            )
            u = pseudo_uniforms(sample.eta[0])
            try:
                alpha_raw = fit_row(sample.xi[0], "GPWM", config.fit.k)
                # clamped into (0, 1) as the harness fits are
                alpha_hat = 1.0 - 1e-6 if alpha_raw >= 1.0 else alpha_raw
            except EstimationError:
                alpha_hat = None
            for pick in _PICKS:
                values = endpoint_correct(pickands_points(u, points, pick)[0], w, pick)
                fits = {"true": astar_points(values, points, combo.alpha)[0]}
                if alpha_hat is not None:
                    fits["gpwm"], clipped = astar_points(values, points, alpha_hat)
                    fits["gpwm_unclipped"] = _unclipped_inverse(values, w, alpha_hat)
                    # away from the clipped nodes both are the same transform
                    assert np.allclose(
                        fits["gpwm_unclipped"][~clipped], fits["gpwm"][~clipped], rtol=1e-12
                    )
                for variant, curve in fits.items():
                    stacks.setdefault((variant, psi, pick), []).append(curve)
    return {key: np.array(curves) for key, curves in stacks.items()}


def _figure1_ise(curves, psi):
    """Per-replication integrated squared errors, as the harness reduces them."""
    config = _FIGURE1_CONFIG
    combo = Combo(1, config.alphas[0], psi, float("nan"), config.sizes[0])
    w = edge_grid(config.fit.grid_size)
    return np.trapezoid((curves - truth_curve(combo, w)) ** 2, w, axis=1)


def _figure1_table(results):
    table = {}
    for r in results:
        table[(r.combo.psi_or_rho, r.pair.pick)] = r
    return table


def test_criterion_08_desk_run_and_iv_ordering(figure1_results):
    results, elapsed = figure1_results
    table = _figure1_table(results)
    iv_ok = all(
        table[(0.1, p)].iv < table[(0.55, p)].iv < table[(1.0, p)].iv
        for p in ("P", "CFG", "MD")
    )
    failures = sum(r.failures for r in results)
    detail = (
        f"run {elapsed:.1f}s, failures {failures}, IV rows "
        + "; ".join(
            f"{p}: " + "/".join(f"{table[(psi, p)].iv * 1e3:.2f}" for psi in (0.1, 0.55, 1.0))
            for p in ("P", "CFG", "MD")
        )
    )
    ok = iv_ok and elapsed < 600.0
    _report("8 (IV ordering)", ok, detail)
    assert elapsed < 600.0
    assert iv_ok


def test_criterion_08_mise_ordering(figure1_results, figure1_variants):
    # MISE strictly increases in psi. The aggregated data at psi follow the
    # logistic model with parameter alpha * psi, near complete dependence at
    # psi = 0.1: there the variance of the rank-based curve estimators
    # vanishes, and so does the sensitivity of the inverse transform to the
    # tail estimate at w = 1/2. The curve variance dominates (criterion
    # 8-IV: IV rises in psi) while the squared bias stays small. The
    # explanation is tested: refitted on the same replication streams with
    # the true alpha, MISE keeps the same strict order, so the tail fit is
    # not what orders it.
    results, _ = figure1_results
    table = _figure1_table(results)
    same_streams = all(
        np.allclose(
            _figure1_ise(figure1_variants[("gpwm", psi, p)], psi),
            table[(psi, p)].ise,
            rtol=1e-12,
            atol=0.0,
        )
        for psi in _FIGURE1_PSIS
        for p in _PICKS
    )
    rows = {p: [table[(psi, p)].mise for psi in _FIGURE1_PSIS] for p in _PICKS}
    gaps = {
        p: [
            (table[(hi, p)].mise - table[(lo, p)].mise)
            / np.hypot(table[(hi, p)].mise_se, table[(lo, p)].mise_se)
            for lo, hi in zip(_FIGURE1_PSIS, _FIGURE1_PSIS[1:])
        ]
        for p in _PICKS
    }
    true_rows = {
        p: [
            float(_figure1_ise(figure1_variants[("true", psi, p)], psi).mean())
            for psi in _FIGURE1_PSIS
        ]
        for p in _PICKS
    }
    rising = all(m[0] < m[1] < m[2] for m in rows.values())
    true_rising = all(m[0] < m[1] < m[2] for m in true_rows.values())
    detail = (
        "MISE x1e3 "
        + "; ".join(
            f"{p}: " + "/".join(f"{v * 1e3:.2f}" for v in rows[p])
            + " (gaps " + "/".join(f"{g:.1f}" for g in gaps[p]) + " se)"
            for p in _PICKS
        )
        + " | true alpha, same streams: "
        + "; ".join(
            f"{p}: " + "/".join(f"{v * 1e3:.2f}" for v in true_rows[p]) for p in _PICKS
        )
    )
    ok = same_streams and rising and true_rising
    _report("8 (MISE ordering)", ok, detail)
    assert same_streams, "refit on the replication streams does not reproduce the sweep"
    assert rising, f"expected MISE increasing in psi, measured {detail}"
    assert true_rising, f"expected true-alpha MISE increasing in psi, measured {detail}"


def test_criterion_08_cfg_not_worse(figure1_results, figure1_variants):
    # Measured: CFG is best at psi = 0.1 and 0.55 but not at psi = 1, where the
    # truth A* = 1 lies on the upper clip of the inverse transform. The clip turns
    # variance into one-sided bias there, which penalizes the O(1/n) downward
    # bias of CFG (at w = 1/2 on logistic(0.5) data about -0.009, -0.003 and
    # -0.0004 at n = 50, 200 and 1000, Monte Carlo se 0.0002). The clip is
    # documented and never increases a pointwise error, so no program fault
    # was found, and the assertion stays as stated. The ISE differences
    # without the clip, on the same replications, are reported beside it so
    # the cause is measured on every run.
    results, _ = figure1_results
    table = _figure1_table(results)
    checks = {}
    unclipped = {}
    for psi in _FIGURE1_PSIS:
        raw_cfg = _figure1_ise(figure1_variants[("gpwm_unclipped", psi, "CFG")], psi)
        for other in ("P", "MD"):
            diff = table[(psi, "CFG")].ise - table[(psi, other)].ise
            se = diff.std(ddof=1) / np.sqrt(diff.size)
            checks[f"psi={psi} vs {other}"] = (float(diff.mean()), float(se))
            raw_other = _figure1_ise(figure1_variants[("gpwm_unclipped", psi, other)], psi)
            raw_diff = raw_cfg - raw_other
            unclipped[f"psi={psi} vs {other}"] = (
                float(raw_diff.mean()),
                float(raw_diff.std(ddof=1) / np.sqrt(raw_diff.size)),
            )
    ok = all(d <= 2.0 * se for d, se in checks.values())
    detail = "; ".join(
        f"{k}: diff={d:.2e} se={se:.2e} ({d / se:+.1f} se, unclipped "
        f"{unclipped[k][0]:.2e} = {unclipped[k][0] / unclipped[k][1]:+.1f} se)"
        for k, (d, se) in checks.items()
    )
    _report("8 (CFG best)", ok, detail)
    assert ok, f"CFG-based MISE not within 2 se of best: {detail}"


# -- criterion 9 -------------------------------------------------------------


@pytest.fixture(scope="module")
def figure3_results():
    import os

    config = ExperimentConfig(
        experiment=2,
        alphas=(0.5,),
        rhos=(-0.5, 0.5, 0.99),
        upsilons=(1.0,),
        sizes=(50,),
        replications=100,
        pairs=tuple(EstimatorPair(p, "GPWM") for p in ("P", "CFG", "MD")),
        seed=MASTER_SEED,
        jobs=min(8, os.cpu_count() or 1),
    )
    start = time.perf_counter()
    results = run_experiment(config)
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_09_pipeline_and_truth(figure3_results):
    results, elapsed = figure3_results
    worst_bary = 0.0
    for rho in (-0.5, 0.5, 0.99):
        combo = Combo(2, 0.5, rho, 1.0, 50)
        theta = 2.0 * truth_model(combo).values(np.array([[0.5, 0.5]]))[0]
        target = 2.0 * student_t_cdf(np.sqrt(2.0 * (1.0 - rho) / (1.0 + rho)), 2.0)
        worst_bary = max(worst_bary, abs(theta - target))
    failures = sum(r.failures for r in results)
    ok = worst_bary < 1e-10 and elapsed < 1200.0 and failures == 0
    _report(
        "9 (pipeline/truth)",
        ok,
        f"run {elapsed:.0f}s, failures {failures}, truth barycenter dev {worst_bary:.2e}",
    )
    assert worst_bary < 1e-10
    assert elapsed < 1200.0


def test_criterion_09_mise_comparison(figure3_results):
    # Near-complete dependence (rho = 0.99) has the smaller MISE, for the same
    # reason as the pipeline-1 ordering of criterion 8: the variance of the
    # rank-based curve estimators vanishes at complete dependence, and the
    # integrated variance carries the difference (the squared bias at
    # rho = 0.99 is small). The IV ordering is asserted as the tested part of
    # that explanation.
    results, _ = figure3_results
    table = {(r.combo.psi_or_rho, r.pair.pick): r for r in results}
    rhos = (-0.5, 0.5, 0.99)
    mise = {p: {rho: table[(rho, p)].mise for rho in rhos} for p in _PICKS}
    iv = {p: {rho: table[(rho, p)].iv for rho in rhos} for p in _PICKS}
    mise_ok = all(row[0.99] < row[0.5] for row in mise.values())
    iv_ok = all(row[0.99] < row[0.5] for row in iv.values())
    detail = "; ".join(
        f"{p}: rho=-0.5/0.5/0.99 -> MISE x1e3 "
        + "/".join(f"{mise[p][r] * 1e3:.2f}" for r in rhos)
        + ", IV x1e3 "
        + "/".join(f"{iv[p][r] * 1e3:.2f}" for r in rhos)
        + f", ISB(0.99) x1e3 {table[(0.99, p)].isb * 1e3:.2f}"
        for p in _PICKS
    )
    _report("9 (MISE comparison)", mise_ok and iv_ok, detail)
    assert mise_ok, f"expected MISE(rho=0.99) < MISE(rho=0.5), measured {detail}"
    assert iv_ok, f"expected IV(rho=0.99) < IV(rho=0.5), measured {detail}"


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism():
    from dataclasses import replace

    config = ExperimentConfig(
        experiment=1,
        alphas=(0.5,),
        psis=(0.5, 1.0),
        sizes=(50,),
        replications=8,
        pairs=(EstimatorPair("CFG", "GPWM"), EstimatorPair("P", "ML")),
        seed=MASTER_SEED,
        jobs=1,
    )
    serial = run_experiment(config)
    wide = run_experiment(replace(config, jobs=8))
    rerun = run_experiment(config)
    csv_serial = results_csv_text(serial)
    ok = (
        csv_serial == results_csv_text(wide)
        and csv_serial == results_csv_text(rerun)
        and figure_tables(serial) == figure_tables(wide)
    )
    _report(10, ok, "results and figure tables byte-identical at widths 1 and 8")
    assert csv_serial == results_csv_text(wide)
    assert csv_serial == results_csv_text(rerun)
    assert figure_tables(serial) == figure_tables(wide)
