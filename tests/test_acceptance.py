"""Acceptance gate: one test per criterion, tolerances pinned.

Each test records a PASS/FAIL line before asserting; conftest replays
the lines in the terminal summary. Expensive solver runs are shared
through module-scoped fixtures, and the mass-ledger criterion iterates
over every run the suite produced.

C04 time windows: the sup-norm rates t^(-N/2) (t -> 0) and t^(-N/alpha)
(t -> inf) are asymptotic, and the continuum kernel's local log-slope
carries a correction that decays like t^(1-alpha/2) at small t and like
t^(1-2/alpha) at large t. Each row is fitted where that correction is
about 1% of the rate or less, well inside the 5% band. The small-t rows
also fit the slope of the quadrature oracle and require the two to agree
to 1e-3, so what remains of the deviation is shown to be the continuum
kernel's, not the lattice's.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import record_criterion
from mixheat import (
    Field,
    GridSpec,
    PowerAbsorption,
    ProblemSpec,
    bracket_laplacian,
    bracket_profile,
    capacity_integral,
    classify_mass_limit,
    comparison_check,
    condition_h_check,
    convolve,
    decay_rate_exponent,
    duhamel_residual,
    frac_laplacian_pointwise,
    frac_laplacian_spectral,
    half_width_for_tail,
    integral,
    make_step_schedule,
    mass_identity_defect,
    mixed_kernel,
    mixed_kernel_norms,
    mixed_kernel_quadrature,
    profile_error,
    scaling_check,
    solve,
    stable_kernel,
    taylor_contraction_error,
)

ALPHAS = (0.5, 1.0, 1.5)


def criterion(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'}  {detail}"
    record_criterion(line)
    print(line)
    assert ok, line


def gaussian_field(grid, width: float, center: float = 0.0, mass: float = 1.0):
    x = grid.axis_coords()
    profile = np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    profile *= mass / (np.sum(profile) * grid.cell_volume)
    return Field(grid, profile)


def l2_distance(a, b) -> float:
    return float(np.sqrt(np.sum((a.values - b.values) ** 2) * a.grid.cell_volume))


def fitted_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


# -- shared solver runs -------------------------------------------------------

@pytest.fixture(scope="module")
def reference_problem():
    """Small nonlinear run used by the splitting, comparison and
    integral-residual criteria."""
    grid = GridSpec(1, 60.0, 1024)
    u0 = gaussian_field(grid, width=1.5)
    return ProblemSpec(alpha=1.0, beta=0.0, p=2.0,
                       absorption=PowerAbsorption(1.0), initial=u0)


@pytest.fixture(scope="module")
def splitting_runs(reference_problem):
    runs = {}
    for dtau in (0.25, 0.125, 0.0625):
        sched = make_step_schedule(0.5, 8.0, 0.0, dtau, snapshot_times=[8.0])
        runs[dtau] = solve(reference_problem, sched)
    return runs


@pytest.fixture(scope="module")
def residual_runs(reference_problem):
    runs = {}
    for count in (33, 65):
        snaps = np.geomspace(0.5, 8.0, count)
        sched = make_step_schedule(0.5, 8.0, 0.0, 0.02, snapshot_times=snaps)
        runs[count] = solve(reference_problem, sched)
    return runs


@pytest.fixture(scope="module")
def dichotomy_runs():
    """Two exponents either side of the critical value 2, same diffusion
    and data, horizon 1e3."""
    grid = GridSpec(1, 400.0, 8192)
    u0 = gaussian_field(grid, width=1.5, mass=0.1)
    runs = {}
    for p in (3.0, 1.2):
        problem = ProblemSpec(alpha=1.0, beta=0.0, p=p,
                              absorption=PowerAbsorption(1.0), initial=u0)
        sched = make_step_schedule(0.0, 1000.0, 0.0, 0.5)
        runs[p] = solve(problem, sched)
    return runs


@pytest.fixture(scope="module")
def acceptance_runs(splitting_runs, residual_runs, dichotomy_runs):
    named = [(f"splitting dtau={d}", r) for d, r in splitting_runs.items()]
    named += [(f"residual snapshots={c}", r) for c, r in residual_runs.items()]
    named += [(f"dichotomy p={p}", r) for p, r in dichotomy_runs.items()]
    return named


# -- kernels ------------------------------------------------------------------

def test_01_kernel_mass_unity():
    worst = 0.0
    for alpha in ALPHAS:
        for t in (0.1, 1.0, 10.0):
            hw = half_width_for_tail(alpha, t, 1, tail_mass=1e-6)
            k = mixed_kernel(GridSpec(1, hw, 4096), alpha, t)
            worst = max(worst, abs(integral(k) - 1.0))
    criterion("C01 kernel mass unity", worst <= 1e-6,
              f"max |int - 1| = {worst:.3e} (tol 1e-06)")


def test_02_semigroup_composition():
    grid = GridSpec(1, 200.0, 8192)
    worst = 0.0
    for alpha in ALPHAS:
        k1 = mixed_kernel(grid, alpha, 1.0)
        k2 = mixed_kernel(grid, alpha, 2.0)
        diff = convolve(k1, k1).values - k2.values
        worst = max(worst, float(np.sum(np.abs(diff)) * grid.cell_volume))
    criterion("C02 semigroup composition", worst <= 1e-6,
              f"max L1 defect = {worst:.3e} (tol 1e-06)")


def test_03_cauchy_closed_form():
    grid = GridSpec(1, 16384.0, 2 ** 20)
    x = grid.axis_coords()
    near = np.abs(x) <= 10.0
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        k = stable_kernel(grid, 1.0, t)
        exact = t / (np.pi * (t * t + x * x))
        rel = np.abs(k.values[near] - exact[near]) / exact[near]
        worst = max(worst, float(rel.max()))
    criterion("C03 order-one closed form", worst <= 1e-6,
              f"max rel err = {worst:.3e} over |x| <= 10 (tol 1e-06)")


SUP_NORM_CASES = [
    # alpha, branch, half_width, points, (t_lo, t_hi), target slope
    (0.5, "small-t", 1.0, 8192, (1e-6, 1e-5), -0.5),
    (1.0, "small-t", 1.0, 8192, (1e-6, 1e-5), -0.5),
    (1.5, "small-t", 1.0, 8192, (1e-6, 1e-5), -0.5),
    (0.5, "large-t", 2.0 ** 24, 2 ** 21, (1e2, 1e3), -2.0),
    (1.0, "large-t", 16384.0, 8192, (1e2, 1e3), -1.0),
    (1.5, "large-t", 1e6, 2 ** 16, (1e4, 1e5), -1.0 / 1.5),
]
# Largest |lattice - quadrature| slope gap allowed on the small-t rows.
ORACLE_SLOPE_TOL = 1e-3


@pytest.mark.parametrize(
    "alpha,branch,hw,n,window,target", SUP_NORM_CASES,
    ids=[f"alpha{c[0]}-{c[1]}" for c in SUP_NORM_CASES])
def test_04_sup_norm_decay(alpha, branch, hw, n, window, target):
    grid = GridSpec(1, hw, n)
    ts = np.geomspace(window[0], window[1], 9)
    norms = mixed_kernel_norms(grid, alpha, ts)[0][:, 2]
    slope = fitted_slope(ts, norms)
    lo, hi = 1.05 * target, 0.95 * target
    ok = lo <= slope <= hi
    detail = f"slope = {slope:.4f}, band [{lo:.4f}, {hi:.4f}]"
    if branch == "small-t":
        # Only the small-t rows carry this check: on the large-t rows the
        # lattice slope sits up to 2.6e-3 from the continuum one (alpha=0.5),
        # more than the tolerance, and that gap is not yet explained.
        continuum = fitted_slope(
            ts, [mixed_kernel_quadrature(0.0, alpha, t) for t in ts])
        ok = ok and abs(slope - continuum) <= ORACLE_SLOPE_TOL
        detail += (f", continuum slope = {continuum:.4f}"
                   f" (tol {ORACLE_SLOPE_TOL:.0e})")
    criterion(f"C04 sup-norm slope [alpha={alpha} {branch}]", ok, detail)


# -- fractional operator ------------------------------------------------------

def test_05_rescaling_identity():
    # Spectral route: dilating the lattice with the data turns the
    # identity into equality of the stored arrays.
    ga = GridSpec(1, 40.0, 4096)
    fa = Field(ga, np.exp(-ga.axis_coords() ** 2))
    worst_spec = 0.0
    for s in (0.25, 0.5, 0.75):
        va = frac_laplacian_spectral(fa, 2.0 * s).values
        for R in (2.0, 4.0):
            gb = GridSpec(1, 40.0 * R, 4096)
            fb = Field(gb, np.exp(-((gb.axis_coords() / R) ** 2)))
            vb = frac_laplacian_spectral(fb, 2.0 * s).values
            dev = np.max(np.abs(vb - R ** (-2.0 * s) * va)) / np.max(np.abs(va))
            worst_spec = max(worst_spec, float(dev))

    prof = lambda y: bracket_profile(y, 2.0)
    d2 = lambda y: bracket_laplacian(y, 2.0, 1)
    worst_quad = 0.0
    for s in (0.25, 0.5, 0.75):
        for R in (2.0, 4.0):
            lhs, rhs = scaling_check(prof, s, R, 0.7, second_derivative=d2)
            worst_quad = max(worst_quad, abs(lhs - rhs) / abs(rhs))

    criterion("C05 rescaling identity",
              worst_spec <= 1e-10 and worst_quad <= 1e-5,
              f"spectral dev = {worst_spec:.3e} (tol 1e-10), "
              f"quadrature dev = {worst_quad:.3e} (tol 1e-05)")


def test_06_far_field_decay():
    prof = lambda y: bracket_profile(y, 2.0)
    d2 = lambda y: bracket_laplacian(y, 2.0, 1)
    radii = np.geomspace(5.0, 100.0, 25)
    vals = [abs(frac_laplacian_pointwise(prof, 0.5, r, second_derivative=d2))
            for r in radii]
    slope = fitted_slope(radii, vals)
    criterion("C06 far-field decay rate", -2.1 <= slope <= -1.9,
              f"slope = {slope:.4f}, band [-2.1, -1.9]")


def test_07_capacity_scaling_slope():
    radii = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    vals = capacity_integral(1.5, 2.0, 1.0, GridSpec(1, 2e4, 2 ** 17), 2.0 * radii)
    slope = fitted_slope(radii, vals)
    criterion("C07 capacity scaling slope", -1.1 <= slope <= -0.9,
              f"slope = {slope:.4f}, band [-1.1, -0.9] "
              f"(values {vals[0]:.4e} .. {vals[-1]:.4e})")


# -- solver -------------------------------------------------------------------

def test_08_splitting_order(splitting_runs):
    e1 = l2_distance(splitting_runs[0.25].final, splitting_runs[0.125].final)
    e2 = l2_distance(splitting_runs[0.125].final, splitting_runs[0.0625].final)
    ratio = e1 / e2
    criterion("C08 splitting self-convergence order", 3.5 <= ratio <= 4.5,
              f"error ratio = {ratio:.3f} (e = {e1:.3e}, {e2:.3e}), "
              f"band [3.5, 4.5]")


def test_09_mass_ledger(acceptance_runs):
    worst_defect, worst_rise = 0.0, 0.0
    for _, res in acceptance_runs:
        worst_defect = max(worst_defect, mass_identity_defect(res))
        rise = float(np.max(np.diff(res.trace.mass), initial=0.0)) / res.trace.initial_mass
        worst_rise = max(worst_rise, rise)
    ok = worst_defect <= 1e-6 and worst_rise <= 1e-12
    criterion("C09 mass ledger", ok,
              f"max ledger defect = {worst_defect:.3e} (tol 1e-06), "
              f"max mass rise = {worst_rise:.3e} (tol 1e-12), "
              f"{len(acceptance_runs)} runs")


def test_10_comparison_ordering(reference_problem):
    doubled = Field(reference_problem.grid,
                    2.0 * reference_problem.initial.values)
    sched = make_step_schedule(0.5, 8.0, 0.0, 0.05)
    gap = comparison_check(reference_problem, doubled, sched)
    floor = -1e-10 * float(np.max(doubled.values))
    criterion("C10 comparison ordering", gap >= floor,
              f"min gap = {gap:.3e}, floor = {floor:.3e}")


def test_11_mass_dichotomy(dichotomy_runs):
    """p = 3, above p_c = 2, keeps a mass plateau; p = 1.2 decays. The
    p = 1.2 leg ends on a filled box: at L = 400 its final state is flat
    (max/mean 1.00004), so its mass follows the spatially constant ODE
    u' = -u^p, whose decay does not depend on p_c. That leg cannot fail for
    a wrong p_c; the p = 3 plateau is what tests it (ROADMAP.md, item 1)."""
    m0 = dichotomy_runs[3.0].trace.initial_mass
    sup = classify_mass_limit(dichotomy_runs[3.0].trace)
    sub = classify_mass_limit(dichotomy_runs[1.2].trace)
    final_frac = float(dichotomy_runs[1.2].trace.mass[-1]) / m0
    ok = (sup.kind == "positive_plateau"
          and sup.m_inf_estimate is not None
          and sup.m_inf_estimate >= 0.5 * m0
          and sub.kind == "decaying_to_zero"
          and sub.trailing_slope < -0.05
          and final_frac <= 0.3)
    criterion("C11 mass dichotomy", ok,
              f"p=3: {sup.kind}, estimate = {sup.m_inf_estimate:.4e} "
              f"(floor {0.5 * m0:.1e}); p=1.2: {sub.kind}, "
              f"slope = {sub.trailing_slope:.3f}, M(T)/M(0) = {final_frac:.3e}")


def test_12_profile_convergence(dichotomy_runs):
    res = dichotomy_runs[3.0]
    est = classify_mass_limit(res.trace).m_inf_estimate
    errs = [profile_error(f, est, t, 1.0, 0.0, 2.0)
            for t, f in zip(res.snapshot_times, res.snapshots) if t >= 100.0]
    drops = all(b <= a * (1.0 + 1e-9) for a, b in zip(errs, errs[1:]))
    criterion("C12 profile convergence", drops and len(errs) >= 5,
              f"weighted L2 error {errs[0]:.3e} -> {errs[-1]:.3e} "
              f"nonincreasing over {len(errs)} snapshots (t >= 100)")


def test_13_off_center_contraction(dichotomy_runs):
    grid = GridSpec(1, 1024.0, 16384)
    g = gaussian_field(grid, width=1.0, center=1.0)
    ts = np.geomspace(10.0, 100.0, 9)
    errs, moment = taylor_contraction_error(g, ts, 1.0)
    slope = fitted_slope(ts, errs)
    criterion("C13 off-center contraction decay", slope <= -0.9,
              f"slope = {slope:.4f} (bound rate -1, cutoff -0.9), "
              f"first-moment factor = {moment:.3f}")


def test_14_integral_residual(residual_runs):
    coarse = duhamel_residual(residual_runs[33])
    dense = duhamel_residual(residual_runs[65])
    ok = dense <= 1e-3 and coarse / dense >= 2.0
    criterion("C14 integral-equation residual", ok,
              f"dense = {dense:.3e} (tol 1e-03), refinement ratio = "
              f"{coarse / dense:.2f} (floor 2)")


# -- absorption tail condition ------------------------------------------------

CONDITION_CASES = [
    # (p, sigma, beta, alpha, dim); margins |sigma - r + 1| >= 0.5 so the
    # brute-force ratio heuristic cannot sit on the fence
    (1.5, -2.5, 0.0, 0.5, 1), (1.5, -1.0, 0.0, 0.5, 1),
    (2.0, -2.5, 0.0, 0.5, 1), (2.0, -1.0, 0.0, 0.5, 1),
    (2.0, 0.5, 0.0, 0.5, 1), (3.0, -2.5, 0.0, 0.5, 1),
    (3.0, -1.0, 0.0, 0.5, 1), (3.0, 0.5, 0.0, 0.5, 1),
    (1.5, -2.5, 1.0, 0.5, 1), (1.5, -1.0, 1.0, 0.5, 1),
    (1.5, 0.5, 0.0, 0.5, 1), (1.5, 0.5, 0.0, 1.0, 1),
    (2.0, 0.5, 0.0, 1.0, 1), (1.5, 0.5, 1.0, 1.0, 1),
    (1.5, 0.5, 0.0, 1.5, 1), (2.0, 0.5, 0.0, 1.5, 1),
    (1.5, 0.5, 1.0, 1.5, 1), (1.5, 0.5, 0.0, 1.0, 2),
    (1.5, 0.5, 0.0, 1.5, 2), (2.0, 1.0, 0.0, 1.0, 1),
]


def brute_force_verdict(p, sigma, beta, alpha, dim):
    r = decay_rate_exponent(p, alpha, beta, dim)
    f = lambda t: (1.0 + t) ** sigma * t ** (-r)
    head, _ = quad(f, 1.0, 1e3, limit=200)
    tail, _ = quad(f, 1e3, 1e6, limit=200)
    return "convergent" if tail < 0.5 * head else "divergent"


def test_15_tail_condition_agreement():
    mismatches = []
    for p, sigma, beta, alpha, dim in CONDITION_CASES:
        got = condition_h_check(p, alpha, beta, dim, PowerAbsorption(1.0, sigma))
        want = brute_force_verdict(p, sigma, beta, alpha, dim)
        if got != want:
            mismatches.append((p, sigma, beta, alpha, dim, got, want))
    criterion("C15 tail condition agreement", not mismatches,
              f"{len(CONDITION_CASES) - len(mismatches)}/"
              f"{len(CONDITION_CASES)} cases agree"
              + (f"; mismatches: {mismatches}" if mismatches else ""))
