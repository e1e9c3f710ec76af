"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line (visible with `pytest -v -s` or in captured output).
"""

import math
import time

import numpy as np
from scipy import stats as scipy_stats

from nlboson import (
    NonlinearExperiment,
    SingleModePhase,
    build_setup,
    enumerate_states,
    fraction_for_threshold,
    gadget_residuals,
    haar_unitary,
    linearized_evolution,
    nonlinear_amplitude,
    nonlinear_distribution,
    output_distribution,
    permanent,
    permanent_naive,
    phase_gate_amplitude,
    phase_gate_amplitude_split,
    postselected_distribution,
    reference_gadget,
    run_rejection_sampling,
    success_bound,
    success_probability,
    truncated_mass_study,
    tvd,
    tvd_bunching_experiment,
    verify_composition,
)
from nlboson.cli import main
from nlboson.linear import Distribution

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_permanent_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        size = 1 + i % 7
        mat = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        worst = max(worst, abs(permanent(mat) - permanent_naive(mat)))
    elapsed = time.perf_counter() - start
    report(
        1,
        "permanent kernel vs permutation-sum oracle",
        worst <= 1e-9 and elapsed < 5.0,
        f"max err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_reference_gadget_constants():
    start = time.perf_counter()
    probs = {k: success_probability(reference_gadget(k).u_eff) for k in (2, 3, 4)}
    res2 = np.abs(gadget_residuals(reference_gadget(2).u_eff, math.pi / 2)).max()
    elapsed = time.perf_counter() - start
    ok = (
        abs(probs[2] - 0.209) <= 0.005
        and abs(probs[3] - 0.04) <= 0.005
        and abs(probs[4] - 0.008) <= 0.003
        and res2 <= 5e-3
        and elapsed < 1.0
    )
    report(
        2,
        "bundled gadget constants",
        ok,
        f"Pr = {probs[2]:.4f}/{probs[3]:.4f}/{probs[4]:.4f}, "
        f"k=2 max residual {res2:.2e}, {elapsed:.2f} s",
    )


def test_criterion_03_success_bound(gadget_k2, gadget_k2_pi4, phi_grid_gadgets):
    bound_half_pi = success_bound(math.pi / 2)
    synthesized = [gadget_k2, gadget_k2_pi4, *phi_grid_gadgets.values()]
    margins = [success_bound(g.phi) + 1e-9 - g.success_prob for g in synthesized]
    ok = bound_half_pi == 0.25 and all(m >= 0 for m in margins)
    report(
        3,
        "heralding-probability ceiling",
        ok,
        f"bound(pi/2) = {bound_half_pi!r}, min margin {min(margins):.3e} "
        f"over {len(synthesized)} gadgets",
    )


def test_criterion_04_gadget_synthesis(gadget_k2, phi_grid_gadgets):
    ok_main = gadget_k2.residual <= 1e-8 and gadget_k2.success_prob >= 0.15
    grid_probs = {phi: g.success_prob for phi, g in phi_grid_gadgets.items()}
    grid_residuals = max(g.residual for g in phi_grid_gadgets.values())
    ok_grid = all(p >= 0.1 for p in grid_probs.values()) and grid_residuals <= 1e-8
    report(
        4,
        "gadget synthesis (k=2 at pi/2 and the 8-point phi grid)",
        ok_main and ok_grid,
        f"pi/2: D={gadget_k2.residual:.1e} Pr={gadget_k2.success_prob:.4f}; "
        f"grid min Pr {min(grid_probs.values()):.4f}, max D {grid_residuals:.1e}",
    )


def test_criterion_05_exact_simulation(gadget_k2, gadget_k2_pi4, gadget_k3):
    start = time.perf_counter()
    cases = []
    rng = np.random.default_rng(105)
    for phi, gadget in ((math.pi / 4, gadget_k2_pi4), (math.pi / 2, gadget_k2)):
        w, v = haar_unitary(2, rng), haar_unitary(2, rng)
        exact = nonlinear_distribution(
            NonlinearExperiment(w, v, SingleModePhase(1, phi), (1, 1))
        )
        sim, _ = postselected_distribution(build_setup(w, v, 1, (1, 1), gadget))
        cases.append((f"n=2 phi={phi:.3f}", gadget.residual, tvd(sim, exact)))
    w, v = haar_unitary(5, rng), haar_unitary(5, rng)
    s = (1, 1, 1, 0, 0)
    exact = nonlinear_distribution(
        NonlinearExperiment(w, v, SingleModePhase(3, math.pi / 2), s)
    )
    sim, _ = postselected_distribution(build_setup(w, v, 3, s, gadget_k3))
    cases.append(("n=3 phi=1.571", gadget_k3.residual, tvd(sim, exact)))
    elapsed = time.perf_counter() - start
    ok = all(resid <= 1e-10 and dist <= 1e-6 for _, resid, dist in cases) and elapsed < 60
    detail = "; ".join(f"{name}: D={resid:.1e}, TVD={dist:.1e}" for name, resid, dist in cases)
    report(5, "matching ancilla count reproduces the gate exactly", ok, detail)


def test_criterion_06_analytic_degeneracies():
    rng = np.random.default_rng(106)
    worst = 0.0
    for phi in (0.0, math.pi):
        for _ in range(3):
            w, v = haar_unitary(9, rng), haar_unitary(9, rng)
            s = (1, 1, 1) + (0,) * 6
            exp = NonlinearExperiment(w, v, SingleModePhase(5, phi), s)
            ubar_dist = output_distribution(linearized_evolution(w, 5, phi, v), s)
            worst = max(worst, tvd(nonlinear_distribution(exp), ubar_dist))
    hom = nonlinear_distribution(
        NonlinearExperiment(BS, BS, SingleModePhase(1, math.pi / 4), (1, 1))
    )
    hom_probs_ok = np.abs(hom.probs - np.array([0.5, 0.0, 0.5])).max() < 1e-10
    ubar_hom = output_distribution(linearized_evolution(BS, 1, math.pi / 4, BS), (1, 1))
    hom_tvd = tvd(hom, ubar_hom)
    ok = worst <= 1e-10 and hom_probs_ok and abs(hom_tvd - 0.5) <= 1e-10
    report(
        6,
        "quadratic phase degenerates to linear at phi in {0, pi}",
        ok,
        f"max TVD at degenerate phases {worst:.1e}; two-photon interference "
        f"probabilities (1/2, 0, 1/2) and benchmark TVD {hom_tvd:.12f}",
    )


def test_criterion_07_equation_cross_validation():
    rng = np.random.default_rng(107)
    worst_pair = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        w, v = haar_unitary(m, rng), haar_unitary(m, rng)
        space = enumerate_states(m, n)
        s = space.states[int(rng.integers(len(space)))]
        t = space.states[int(rng.integers(len(space)))]
        x = int(rng.integers(1, m + 1))
        phi = float(rng.uniform(0, 2 * math.pi))
        exp = NonlinearExperiment(w, v, SingleModePhase(x, phi), s)
        a_general = nonlinear_amplitude(exp, t)
        a_fourier = phase_gate_amplitude(w, x, phi, v, s, t)
        a_split = phase_gate_amplitude_split(w, x, phi, v, s, t)
        # nonlinear_distribution's amplitude: the gate's factors on the
        # tagged recursion's components
        a_tagged = exp.gate.number_factors(n) @ exp.components[1][:, space.rank(t)]
        routes = (a_general, a_fourier, a_split, a_tagged)
        worst_pair = max(worst_pair, *(abs(a - b) for i, a in enumerate(routes)
                                       for b in routes[i + 1:]))
    worst_comp = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        w, v = haar_unitary(m, rng), haar_unitary(m, rng)
        space = enumerate_states(m, n)
        s = space.states[int(rng.integers(len(space)))]
        t = space.states[int(rng.integers(len(space)))]
        worst_comp = max(worst_comp, verify_composition(w, v, s, t))
    ok = worst_pair <= 1e-12 and worst_comp <= 1e-9
    report(
        7,
        "path sum, tagged recursion, Fourier form and split form agree; "
        "composition identity",
        ok,
        f"max pairwise gap {worst_pair:.1e} over 50 instances, "
        f"max composition residual {worst_comp:.1e}",
    )


def test_criterion_08_cumulative_fractions():
    start = time.perf_counter()
    s = (1, 1, 1) + (0,) * 6
    fractions = np.empty((200, 3))
    for i in range(200):
        rng = np.random.default_rng([108, i])
        dist = output_distribution(haar_unitary(9, rng), s)
        fractions[i] = [fraction_for_threshold(dist, p) for p in (0.9, 0.95, 0.99)]
    means = fractions.mean(axis=0)
    elapsed = time.perf_counter() - start
    targets = np.array([0.5, 0.6, 0.8])
    ok = np.all(np.abs(means - targets) <= 0.1) and elapsed < 300
    report(
        8,
        "fractions of outcomes carrying 90/95/99% of the mass",
        ok,
        f"means {means.round(3).tolist()} vs {targets.tolist()} +/- 0.1, {elapsed:.1f} s",
    )


def test_criterion_09_tvd_bunching_reduced_scale(gadget_k1, gadget_k2):
    start = time.perf_counter()
    modes = [5, 9, 16, 27]
    records = tvd_bunching_experiment(
        3, modes, [1, 2], math.pi / 2, trials=50, seed=109,
        gadgets={1: gadget_k1, 2: gadget_k2},
    )
    means = {
        (m, k): np.mean([r.tvd for r in records if r.m == m and r.k == k])
        for m in modes
        for k in (1, 2)
    }
    decreasing = all(
        means[(modes[i], k)] > means[(modes[i + 1], k)]
        for k in (1, 2)
        for i in range(len(modes) - 1)
    )
    ordered = all(means[(m, 1)] > means[(m, 2)] for m in modes)
    at_m9_k2 = [(r.tvd, r.p_bunch_site) for r in records if r.m == 9 and r.k == 2]
    rho = scipy_stats.spearmanr(
        [a for a, _ in at_m9_k2], [b for _, b in at_m9_k2]
    ).statistic
    elapsed = time.perf_counter() - start
    ok = decreasing and ordered and rho >= 0.5 and elapsed < 1800
    detail = (
        "mean TVD k=1: " + "/".join(f"{means[(m, 1)]:.3f}" for m in modes)
        + "; k=2: " + "/".join(f"{means[(m, 2)]:.3f}" for m in modes)
        + f"; spearman(m=9,k=2) = {rho:.3f}; {elapsed:.0f} s"
    )
    report(9, "simulation error falls with modes and extra ancillas", ok, detail)


def test_criterion_10_sampling_convergence(gadget_k2):
    rng = np.random.default_rng([110, 0])
    w, v = haar_unitary(5, rng), haar_unitary(5, rng)
    s = (1, 1, 1, 0, 0)
    exact = nonlinear_distribution(
        NonlinearExperiment(w, v, SingleModePhase(3, math.pi / 2), s)
    )
    setup = build_setup(w, v, 3, s, gadget_k2)
    ps_dist, _ = postselected_distribution(setup)
    floor = tvd(ps_dist, exact)
    tvds = []
    for size in (100, 1_000, 10_000):
        samples, _ = run_rejection_sampling(setup, size, np.random.default_rng([110, size]))
        freq = np.zeros(len(exact.space))
        for state in samples:
            freq[exact.space.rank(state)] += 1
        tvds.append(tvd(Distribution(exact.space, freq / size), exact))
    # each step must shrink the error unless both ends already sit in the
    # saturation band (<= 2x floor), where only fluctuation remains
    saturated = [t <= 2 * floor for t in tvds]
    steps_ok = all(
        tvds[i + 1] < tvds[i] or (saturated[i] and saturated[i + 1])
        for i in range(len(tvds) - 1)
    )
    ok = steps_ok and tvds[-1] < tvds[0] and saturated[-1]
    report(
        10,
        "sampled error decreases then saturates at the heralded floor",
        ok,
        f"TVD at (1e2, 1e3, 1e4) = {[round(t, 4) for t in tvds]}, floor {floor:.4f}",
    )


def test_criterion_11_truncation_study():
    result = truncated_mass_study(3, 9, 2, 200, np.random.default_rng(111))
    ok = abs(result.mean - 0.95) <= 0.05
    report(
        11,
        "mass with at most two photons per mode at m = n^2",
        ok,
        f"mean {result.mean:.4f} +/- {result.stddev:.4f} over 200 draws",
    )


def test_criterion_12_deterministic_csv_bodies(tmp_path):
    argv = [
        "experiment", "tvd-bunching", "--n", "2", "--modes", "3,4", "--k", "1",
        "--trials", "3", "--seed", "112", "--reference", "pathsum", "--workers", "1",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    dist_argv = ["analyze", "truncation", "--n", "2", "--m", "4", "--n-max", "1",
                 "--units", "5", "--seed", "3"]
    out_c, out_d = tmp_path / "c.csv", tmp_path / "d.csv"
    main(dist_argv + ["--out", str(out_c)])
    main(dist_argv + ["--out", str(out_d)])
    identical_analyze = out_c.read_bytes() == out_d.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical and identical_analyze
    report(
        12,
        "identical seeds give byte-identical CSV bodies",
        ok,
        f"experiment bodies equal: {identical}; analyze bodies equal: {identical_analyze}",
    )
