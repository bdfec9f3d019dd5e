"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criterion 4 is expected to fail: the targeted shrink
window for the imbalance-estimator deviation is not attainable under the
available edge-weight laws (see the test docstring and README).
"""

import itertools
import time

import numpy as np

from predcut.csp import (build_csp_lp, csp_value, maxcut_as_csp,
                         predicate_from_bits, solve_csp_wide)
from predcut.exact import exact_maxcut
from predcut.graph import cut_value, frac_objective, gen_erdos_renyi
from predcut.lp import check_feasibility
from predcut.narrow import flip_step
from predcut.partial import TauGrid, solve_partial_gw, solve_partial_rt
from predcut.pipeline import solve_noisy
from predcut.predictions import sample_noisy, sample_partial, scaled_prediction
from predcut.sdp import (SdpConfig, hyperplane_round, round_by_direction,
                         rt_round, solve_sdp)
from predcut.wide import estimate_imbalance, pipage_round, randomized_round_best, solve_wide

from conftest import random_cut
from test_sdp import max_triangle_violation, synthetic_solution

ALPHA_GW = 0.878
ALPHA_RT = 0.858


def report(num, name, ok, detail, t0, budget_s):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} "
          f"[{detail}] ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"
    assert ok, f"criterion {num} ({name}): {detail}"


def mixed_instance(rng):
    n = int(rng.integers(2, 15))
    kind = rng.integers(3)
    if kind == 0:
        return gen_erdos_renyi(n, float(rng.uniform(0.2, 0.9)), "unit",
                               seed=int(rng.integers(2 ** 31)))
    if kind == 1:
        return gen_erdos_renyi(n, float(rng.uniform(0.2, 0.9)), "uniform",
                               seed=int(rng.integers(2 ** 31)))
    n = max(n, 4)
    return gen_erdos_renyi(n, 0.0, "planted", seed=int(rng.integers(2 ** 31)),
                           q_cross=0.85, q_within=0.15)


def test_criterion_01_oracle_dominance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_cut_excess = -np.inf
    worst_relax_deficit = -np.inf
    count = 0
    for trial in range(500):
        g = mixed_instance(rng)
        opt, x_star = exact_maxcut(g)
        tol = 1e-6 * max(g.total_weight, 1.0)
        cuts = []
        y = sample_noisy(x_star, 0.3, seed=[1002, trial])
        cut, _ = solve_noisy(g, y, eta=0.3, eps_prime=0.4, seed=trial,
                             narrow_restarts=2, gw_roundings=3)
        cuts.append(cut_value(g, cut))
        cuts.append(cut_value(g, y.y))
        cuts.append(cut_value(g, pipage_round(g, rng.uniform(-1, 1, g.n))))
        cuts.append(cut_value(g, randomized_round_best(g, rng.uniform(-1, 1, g.n),
                                                       0.3, [1003, trial])))
        relax = [solve_sdp(g, SdpConfig(seed=[1004, trial])).objective_value]
        if trial % 5 == 0:
            relax.append(solve_sdp(g, SdpConfig(triangle=True,
                                                seed=[1005, trial])).objective_value)
            yp = sample_partial(x_star, 0.5, seed=[1006, trial])
            pins = {int(i): float(yp.y[i]) for i in yp.revealed_set}
            relax.append(solve_sdp(g, SdpConfig(fixed_labels=pins,
                                                seed=[1007, trial])).objective_value)
            cuts.append(cut_value(g, solve_partial_gw(g, yp, seed=trial, roundings=3)))
            cuts.append(cut_value(g, solve_partial_rt(
                g, yp, TauGrid.for_graph(g, 0.25), seed=trial, roundings=3)))
        if trial % 10 == 0:
            inst = maxcut_as_csp(g)
            xa = solve_csp_wide(inst, y, delta=2, eta=0.3, eps_prime=0.4, seed=trial)
            cuts.append(csp_value(inst, xa) * inst.total_weight / 2)
        worst_cut_excess = max(worst_cut_excess, max(c - opt for c in cuts))
        worst_relax_deficit = max(worst_relax_deficit,
                                  max((opt - r - tol) for r in relax))
        count += 1
    ok = worst_cut_excess <= 1e-9 and worst_relax_deficit <= 0
    report(1, "oracle dominance", ok,
           f"{count} instances, max cut excess {worst_cut_excess:.2e}, "
           f"max relaxation deficit {worst_relax_deficit:.2e}", t0, 120)


def test_criterion_02_gw_rounding_quality():
    t0 = time.perf_counter()
    worst = np.inf
    for k in range(20):
        g = gen_erdos_renyi(40, 0.5, "uniform" if k % 2 else "unit", seed=1100 + k)
        sol = solve_sdp(g, SdpConfig(seed=k))
        vals = [cut_value(g, hyperplane_round(sol, [1101, k, r])) for r in range(1000)]
        worst = min(worst, np.mean(vals) / sol.objective_value)
    ok = worst >= 0.86
    report(2, "GW rounding quality", ok,
           f"worst mean ratio over 20 graphs {worst:.4f} >= 0.86", t0, 120)


def test_criterion_03_rt_marginal_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1200)
    draws = 10_000
    worst = 0.0
    pinned_ok = True
    for k in range(10):
        g = gen_erdos_renyi(int(rng.integers(6, 12)), 0.6, "uniform",
                            seed=int(rng.integers(2 ** 31)))
        labels = rng.choice([-1.0, 0.0, 1.0], size=g.n, p=[0.2, 0.6, 0.2])
        pins = {i: float(labels[i]) for i in range(g.n) if labels[i] != 0}
        sol = solve_sdp(g, SdpConfig(fixed_labels=pins, seed=k))
        mu = sol.mu()
        counts = np.zeros(g.n)
        for s in range(draws):
            x = rt_round(sol, [1201, k, s])
            counts += x.values == 1.0
            if pins and any(x.values[v] != p for v, p in pins.items()):
                pinned_ok = False
        emp = counts / draws
        target = mu / 2 + 0.5
        free = np.array([i not in pins for i in range(g.n)])
        worst = max(worst, float(np.max(np.abs(emp - target)[free], initial=0.0)))
        if pins:
            pv = np.array(sorted(pins))
            if not np.array_equal(emp[pv], (np.array([pins[v] for v in sorted(pins)]) + 1) / 2):
                pinned_ok = False
    ok = worst <= 0.02 and pinned_ok
    report(3, "RT marginal preservation", ok,
           f"max |emp - mu/2 - 1/2| = {worst:.4f} <= 0.02, pinned exact: {pinned_ok}",
           t0, 60)


def test_criterion_04_imbalance_deviation_scaling():
    """Deviation shrink factors across delta doublings on G(200, 0.5).

    Expected to FAIL: with unit (or uniform) edge weights the suffix
    l2-mass after removing the delta heaviest edges shrinks like
    sqrt((deg - 2*delta)/(deg - delta)) per doubling, about 0.95 here, and
    the zeroed-prefix bias grows like sqrt(delta), so the summed deviation
    cannot shrink into the [0.60, 0.85] window this criterion demands. The
    window would require per-vertex weight tails concentrating the suffix
    mass at scale W_i/delta, which no available weight law produces.
    """
    t0 = time.perf_counter()
    eps, eta = 0.3, 0.4
    g = gen_erdos_renyi(200, 0.5, "unit", seed=1300)
    rng = np.random.default_rng(1301)
    x_star = rng.choice([-1.0, 1.0], size=200)
    r_star = g.csr.toarray() @ x_star
    means = []
    for delta in (8, 16, 32):
        devs = []
        for trial in range(200):
            y = sample_noisy(x_star, eps, seed=[1302, delta, trial])
            est = estimate_imbalance(g, y, delta, eta)
            devs.append(np.abs(est.r_hat - r_star)[est.wide_mask].sum())
        means.append(np.mean(devs))
    r1 = means[1] / means[0]
    r2 = means[2] / means[1]
    ok = (0.60 <= r1 <= 0.85) and (0.60 <= r2 <= 0.85)
    report(4, "imbalance deviation scaling", ok,
           f"shrink factors {r1:.3f}, {r2:.3f} vs window [0.60, 0.85]", t0, 120)


def test_criterion_05_wide_additive_bound_planted():
    t0 = time.perf_counter()
    eps, eta, eps_prime, delta = 0.45, 0.3, 0.2, 32
    hits = 0
    trials = 50
    for trial in range(trials):
        g = gen_erdos_renyi(512, 0.0, "planted", seed=[1400, trial],
                            q_cross=0.9, q_within=0.1)
        y = sample_noisy(g.planted, eps, seed=[1401, trial])
        cut = solve_wide(g, y, delta, eta, eps_prime, seed=[1402, trial])
        bound = cut_value(g, g.planted) - (2 * eps_prime + 5 * eta) * g.total_weight
        hits += cut_value(g, cut) >= bound
    ok = hits / trials >= 0.9
    report(5, "wide additive bound on planted instances", ok,
           f"bound held in {hits}/{trials} trials (need >= 90%)", t0, 300)


def test_criterion_06_pipage_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1500)
    violations = 0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        g = gen_erdos_renyi(n, float(rng.uniform(0.2, 0.9)),
                            "uniform" if rng.random() < 0.5 else "unit",
                            seed=int(rng.integers(2 ** 31)))
        x_hat = rng.uniform(-1, 1, n)
        out = pipage_round(g, x_hat)
        if frac_objective(g, out) < frac_objective(g, x_hat) - 1e-9:
            violations += 1
    ok = violations == 0
    report(6, "pipage monotonicity", ok,
           f"{violations} violations in 300 pairs", t0, 60)


def test_criterion_07_flip_monotonicity_and_triangle_feasibility():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1600)
    flip_violations = 0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        g = gen_erdos_renyi(n, float(rng.uniform(0.3, 0.9)), "uniform",
                            seed=int(rng.integers(2 ** 31)))
        V = rng.standard_normal((n, 4))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        sol = synthetic_solution(V)
        gvec = rng.standard_normal(4)
        x_hat = round_by_direction(sol, gvec)
        new, _ = flip_step(g, x_hat, sol, gvec, float(rng.uniform(0.0, 0.4)))
        if cut_value(g, new) < cut_value(g, x_hat) - 1e-9:
            flip_violations += 1
    worst_viol = 0.0
    for n, seed in ((8, 1601), (16, 1602), (25, 1603), (33, 1604), (40, 1605)):
        g = gen_erdos_renyi(n, 0.5, "uniform", seed=seed)
        sol = solve_sdp(g, SdpConfig(triangle=True, seed=seed))
        worst_viol = max(worst_viol, max_triangle_violation(sol))
    ok = flip_violations == 0 and worst_viol <= 1e-3 + 1e-9
    report(7, "flip monotonicity + triangle feasibility", ok,
           f"{flip_violations} flip violations; max triangle violation "
           f"{worst_viol:.2e} <= 1e-3", t0, 180)


def _partial_ratio_run(solver, seed_base, trials=200):
    rng = np.random.default_rng(seed_base)
    ratios = []
    t = 0
    while len(ratios) < trials:
        t += 1
        n = int(rng.integers(8, 15))
        g = gen_erdos_renyi(n, float(rng.uniform(0.4, 0.8)), "uniform",
                            seed=int(rng.integers(2 ** 31)))
        opt, x_star = exact_maxcut(g)
        if opt <= 0:
            continue
        y = sample_partial(x_star, 0.5, seed=[seed_base, t])
        out = solver(g, y, t)
        ratios.append(cut_value(g, out) / opt)
    return float(np.mean(ratios))


def test_criterion_08_label_fixed_gw_bound():
    t0 = time.perf_counter()
    target = ALPHA_GW + (1 - ALPHA_GW) * 0.25 - 0.05
    mean_ratio = _partial_ratio_run(
        lambda g, y, t: solve_partial_gw(g, y, seed=[1700, t], roundings=20), 1700)
    ok = mean_ratio >= target
    report(8, "label-fixed GW bound", ok,
           f"mean ratio {mean_ratio:.4f} >= {target:.4f}", t0, 180)


def test_criterion_09_rt_bound():
    t0 = time.perf_counter()
    eps = 0.5
    target = ALPHA_RT + (1 - ALPHA_RT) * (2 * eps - eps ** 2) - 0.05
    mean_ratio = _partial_ratio_run(
        lambda g, y, t: solve_partial_rt(g, y, seed=[1800, t], roundings=20), 1800)
    ok = mean_ratio >= target
    report(9, "marginal-preserving threshold bound", ok,
           f"mean ratio {mean_ratio:.4f} >= {target:.4f}", t0, 300)


def test_criterion_10_csp_correspondence_and_fourier():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1900)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = gen_erdos_renyi(n, float(rng.uniform(0.3, 0.9)), "uniform",
                            seed=int(rng.integers(2 ** 31)))
        inst = maxcut_as_csp(g)
        x = random_cut(rng, n)
        worst = max(worst, abs(csp_value(inst, x) * inst.total_weight
                               - 2 * cut_value(g, x)))
    fourier_exact = True
    for bits in itertools.product("01", repeat=4):
        pred = predicate_from_bits("".join(bits))
        for z in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            if pred.value_fourier(*z) != pred.value(*z):
                fourier_exact = False
    ok = worst <= 1e-9 and fourier_exact
    report(10, "CSP correspondence + Fourier reconstruction", ok,
           f"max |val*W - 2*cut| = {worst:.2e}; all 16 predicates exact: "
           f"{fourier_exact}", t0, 60)


def test_criterion_11_csp_lp_feasibility_frequency():
    t0 = time.perf_counter()
    eps, eta, eps_prime, delta, C = 0.45, 0.3, 0.2, 32, 4.0
    g = gen_erdos_renyi(512, 0.0, "planted", seed=2000, q_cross=0.9, q_within=0.1)
    inst = maxcut_as_csp(g)
    x_star = g.planted
    ok_count = 0
    draws = 100
    for trial in range(draws):
        y = sample_noisy(x_star, eps, seed=[2001, trial])
        lp = build_csp_lp(inst, scaled_prediction(y), delta, eta, eps_prime, C)
        if check_feasibility(lp, x_star) <= 0:
            ok_count += 1
    ok = ok_count / draws >= 0.9
    report(11, "CSP LP feasibility of the reference labels", ok,
           f"feasible in {ok_count}/{draws} draws (need >= 90%)", t0, 240)


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    from predcut.cli import main

    d = tmp_path
    identical = True
    outputs = {}
    for round_id in ("a", "b"):
        gdir = d / round_id
        gdir.mkdir()
        main(["gen-graph", "--n", "12", "--p", "0.6", "--weight-law", "planted",
              "--q-cross", "0.9", "--q-within", "0.1", "--seed", "7",
              "--out", str(gdir / "g.txt"), "--planted-out", str(gdir / "t.txt")])
        main(["gen-predictions", "--truth", str(gdir / "t.txt"), "--model", "noisy",
              "--eps", "0.3", "--seed", "5", "--out", str(gdir / "p.txt")])
        main(["gen-predictions", "--truth", str(gdir / "t.txt"), "--model", "partial",
              "--eps", "0.5", "--seed", "5", "--out", str(gdir / "q.txt")])
        cfg = gdir / "exp.ini"
        cfg.write_text(f"""
[experiment]
master_seed = 3
trials = 3

[graph]
generator = erdos_renyi
n = 10
p = 0.6
weight_law = uniform

[prediction]
model = noisy
eps = 0.25

[algorithms]
list = oracle, auto, gw, prediction

[params]
restarts = 3
roundings = 4

[output]
path = {gdir / "r.csv"}
""")
        main(["experiment", "--config", str(cfg)])
        outputs[round_id] = {
            name: (gdir / name).read_bytes()
            for name in ("g.txt", "t.txt", "p.txt", "q.txt", "r.csv")
        }
    for name in outputs["a"]:
        if outputs["a"][name] != outputs["b"][name]:
            identical = False
    ok = identical
    report(12, "CLI byte-identical determinism", ok,
           "all generated files byte-identical across repeated runs", t0, 120)
