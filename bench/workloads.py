"""The benchmark's four workloads.

Each workload makes its instances from the run's seed (`setup`), solves
them through predcut's composed public solvers (`solve`, the timed part),
solves them again by calling each layer's public functions one at a time
with the seeds the composed solvers use (`decompose`, the traced part), and
checks the results against values computed in reference.py (`check`).
Only generated inputs and seeds cross into predcut.

An operation is one call of a composed solver on one instance; `solve`
returns a dict with one cut per operation, plus side values ("sdp",
"tag", "class") that the checks read.
"""

from types import SimpleNamespace

import numpy as np

import predcut as pc
from predcut.sdp import round_by_direction
from predcut.seeds import derive

from reference import (brute_csp, brute_maxcut, edge_cut, planted_csp,
                       planted_graph, table_value)

ORACLE_MAX_N = 24           # exact_maxcut's limit; larger graphs use the planted cut
GW_ROUNDINGS = 20           # hyperplane roundings kept best-of, as in solve_noisy


class Checker:
    """Collects failed correctness checks instead of stopping at the first."""

    def __init__(self):
        self.failures = []

    def require(self, ok, what):
        if not ok:
            self.failures.append(what)
        return bool(ok)


def _rng(seed, workload, k):
    return np.random.default_rng([seed, workload, k])


def _graph_instance(trace, name, rng, n, q_cross, q_within, solver_seed):
    trace.instance = name
    truth, i, j, w = planted_graph(rng, n, q_cross, q_within)
    with trace.span("graph.build"):
        g = pc.Graph(n, zip(i.tolist(), j.tolist(), w.tolist()), planted=truth)
    inst = SimpleNamespace(name=name, n=n, g=g, i=i, j=j, w=w, truth=truth,
                           seed=solver_seed)
    if n <= ORACLE_MAX_N:
        with trace.span("exact.maxcut"):
            inst.ref, _ = pc.exact_maxcut(g)
        inst.ref_kind = "exact"
    else:
        inst.ref = edge_cut(i, j, w, truth)
        inst.ref_kind = "planted"
    return inst


def _noisy(trace, inst, eps, seed):
    with trace.span("predictions.sample"):
        inst.pred = pc.sample_noisy(inst.truth, eps, seed=seed)


def _check_cut(ck, inst, label, cut):
    """+-1 of length n, edge-list sum equal to cut_value, at most the oracle."""
    x = np.asarray(cut.values)
    where = f"{inst.name} {label}"
    if not ck.require(x.shape == (inst.n,) and np.all(np.abs(x) == 1.0),
                      f"{where}: not a +-1 vector of length {inst.n}"):
        return None
    own = edge_cut(inst.i, inst.j, inst.w, x)
    ck.require(abs(own - pc.cut_value(inst.g, cut)) <= 1e-9 * max(1.0, inst.g.total_weight),
               f"{where}: cut_value differs from the edge-list sum {own}")
    if inst.ref_kind == "exact":
        ck.require(own <= inst.ref + 1e-9, f"{where}: cut {own} exceeds the optimum {inst.ref}")
    return own / inst.ref


def _check_oracle(ck, instances):
    """The smallest oracle instance: own enumeration equals exact_maxcut."""
    exact = [inst for inst in instances if inst.ref_kind == "exact"]
    if exact:
        inst = min(exact, key=lambda s: s.n)
        own = brute_maxcut(inst.n, inst.i, inst.j, inst.w)
        ck.require(abs(own - inst.ref) <= 1e-9,
                   f"{inst.name}: exact_maxcut {inst.ref} != enumeration {own}")


def _check_sdp(ck, g, sol, where):
    """Unit vectors within 1e-6 and a stored objective that recomputes within 1e-8."""
    norms = np.linalg.norm(sol.vectors, axis=1)
    ck.require(np.max(np.abs(norms - 1.0)) <= 1e-6, f"{where}: SDP vectors not unit")
    obj = pc.sdp_objective(g, sol)
    ck.require(abs(obj - sol.objective_value) <= 1e-8 * max(1.0, abs(obj)),
               f"{where}: sdp_objective {obj} != objective_value {sol.objective_value}")


def _check_lp(ck, lp, sol, where):
    """Box within 1e-9 and every absolute-sum budget within 1e-7, in numpy."""
    if not ck.require(sol.optimal, f"{where}: LP status {sol.status}"):
        return
    ck.require(np.max(np.abs(sol.x)) <= 1.0 + 1e-9, f"{where}: LP solution leaves the box")
    for grp in lp.groups:
        used = float(np.abs(grp.coeffs @ sol.x + grp.offsets).sum())
        ck.require(used <= grp.budget + 1e-7,
                   f"{where}: LP budget exceeded by {used - grp.budget:.3g}")


def _lp_counts(trace, lp):
    forms = sum(grp.coeffs.shape[0] for grp in lp.groups)
    rows, cols = 2 * forms + len(lp.groups), lp.n + forms
    trace.count("lp.rows", rows)
    trace.count("lp.cols", cols)
    trace.count("lp.a_ub_mb", rows * cols * 8 / 2 ** 20)


def _best_hyperplane(trace, g, sol, seed, align=None):
    """Best of GW_ROUNDINGS hyperplane roundings; the first best wins ties."""
    best, best_val = None, -np.inf
    with trace.span("sdp.hyperplane_round"):
        for r in range(GW_ROUNDINGS):
            x = pc.hyperplane_round(sol, derive(seed, r))
            if align is not None:
                x = align(x)
            val = pc.cut_value(g, x)
            if val > best_val:
                best, best_val = x, val
    return best


def _plain_sdp(trace, g, seed):
    trace.count("sdp.calls")
    with trace.span("sdp.plain_solve"):
        sol = pc.solve_sdp(g, pc.SdpConfig(seed=seed))
    trace.counts["sdp.rank"] = max(trace.counts.get("sdp.rank", 0), sol.dim)
    return sol


class _Workload:
    spot_checked = (0,)      # instances the untraced run also solves layer by layer

    def probe(self, inst, trace):
        """Extra layer calls timed after the traced round; none by default."""


class WideLp(_Workload):
    """solve_wide on dense planted graphs and solve_csp_wide on 2-CSPs.

    Explicit delta/eta/eps' make every graph classify as wide, so the LP
    layer (dense constraint build plus HiGHS) and the prefix machinery do
    the work and no SDP runs.
    """

    name = "wide_lp"
    salt = 1
    graphs = tuple((n, 0.2, 0.05) for n in (600, 700, 800, 900, 1000, 1100, 1200))
    spot_checked = (0, len(graphs))    # the smallest graph and the oracle CSP
    graph_eps = 0.25
    delta, eta, eps_prime = 16, 0.3, 0.2
    # (n, constraints, share of violated constraints kept, prediction bias);
    # n <= 22 is scored against exact_csp
    csps = ((18, 300, 0.3, 0.4), (300, 3000, 0.3, 0.35))
    csp_bits = "1110"        # OR; CUT is 0110
    csp_delta, csp_eta = 4, 0.3

    def setup(self, seed, trace):
        out = []
        for k, (n, qc, qw) in enumerate(self.graphs):
            inst = _graph_instance(trace, f"graph{k}_n{n}", _rng(seed, self.salt, k),
                                   n, qc, qw, [seed, k])
            _noisy(trace, inst, self.graph_eps, [seed, 100 + k])
            out.append(inst)
        pred = pc.predicate_from_bits(self.csp_bits)
        for k, (n, m, keep, eps) in enumerate(self.csps):
            trace.instance = f"csp{k}_n{n}"
            truth, cons = planted_csp(_rng(seed, self.salt, 10 + k), n, m, self.csp_bits, keep)
            inst = SimpleNamespace(name=f"csp{k}_n{n}", n=n, truth=truth, constraints=cons,
                                   csp=pc.CspInstance(n, pred, cons), seed=[seed, 10 + k])
            if n <= pc.exact.CSP_LIMIT:
                with trace.span("exact.csp"):
                    inst.ref, _ = pc.exact_csp(inst.csp)
                inst.ref_kind = "exact"
            else:
                inst.ref = table_value(cons, self.csp_bits, truth)
                inst.ref_kind = "planted"
            _noisy(trace, inst, eps, [seed, 110 + k])
            out.append(inst)
        return out

    def solve(self, inst):
        if hasattr(inst, "csp"):
            return {"solve_csp_wide": pc.solve_csp_wide(
                inst.csp, inst.pred, self.csp_delta, self.csp_eta, self.eps_prime,
                seed=inst.seed)}
        report = pc.classify(inst.g, self.delta, self.eta)
        cut = pc.solve_wide(inst.g, inst.pred, self.delta, self.eta, self.eps_prime,
                            seed=inst.seed)
        return {"solve_wide": cut, "class": report.graph_class}

    def decompose(self, inst, trace, ck):
        if hasattr(inst, "csp"):
            return self._decompose_csp(inst, trace, ck)
        g = inst.g
        with trace.span("graph.classify"):
            report = pc.classify(g, self.delta, self.eta)
        with trace.span("wide.estimate_imbalance"):
            est = pc.estimate_imbalance(g, inst.pred, self.delta, self.eta)
        with trace.span("wide.build_lp"):
            lp = pc.build_wide_lp(g, est, self.eps_prime, self.eta)
        _lp_counts(trace, lp)
        with trace.span("lp.solve"):
            sol = pc.solve_lp(lp)
        _check_lp(ck, lp, sol, inst.name)
        if not sol.optimal:
            return {}
        with trace.span("wide.round"):
            cut = pc.randomized_round_best(g, np.clip(sol.x, -1.0, 1.0), self.eta, inst.seed)
        return {"solve_wide": cut, "class": report.graph_class}

    def _decompose_csp(self, inst, trace, ck):
        csp = inst.csp
        with trace.span("csp.build_lp"):
            lp = pc.build_csp_lp(csp, pc.scaled_prediction(inst.pred), self.csp_delta,
                                 self.csp_eta, self.eps_prime)
        _lp_counts(trace, lp)
        with trace.span("lp.solve"):
            sol = pc.solve_lp(lp)
        _check_lp(ck, lp, sol, inst.name)
        if not sol.optimal:
            return {}
        # the rest of solve_csp_wide: best of T randomized roundings, earliest on ties
        with trace.span("csp.round"):
            x_hat = np.clip(sol.x, -1.0, 1.0)
            T = pc.wide.rounding_trials(self.csp_eta)
            U = np.random.default_rng(inst.seed).random((T, csp.n))
            X = np.where(U < (1.0 + x_hat) / 2.0, 1.0, -1.0)
            best = max(range(T), key=lambda t: (pc.csp_value(csp, X[t]), -t))
        return {"solve_csp_wide": pc.CutAssignment(values=X[best])}

    def probe(self, inst, trace):
        if not hasattr(inst, "csp"):
            with trace.span("graph.truncated_adjacency"):
                pc.truncated_adjacency(inst.g, self.delta)

    def check(self, ck, instances, outputs):
        ratios = []
        for inst, out in zip(instances, outputs):
            if hasattr(inst, "csp"):
                x = np.asarray(out["solve_csp_wide"].values)
                if not ck.require(x.shape == (inst.n,) and np.all(np.abs(x) == 1.0),
                                  f"{inst.name}: not a +-1 assignment"):
                    ratios.append(None)
                    continue
                own = table_value(inst.constraints, self.csp_bits, x)
                ck.require(abs(own - pc.csp_value(inst.csp, x)) <= 1e-9,
                           f"{inst.name}: csp_value differs from the truth table {own}")
                if inst.ref_kind == "exact":
                    ck.require(own <= inst.ref + 1e-9, f"{inst.name}: value exceeds the optimum")
                ratios.append(own / inst.ref)
            else:
                ck.require(out["class"] == "wide", f"{inst.name}: classified {out['class']}")
                ratios.append(_check_cut(ck, inst, "solve_wide", out["solve_wide"]))
        small = [inst for inst in instances if hasattr(inst, "csp") and inst.ref_kind == "exact"]
        if small:
            inst = min(small, key=lambda s: s.n)
            own = brute_csp(inst.n, inst.constraints, self.csp_bits)
            ck.require(abs(own - inst.ref) <= 1e-9,
                       f"{inst.name}: exact_csp {inst.ref} != enumeration {own}")
        return ratios


class GwSparse(_Workload):
    """Plain GW (solve_sdp, then the best of 20 hyperplane_round) on sparse graphs.

    Per-vertex coordinate ascent over dense adjacency rows takes almost
    all of the time; no LP runs.
    """

    name = "gw_sparse"
    salt = 2
    sizes = (700, 900, 1100)
    degree_cross, degree_within = 18.0, 6.0   # expected neighbours x 2 across, within

    def setup(self, seed, trace):
        return [_graph_instance(trace, f"graph{k}_n{n}", _rng(seed, self.salt, k), n,
                                self.degree_cross / n, self.degree_within / n, [seed, k])
                for k, n in enumerate(self.sizes)]

    def solve(self, inst):
        sol = pc.solve_sdp(inst.g, pc.SdpConfig(seed=derive(inst.seed, 0)))
        cut = max((pc.hyperplane_round(sol, derive(inst.seed, 1, r)) for r in range(GW_ROUNDINGS)),
                  key=lambda c: pc.cut_value(inst.g, c))
        return {"gw": cut, "sdp": sol}

    def decompose(self, inst, trace, ck):
        sol = _plain_sdp(trace, inst.g, derive(inst.seed, 0))
        return {"gw": _best_hyperplane(trace, inst.g, sol, derive(inst.seed, 1)), "sdp": sol}

    def check(self, ck, instances, outputs):
        ratios = []
        for inst, out in zip(instances, outputs):
            sol = out["sdp"]
            _check_sdp(ck, inst.g, sol, inst.name)
            ratio = _check_cut(ck, inst, "gw", out["gw"])
            if ratio is not None:
                ck.require(ratio * inst.ref <= sol.objective_value * (1.0 + 1e-9),
                           f"{inst.name}: GW cut exceeds the SDP objective")
            ratios.append(ratio)
        return ratios


class NarrowPortfolio(_Workload):
    """solve_noisy with default parameters on small planted graphs.

    Defaults give delta = choose_delta(0.45, 0.05) = 1976 > n, so the narrow
    branch (triangle SDP, flips) always runs beside the GW candidate. Sizes
    lie on both sides of solve_sdp's n <= 20 exact floor and past n = 24,
    where the reference becomes the planted cut.
    """

    name = "narrow_portfolio"
    salt = 3
    sizes = (12, 14, 16, 18) * 14 + (20, 22, 24, 26, 28)
    q_cross, q_within = 0.6, 0.3
    eps = 0.45

    def setup(self, seed, trace):
        out = []
        for k, n in enumerate(self.sizes):
            inst = _graph_instance(trace, f"graph{k}_n{n}", _rng(seed, self.salt, k), n,
                                   self.q_cross, self.q_within, [seed, k])
            _noisy(trace, inst, self.eps, [seed, 100 + k])
            out.append(inst)
        return out

    def solve(self, inst):
        cut, tag = pc.solve_noisy(inst.g, inst.pred, seed=inst.seed)
        return {"solve_noisy": cut, "tag": tag}

    def decompose(self, inst, trace, ck):
        # solve_noisy's defaults and seed layout, one layer call at a time
        g, y, seed = inst.g, inst.pred, inst.seed
        eta, eps_prime = 0.05, 0.05
        delta = pc.choose_delta(y.epsilon, eps_prime)
        with trace.span("graph.classify"):
            report = pc.classify(g, delta, eta)
        if not ck.require(not report.is_wide, f"{inst.name}: classified wide"):
            return {}
        narrow_seed = derive(seed, 1)
        band = pc.fkl_band_width(delta, eta)
        trace.count("sdp.calls")
        with trace.span("sdp.triangle_solve"):
            tri = pc.solve_sdp(g, pc.SdpConfig(triangle=True, seed=derive(narrow_seed, 0)))
        ck.require(tri.feasibility_report["triangle"] <= 1e-3,
                   f"{inst.name}: triangle report {tri.feasibility_report['triangle']}")
        _check_sdp(ck, g, tri, inst.name + " triangle")
        narrow, narrow_val = None, -np.inf
        with trace.span("narrow.flip"):
            for r in range(20):
                gvec = np.random.default_rng(derive(narrow_seed, 1, r)).standard_normal(tri.dim)
                flipped, _ = pc.flip_step(g, round_by_direction(tri, gvec), tri, gvec, band)
                val = pc.cut_value(g, flipped)
                if val > narrow_val:
                    narrow, narrow_val = flipped, val
        with trace.span("pipeline.gw_candidate"):
            sol = _plain_sdp(trace, g, derive(seed, 2))
            gw = _best_hyperplane(trace, g, sol, derive(seed, 3))
        best, tag = None, None
        for cand_tag, cut in (("narrow", narrow), ("gw", gw),
                              ("prediction", pc.CutAssignment(values=y.y.copy()))):
            if best is None or pc.cut_value(g, cut) > pc.cut_value(g, best):
                best, tag = cut, cand_tag
        return {"solve_noisy": best, "tag": tag}

    def check(self, ck, instances, outputs):
        _check_oracle(ck, instances)
        return [_check_cut(ck, inst, "solve_noisy", out["solve_noisy"])
                for inst, out in zip(instances, outputs)]


class PartialSweep(_Workload):
    """solve_partial_gw and solve_partial_rt (default tau grid) with partial labels.

    Many small pinned SDP solves with a Lagrange-multiplier bisection per
    tau point. A low reveal rate and a weak planted contrast keep the
    ratio off 1. Each graph reveals exactly round(reveal * n) vertices, so
    the pinned share, which sets how many tau points are feasible, does
    not vary from seed to seed.
    """

    name = "partial_sweep"
    salt = 4
    sizes = (30, 34, 38, 42, 46, 50) * 2
    q_cross, q_within = 0.35, 0.2
    reveal = 0.15

    def setup(self, seed, trace):
        out = []
        for k, n in enumerate(self.sizes):
            rng = _rng(seed, self.salt, k)
            inst = _graph_instance(trace, f"graph{k}_n{n}", rng, n,
                                   self.q_cross, self.q_within, [seed, k])
            shown = rng.permutation(n) < round(self.reveal * n)
            inst.pred = pc.PartialPrediction(y=np.where(shown, inst.truth, 0.0),
                                             epsilon=self.reveal)
            out.append(inst)
        return out

    def solve(self, inst):
        return {"solve_partial_gw": pc.solve_partial_gw(inst.g, inst.pred, seed=derive(inst.seed, 0)),
                "solve_partial_rt": pc.solve_partial_rt(inst.g, inst.pred, seed=derive(inst.seed, 1))}

    def decompose(self, inst, trace, ck):
        g, y = inst.g, inst.pred
        pins = {int(i): float(y.y[i]) for i in y.revealed_set}

        def align(x):
            # global flip so the pins agree; a direction orthogonal to v_0 needs a fix-up
            if not pins:
                return x
            v, s = next(iter(pins.items()))
            vals = -x.values if x.values[v] != s else x.values
            if any(vals[u] != t for u, t in pins.items()):
                vals = vals.copy()
                for u, t in pins.items():
                    vals[u] = t
            return pc.CutAssignment(values=vals)

        gw_seed = derive(inst.seed, 0)
        trace.count("sdp.calls")
        with trace.span("sdp.fixed_solve"):
            sol = pc.solve_sdp(g, pc.SdpConfig(fixed_labels=pins, seed=derive(gw_seed, 0)))
        _check_sdp(ck, g, sol, inst.name + " fixed")
        gw = _best_hyperplane(trace, g, sol, derive(gw_seed, 1), align)

        rt_seed = derive(inst.seed, 1)
        grid = pc.TauGrid.for_graph(g)
        subset = pc.revealed_edge_set(g, y)
        rt, rt_val = None, -np.inf
        for t_idx, tau in enumerate(grid.values):
            trace.count("sdp.calls")
            trace.count("partial.tau_points")
            with trace.span("sdp.subset_solve"):
                sol = pc.solve_sdp(g, pc.SdpConfig(fixed_labels=pins,
                                                   subset_constraint=(subset, float(tau)),
                                                   seed=derive(rt_seed, 0)))
            if not sol.feasible_at_tau:
                continue
            trace.count("partial.tau_feasible")
            with trace.span("sdp.rt_round"):
                for r in range(GW_ROUNDINGS):
                    x = pc.rt_round(sol, derive(rt_seed, 1, t_idx, r))
                    val = pc.cut_value(g, x)
                    if val > rt_val:
                        rt, rt_val = x, val
        return {"solve_partial_gw": gw, "solve_partial_rt": rt}

    def check(self, ck, instances, outputs):
        ratios = []
        for inst, out in zip(instances, outputs):
            revealed = inst.pred.revealed
            for label in ("solve_partial_gw", "solve_partial_rt"):
                cut = out[label]
                ratios.append(_check_cut(ck, inst, label, cut))
                ck.require(np.array_equal(np.asarray(cut.values)[revealed], inst.pred.y[revealed]),
                           f"{inst.name} {label}: a revealed vertex lost its label")
        return ratios


WORKLOADS = {w.name: w for w in (WideLp(), GwSparse(), NarrowPortfolio(), PartialSweep())}
