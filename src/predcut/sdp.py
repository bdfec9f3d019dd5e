"""Low-rank MaxCut semidefinite solver and rounding schemes.

The relaxation max sum_{i<j} w_ij (1 - <v_i, v_j>)/2 over unit vectors is
optimized on a rank-k factorization with k = min(ceil(sqrt(2n)) + 1,
MAX_RANK), by block-coordinate ascent (the Mixing method): with all other
rows fixed the optimal v_i is -u/||u|| for u = sum_j w_ij v_j. The
weights are the graph's cached symmetric CSR matrix (Graph.csr), and the
free vertices are coloured greedily in index order; each colour class is an independent set, so its rows are updated
together from one sparse product and the update stays exact. A sweep
costs O(nnz * k) and reads its objective gain from its own updates, with
no full product. The products call scipy's csr_matvecs kernel directly,
the kernel B @ V runs, since on small graphs the sparse operator's
dispatch costs more than the product.

Up to n = 200, k is ceil(sqrt(2n)) + 1, past the Burer-Monteiro rank
threshold k(k + 1)/2 > n, from which the factorized problem has benign
landscapes for generic costs (Boumal, Voroninski and Bandeira, 2016).
Above n = 200 the rank stays at MAX_RANK = 21, which is below that
threshold from n = 231 on. There a local maximum is only known to reach a
(1 - 1/(k - 1)) share of the optimum (Mei, Misiakiewicz, Montanari and
Oliveira, 2017), so the gap is measured instead: sdp_upper_bound certifies
an upper bound on the relaxation, and on MaxCut itself, from any
solution's vectors. Above n = 200 the cap shortens every sweep, at about
the same sweep count.

Three optional constraint families. Fixed labels and a subset constraint
combine; the triangle inequalities take neither:
  * fixed labels pin v_i = +-v_0 structurally (v_0 = e_1, never updated),
  * a lower bound tau on the weight-contribution of an edge subset,
    enforced by a Lagrange multiplier added to those edges: a ladder of
    multipliers 0, 1, 2, 4, ..., 2^20, then bisection below the first rung
    that meets tau. The ladder does not depend on tau until a rung meets
    it, so SubsetLadder solves each rung once and serves every tau of a
    sweep from the same rungs, with the output of a solve per tau; the
    class-ordered rows are built once per ladder and each rung only
    rewrites their data,
  * the odd-cycle triangle inequalities
        s (<v_j, v_k> + <v_i, v_k>) <= 1 + <v_i, v_j>,  s in {-1, +1},
    over distinct triples, enforced by a squared-hinge penalty whose
    weight doubles until the worst violation is at most 1e-3. The penalty
    works on the dense O(n^3) triangle family, so it is refused above
    TRIANGLE_LIMIT vertices. One penalty run starts from a perturbed
    embedding of a floor cut, the best of 20 one-opt hyperplane roundings
    of the plain solution, and the result never falls below that cut.
    The floor cut's room is (B - cut) / max(W, 1), B the Poljak-Rendl
    bound (sdp_upper_bound's arithmetic, at the plain solution). When the
    room is at most CERTIFIED_ROOM, or when the weights are integers and
    the cut reaches floor(B + 1e-9), which makes it a maximum cut, the
    stage returns the cut's embedding with no penalty round, reported
    `certified`. Otherwise the first penalty weight is max(1, W/n) times
    max(1, room / TRIANGLE_TOL) (see _triangle_solve). Each penalty round
    is one L-BFGS-B minimization (scipy.optimize) of the negated penalized
    objective over every row, written as V_i = U_i / ||U_i||. One kernel
    returns the penalty, the worst violation and the gradient from a
    single pass over each chunk of about TRIANGLE_CHUNK hinge elements. It
    takes one hinge per ordered triple (the two signs are never both
    violated) and a gradient that uses the (i, j) mirror symmetry of each
    triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse._sparsetools import csr_matvecs
from scipy.sparse.linalg import eigsh
from scipy.special import ndtri

from .errors import DimensionError, ParameterError, ParseError
from .graph import CutAssignment, Graph, _records, _typed, best_cut, cut_value
from .seeds import derive

TRIANGLE_LIMIT = 200
TRIANGLE_TOL = 1e-3
CERTIFIED_ROOM = 1e-6        # a floor cut within this share of max(W, 1) of the bound is returned
SUBSET_TOL_FRAC = 1e-4
TRIANGLE_CHUNK = 1 << 18     # hinge elements per pass of _triangle_terms
ZERO_PERP_TOL = 1e-9
MAX_RANK = 21                # the factorization's rank cap, ceil(sqrt(2n)) + 1 at n = 200
DENSE_EIG_LIMIT = 2000       # sdp_upper_bound's largest n for a dense eigvalsh
SWEEP_TOL = 1e-8             # an ascent stops on sweep gains below this times max(W, 1)
MAX_SWEEPS = 1500            # sweep cap of one coordinate-ascent run
# L-BFGS-B stopping rules of one triangle penalty round, on the objective divided by max(W, 1)
_PENALTY_OPTIONS = {"maxiter": 60, "gtol": 1e-6, "ftol": 1e-7}


@dataclass(frozen=True)
class SdpConfig:
    """Options for solve_sdp; defaults give the plain GW relaxation."""

    fixed_labels: dict = field(default_factory=dict)   # vertex -> +-1
    subset_constraint: tuple = None                     # (edge index array, tau)
    triangle: bool = False      # odd-cycle inequalities; takes no subset_constraint and no pins
    seed: int = 0               # deterministic initialization


@dataclass(frozen=True)
class SdpSolution:
    """Unit vectors v_0, v_1, ..., v_n (rows) with Gram access."""

    vectors: np.ndarray          # (n + 1, dim); row 0 is v_0
    objective_value: float
    feasibility_report: dict
    feasible_at_tau: bool = True

    @property
    def dim(self):
        return self.vectors.shape[1]

    @property
    def n(self):
        return self.vectors.shape[0] - 1

    @property
    def v0(self):
        return self.vectors[0]

    @property
    def vertex_vectors(self):
        return self.vectors[1:]

    def mu(self):
        """Inner products <v_0, v_i> for the n vertices."""
        return self.vertex_vectors @ self.v0

    @cached_property
    def _rt_parts(self):
        """rt_round's draw-independent part, computed on the first draw.

        Returns (wbar, thresholds): the unit rows w_i/||w_i|| of the parts of
        v_i perpendicular to v_0 (0 where ||w_i|| <= ZERO_PERP_TOL), and
        Phi^{-1}(mu_i/2 + 1/2). Later draws reuse it, so the vectors must not
        change after the first draw.
        """
        v0, Vv = self.v0, self.vertex_vectors
        mu = self.mu()
        W_perp = Vv - mu[:, None] * v0[None, :]
        norms = _row_norms(W_perp)
        safe = norms > ZERO_PERP_TOL
        wbar = np.zeros_like(W_perp)
        wbar[safe] = W_perp[safe] / norms[safe, None]
        return wbar, _rt_thresholds(mu)


def _edge_contribution(g: Graph, V, edge_idx=None):
    """sum over edges of w (1 - <v_i, v_j>)/2 from vertex rows V."""
    i, j, w = g.edge_i, g.edge_j, g.edge_w
    if edge_idx is not None:
        i, j, w = i[edge_idx], j[edge_idx], w[edge_idx]
    if len(w) == 0:
        return 0.0
    dots = np.einsum("ek,ek->e", V[i], V[j])
    return float(np.sum(w * (1.0 - dots)) / 2.0)


def _colour_classes(M, free):
    """Greedy colouring of the free vertices of M in index order.

    Each class is an independent set of M's sparsity pattern; pinned
    vertices are never updated, so they constrain no colour.
    """
    indptr, indices = M.indptr.tolist(), M.indices.tolist()
    colour = [-1] * M.shape[0]
    classes = []
    for i in free.tolist():
        taken = {colour[j] for j in indices[indptr[i]:indptr[i + 1]]}
        c = 0
        while c in taken:
            c += 1
        colour[i] = c
        if c == len(classes):
            classes.append([])
        classes[c].append(i)
    return [np.array(c, dtype=np.intp) for c in classes]


def _subset_weights(g: Graph, subset):
    """The subset's edge weights on g.csr's stored entries, both mirrors of each edge, 0 elsewhere.

    A repeated edge index adds its weight once per repeat, as scipy's sum of
    duplicate entries does.
    """
    A, n = g.csr, g.n
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(A.indptr)) * n + A.indices
    i, j, w = g.edge_i[subset], g.edge_j[subset], g.edge_w[subset]
    s = np.zeros(A.nnz)
    np.add.at(s, np.searchsorted(keys, np.concatenate([i * n + j, j * n + i])),
              np.concatenate([w, w]))
    return s


class _ClassRows:
    """The colour-class rows of the ascent's weights M = A + l * A_sub as one CSR triple; no full M.

    A sweep works on V in the run's layout, perm: the free rows class by
    class, then the pinned rows. indptr, indices and data hold the free
    rows of M in that order, taken with one row slice of A, so they keep
    A's sparsity pattern and stored order, with their column indices
    remapped to the layout. Class c is rows r0 to r1, one slice, kept as
    blocks[c] = (r0, r1, indptr[r0:r1 + 1]): its product with V[perm] is
    M[c] @ V bit for bit. set_multiplier(l) rewrites data in place with
    a + l * s, s being A_sub's weight on A's entries (_subset_weights):
    entry by entry the value scipy's A + l * A_sub holds. That sum drops
    stored zeros and these keep them, but a stored zero adds a +-0 product
    to a sum that starts at +0, leaving the sum's bits as they are.
    """

    def __init__(self, A, classes, s=None):
        self.classes = classes
        n = A.shape[0]
        order = np.concatenate(classes) if classes else np.empty(0, dtype=np.intp)
        self.free = len(order)
        self.perm = np.concatenate([order, np.setdiff1d(np.arange(n), order)])
        cuts = np.cumsum([0] + [len(c) for c in classes]).tolist()
        # positions in A.data of the free rows' entries, class by class
        P = sp.csr_matrix((np.arange(A.nnz), A.indices, A.indptr), shape=A.shape)[order]
        layout = np.empty(n, dtype=P.indices.dtype)
        layout[self.perm] = np.arange(n)
        self.indptr, self.indices = P.indptr, layout[P.indices]
        self.blocks = [(r0, r1, self.indptr[r0:r1 + 1]) for r0, r1 in zip(cuts[:-1], cuts[1:])]
        self.a = A.data[P.data]
        self.s = None if s is None else s[P.data]
        self.data = self.a.copy()

    def set_multiplier(self, l):
        np.add(self.a, l * self.s, out=self.data)

    def sweep(self, V):
        """One pass over the colour classes, in place; returns the gain of -<V, M V>/2.

        V holds the vertex rows in the layout perm. Row i's term -<v_i, u_i>,
        u_i = (M V)_i, becomes ||u_i|| under the update v_i = -u_i/||u_i||,
        and the classes are independent sets, so the pass gains
        sum_i ||u_i|| (1 - <v_i new, v_i old>). A row whose u has norm
        <= 1e-300 (no weighted neighbour) keeps its value. The class
        products go into one buffer, zeroed once per pass.
        """
        free = slice(0, self.free)
        old = V[free].copy()
        U = np.zeros((self.free, V.shape[1]))
        norms = np.empty(self.free)
        indices, data = self.indices, self.data
        for r0, r1, indptr in self.blocks:
            U_c = _csr_product(indptr, indices, data, V, U[r0:r1])
            norms[r0:r1] = nrm = _row_norms(U_c)
            if nrm[nrm.argmin()] > 1e-300:     # argmin finds a NaN as well
                U_c /= nrm[:, None]
                np.negative(U_c, out=V[r0:r1])    # -(u/n), the bits of (-u)/n
            else:
                ok = nrm > 1e-300
                V[r0:r1][ok] = -U_c[ok] / nrm[ok, None]
        return float(norms @ (1.0 - np.einsum("ik,ik->i", V[free], old)))


def _row_norms(U, keepdims=False):
    """np.linalg.norm(U, axis=1, keepdims=keepdims) for real U, bit for bit.

    It is the expression norm evaluates for a real matrix along one axis,
    without norm's argument handling.
    """
    return np.sqrt(np.add.reduce(U * U, axis=1, keepdims=keepdims))


def _csr_product(indptr, indices, data, V, out):
    """The CSR matrix (indptr, indices, data) times the dense V into out, bit for bit as scipy's B @ V.

    csr_matvecs is the kernel B @ V calls for a dense V of two or more
    columns: it adds each row's stored products, in stored order, into a
    zeroed output. Calling it directly skips scipy's operator dispatch,
    which costs more than the product on the ascent's small classes. indptr
    may be a slice of a larger matrix's, its offsets reading that matrix's
    whole indices and data. indptr and indices share one integer type, as
    in a scipy CSR matrix, and V is a float64 array with as many rows as
    the matrix has columns. out is a zeroed C-contiguous float64 array of
    the product's shape, written in place and returned.
    """
    m, k = len(indptr) - 1, V.shape[1]
    csr_matvecs(m, V.shape[0], k, indptr, indices, data, V, out)
    return out


def _coordinate_ascent(rows, V, tol_abs, max_sweeps):
    """Block-coordinate ascent on the factorized relaxation, in place.

    `rows` is the _ClassRows of the (possibly multiplier-adjusted) weight
    matrix over vertices; V holds vertex rows only. V is put in the run's
    layout (rows.perm) once on entry and back once on exit. Each sweep
    updates the colour classes in turn (_ClassRows.sweep) and reports its
    gain from those updates, so no full product is formed. The ascent stops
    after two consecutive sweeps, not counting the first, each gaining less
    than tol_abs. Returns (sweeps run, whether the tolerance was met).
    """
    if not rows.classes:
        return 0, True
    W = V[rows.perm]
    result, quiet = (max_sweeps, False), 0
    for sweep in range(1, max_sweeps + 1):
        # two consecutive low-gain sweeps guard the geometric tail of the gap
        quiet = quiet + 1 if rows.sweep(W) < tol_abs and sweep > 1 else 0
        if quiet >= 2:
            result = sweep, True
            break
    V[rows.perm] = W
    return result


def _triangle_terms(V, chunk_elems=TRIANGLE_CHUNK):
    """The triangle penalty at the rows V as (pen, worst, dG), one pass per chunk of rows.

    pen is the sum of squared violations over ordered distinct triples
    (i, j, k), with the caller applying the penalty weight; worst is the
    largest violation, and dG is dPenalty/dG with G[a, b] and G[b, a] taken
    as separate variables, for G = V V^T. For a triple with D = G[i,j] and
    S = G[j,k] + G[i,k] the two signs' hinges S - D - 1 and -S - D - 1 are
    never both positive, since D >= -1, so T = max(|S| - D - 1, 0) carries
    the active sign's violation and sign(S) says which sign it is. Rows i
    go in passes of about chunk_elems hinge elements, and each pass zeroes
    its planes i = j, i = k and j = k, which hold no triple. The d/dG[j,k]
    and d/dG[i,k] sums of 2 sign(S) T are equal, S and T being symmetric in
    (i, j), so one reduction serves both.
    """
    n = V.shape[0]
    G = V @ V.T
    pen, worst = 0.0, 0.0
    dG = np.zeros((n, n))
    rows = max(1, chunk_elems // max(n * n, 1))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        Gi = G[i0:i1]
        S = G + Gi[:, None, :]
        T = np.abs(S)
        T -= Gi[:, :, None]
        T -= 1.0
        np.maximum(T, 0.0, out=T)
        a = np.arange(i1 - i0)
        T[a, a + i0, :] = 0.0                       # i = j
        T[a, :, a + i0] = 0.0                       # i = k
        T.reshape(i1 - i0, n * n)[:, ::n + 1] = 0.0  # j = k
        pen += float(np.vdot(T, T))
        worst = max(worst, float(T.max()))
        dG += 4.0 * np.copysign(T, S, out=S).sum(axis=0)   # d/dG[j,k], d/dG[i,k]
        dG[i0:i1] -= 2.0 * T.sum(axis=2)                   # d/dG[i,j]
    return pen, worst, dG


def _one_opt(A, x):
    """Flip single labels while the cut improves (gain of flipping i is x_i s_i)."""
    x = x.copy()
    s = A @ x
    for _ in range(20 * len(x)):
        gains = x * s
        i = int(np.argmax(gains))
        if gains[i] <= 1e-12:
            break
        x[i] = -x[i]
        s += 2.0 * x[i] * A[:, i]
    return x


def _penalty_continuation(A, V, scale, rho):
    """Doubling penalty rounds on V, in place, until the worst violation is at most TRIANGLE_TOL.

    Round r minimizes -(objective - rho_r * penalty) / scale, rho_r = rho *
    2^r for the start weight rho, by L-BFGS-B over every row, each written
    as V_i = U_i / ||U_i|| for an unconstrained U_i (the Burer-Monteiro
    factorization). A round starts where the previous one ended. At least
    one round runs, and at most 50. Returns (worst violation, rounds run).
    """
    k = V.shape[1]
    worst, rounds = np.inf, 0
    while worst > TRIANGLE_TOL and rounds < 50:
        # a copy: the objective writes V
        res = minimize(_negated_penalized, V.flatten(), args=(A, V, rho, scale),
                       jac=True, method="L-BFGS-B", options=_PENALTY_OPTIONS)
        U = res.x.reshape(-1, k)
        V[:] = U / _row_norms(U, keepdims=True)
        worst = _triangle_terms(V)[1]
        rho *= 2.0
        rounds += 1
    return worst, rounds


def _negated_penalized(x, A, V, rho, scale):
    """-(objective - rho * penalty) / scale and its gradient in x, the rows' U.

    Writes the rows V_i = U_i / ||U_i|| into V. The objective's affine part
    is dropped.
    """
    U = x.reshape(V.shape)
    nrm = _row_norms(U, keepdims=True)
    V[:] = U / nrm
    pen, _, dG = _triangle_terms(V)
    AV = A @ V
    dV = AV + rho * ((dG + dG.T) @ V)
    dV -= np.einsum("ik,ik->i", dV, V)[:, None] * V    # through V_i = U_i / ||U_i||
    dV /= nrm
    return (0.5 * float(np.vdot(V, AV)) + rho * pen) / scale, dV.ravel() / scale


def solve_sdp(g: Graph, cfg: SdpConfig = None) -> SdpSolution:
    """Solve the (optionally constrained) MaxCut relaxation for g.

    The only reader of SdpConfig. A triangle config goes to the triangle
    stage and takes no subset constraint and no pins (ParameterError); any
    other config is one SubsetLadder solve.
    """
    cfg = cfg or SdpConfig()
    subset, tau = cfg.subset_constraint or (None, 0.0)
    if cfg.triangle:
        if subset is not None or cfg.fixed_labels:
            raise ParameterError("the triangle SDP takes no subset constraint and no pins")
        return _triangle_solve(g, cfg.seed)
    return SubsetLadder(g, subset, cfg.fixed_labels, cfg.seed).solve(tau)


def _validated_pins(g: Graph, labels):
    """The fixed labels {vertex: +-1} as {vertex: +-1.0}."""
    pins = {}
    for v, s in labels.items():
        v = int(v)
        if not (0 <= v < g.n):
            raise ParameterError(f"pinned vertex {v} out of range")
        if s not in (1, -1, 1.0, -1.0):
            raise ParameterError(f"pin for vertex {v} must be +-1, got {s}")
        if v in pins and pins[v] != float(s):
            raise ParameterError(f"vertex {v} pinned to both signs")
        pins[v] = float(s)
    return pins


def _solution(g: Graph, v0, V, runs, pins, extra, feasible_at_tau=True) -> SdpSolution:
    """The SdpSolution of vertex rows V, its report from the ascent runs, then `extra`."""
    full = np.vstack([v0, V])
    report = {"unit_norm": float(np.max(np.abs(np.linalg.norm(full, axis=1) - 1.0))),
              "sweeps": sum(r[0] for r in runs), "converged": all(r[1] for r in runs)}
    if pins:
        report["pins"] = float(max(np.linalg.norm(V[v] - s * v0) for v, s in pins.items()))
    report.update(extra)
    return SdpSolution(vectors=full, objective_value=_edge_contribution(g, V),
                       feasibility_report=report, feasible_at_tau=feasible_at_tau)


def _triangle_solve(g: Graph, seed) -> SdpSolution:
    """solve_sdp with the triangle inequalities: one penalty run from a floor cut.

    Any integral cut embeds as an exactly feasible point of this relaxation,
    so the stage starts near a good cut: the best of 20 one-opt hyperplane
    roundings (streams derive(seed, 90, r)) of the plain solution, rung 0 of
    its own ladder. The result never falls below that cut: the floor cut's
    own embedding is returned when the penalty run ends under it or misses
    the tolerance.

    B, the Poljak-Rendl bound at rung 0's rows, bounds every cut, so the
    floor cut's room = (B - floor cut) / max(W, 1) bounds its shortfall
    (the pruning rule of Rendl, Rinaldi and Wiegele, 2010). Its embedding
    is returned with no penalty round and `certified` True in two cases.
    With any weights, when room <= CERTIFIED_ROOM: the cut is then within
    1e-6 max(W, 1) of OPT, the tolerance acceptance criterion 1 allows.
    With integer weights summing to at most 2^53, every cut value is an
    exact integer, so a cut that reaches goal = floor(B + 1e-9) is a
    maximum cut. The roundings then stop at the first that reaches goal,
    which no cut exceeds, so it is the cut best_cut would pick from all 20.

    Otherwise the first penalty weight is max(1, W/n) * max(1, room /
    TRIANGLE_TOL), which is max(1, W/n) when room <= TRIANGLE_TOL. The
    floor cut's embedding is a stationary point of the penalized objective
    at every weight: the objective's gain away from it is second order in
    the displacement and the tight triangles' squared hinge fourth order.
    A round at a low weight therefore climbs out to a violation of about
    room / rho, which the doublings then have to walk back; scaled by the
    room, the first round ends near the tolerance.
    """
    n = g.n
    if n > TRIANGLE_LIMIT:
        raise ParameterError(f"the triangle SDP is limited to n <= {TRIANGLE_LIMIT}, got n={n}")
    plain = SubsetLadder(g, seed=seed)
    v0, k = plain.v0, plain.k
    # the bound and the penalty rounds work on dense weights
    D = g.csr.toarray()
    P, _, run = plain._rung(0)
    w = g.edge_w
    integral = g.total_weight <= 2.0 ** 53 and bool(np.all(w == np.floor(w)))
    bound = _poljak_rendl(g, P, D)
    goal = math.floor(bound + 1e-9) if integral else math.inf

    def roundings():
        for r in range(20):
            proj = P @ np.random.default_rng(derive(seed, 90, r)).standard_normal(k)
            cut = CutAssignment(values=_one_opt(D, np.where(proj > 0, 1.0, -1.0)))
            yield cut
            if integral and cut_value(g, cut) >= goal:
                return

    floor_cut = best_cut(g, roundings())
    floor_val = cut_value(g, floor_cut)
    room = (bound - floor_val) / plain.scale
    # the floor cut's embedding: integral, so it violates no triangle inequality
    V_f = floor_cut.values[:, None] * v0[None, :]
    if floor_val >= goal or room <= CERTIFIED_ROOM:
        return _solution(g, v0, V_f, [run], {}, {"triangle": 0.0, "penalty_rounds": 0,
                                                 "fallback": False, "certified": True})
    # a barely-perturbed embedding of the floor cut starts near-feasible at
    # the floor objective
    blend = 0.02
    noise = np.random.default_rng(derive(seed, 91)).standard_normal((n, k))
    V = (1 - blend) * V_f + blend * noise
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    rho = max(1.0, plain.scale / n) * max(1.0, room / TRIANGLE_TOL)
    worst, rounds = _penalty_continuation(D, V, plain.scale, rho)
    obj = _edge_contribution(g, V)
    fallback = worst > TRIANGLE_TOL or (obj < floor_val and _edge_contribution(g, V_f) >= obj)
    if fallback:
        V, worst = V_f, 0.0
    return _solution(g, v0, V, [run], {}, {"triangle": float(worst), "penalty_rounds": rounds,
                                           "fallback": fallback, "certified": False})


# multipliers of the ladder's rungs: l = 0, 1, 2, 4, ..., 2^20
_MULTIPLIERS = (0.0,) + tuple(2.0 ** e for e in range(21))


class SubsetLadder:
    """The multiplier ladder of one graph, subset, pin set and seed, climbed once for every tau.

    A subset constraint sum_{e in subset} w_e (1 - <v_i, v_j>)/2 >= tau is
    enforced by running the ascent on A + l * A_sub at the rungs l = 0, 1,
    2, 4, ..., 2^20, each rung starting from the V the previous one ended
    on. The ladder starts from the seeded V, and its path does not depend
    on tau until a rung meets tau, so every tau's ladder is a prefix of the
    longest one. Each rung is therefore solved once, when a tau first needs
    it, and its V and subset value are kept. solve(tau) reads the rungs up
    to the first that meets tau and bisects the multiplier from a copy of
    that rung's V; a tau that no rung meets gets the earliest best rung and
    the top rung's multiplier. A tau no rung meets is unmet for every
    larger tau as well.

    pins maps vertex -> +-1 (SdpConfig.fixed_labels). With no subset or an
    empty one, the ladder is rung 0 alone, the plain solve with the pins
    and seed, since no multiplier moves anything. With a subset, solve(tau)
    equals solve_sdp with subset_constraint=(subset, tau), byte for byte,
    in any order of taus.
    """

    def __init__(self, g: Graph, subset=None, pins=None, seed=0):
        n = g.n
        self.g = g
        self.pins = pins = _validated_pins(g, pins or {})
        self.subset = None if subset is None else np.asarray(subset, dtype=np.intp)
        self.scale = max(g.total_weight, 1.0)

        self.k = k = min(math.ceil(math.sqrt(2 * n)) + 1, MAX_RANK)
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((n, k))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        self.v0 = np.zeros(k)
        self.v0[0] = 1.0
        for v, s in pins.items():
            V[v] = s * self.v0
        self.V = V                  # where the next rung starts

        free_mask = np.ones(n, dtype=bool)
        free_mask[list(pins)] = False
        self.top = 0 if self.subset is None or len(self.subset) == 0 else len(_MULTIPLIERS) - 1
        s = _subset_weights(g, self.subset) if self.top else None
        self.rows = _ClassRows(g.csr, _colour_classes(g.csr, np.flatnonzero(free_mask)), s)
        self.rungs = []             # (V after the rung, subset value, (sweeps, converged))

    def _run(self, l, V):
        """One coordinate-ascent run at multiplier l, in place; returns (sweeps, converged)."""
        if self.top:
            self.rows.set_multiplier(l)
        return _coordinate_ascent(self.rows, V, SWEEP_TOL * self.scale, MAX_SWEEPS)

    def _value(self, V):
        return _edge_contribution(self.g, V, self.subset) if self.top else 0.0

    def _rung(self, m):
        """Rung m as (V, subset value, (sweeps, converged)), solved on first need."""
        while len(self.rungs) <= m:
            run = self._run(_MULTIPLIERS[len(self.rungs)], self.V)
            self.rungs.append((self.V.copy(), self._value(self.V), run))
        return self.rungs[m]

    def solve(self, tau) -> SdpSolution:
        """solve_sdp's solution with subset_constraint=(subset, tau), from the shared rungs.

        feasible_at_tau says whether the subset's contribution reached tau
        within 1e-4 * max(W, 1).
        """
        tau = float(tau)
        if not tau >= 0:
            raise ParameterError(f"tau must be >= 0, got {tau}")
        if tau > self.g.total_weight:
            raise ParameterError(f"tau={tau} exceeds total weight {self.g.total_weight}: "
                                 "trivially infeasible")
        target = tau - SUBSET_TOL_FRAC * self.scale
        m = 0
        while self._rung(m)[1] < target and m < self.top:
            m += 1
        read = self.rungs[:m + 1]
        runs = [r[2] for r in read]
        V, value, _ = read[-1]
        feasible = value >= target
        if not feasible:
            V = max(read, key=lambda r: r[1])[0]       # the earliest best rung
            lam = _MULTIPLIERS[m]
        elif m == 0:
            lam = 0.0
        else:
            # shrink toward the smallest multiplier that still meets tau
            lo, hi = _MULTIPLIERS[m - 1], _MULTIPLIERS[m]
            lam, W = hi, V.copy()
            for _ in range(30):
                if hi - lo <= 1e-3 * max(hi, 1.0):
                    break
                mid = 0.5 * (lo + hi)
                runs.append(self._run(mid, W))
                if self._value(W) >= target:
                    hi, lam, V = mid, mid, W.copy()
                else:
                    lo = mid
        extra = {}
        if self.subset is not None:
            extra = {"subset": float(max(0.0, tau - _edge_contribution(self.g, V, self.subset))),
                     "rungs": m + 1, "multiplier": lam}
        return _solution(self.g, self.v0, V, runs, self.pins, extra, feasible)


def round_by_direction(sol: SdpSolution, gvec) -> CutAssignment:
    """Sign rounding against an explicit direction: x_i = 1 iff <v_i, g> > 0."""
    proj = sol.vertex_vectors @ np.asarray(gvec, dtype=np.float64)
    return CutAssignment(values=np.where(proj > 0, 1.0, -1.0))


def hyperplane_round(sol: SdpSolution, seed) -> CutAssignment:
    """Goemans-Williamson rounding with a seeded Gaussian direction."""
    rng = np.random.default_rng(seed)
    return round_by_direction(sol, rng.standard_normal(sol.dim))


def _align_to_pins(x: CutAssignment, pins: dict) -> CutAssignment:
    """Global flip (free for the cut value) so pinned vertices match.

    All pins sit at +-v_0, so one flip aligns them all; only a rounding
    direction exactly orthogonal to v_0 (measure zero) needs the explicit
    fix-up at the end.
    """
    if not pins:
        return x
    v, s = next(iter(pins.items()))
    vals = -x.values if x.values[v] != s else x.values
    if any(vals[u] != t for u, t in pins.items()):
        vals = vals.copy()
        for u, t in pins.items():
            vals[u] = t
    return CutAssignment(values=vals)


def solve_gw(g: Graph, sdp_seed, round_seed, roundings: int, pins=None) -> CutAssignment:
    """Goemans-Williamson: solve_sdp, then the best of `roundings` hyperplane roundings.

    Rounding r uses derive(round_seed, r); with pins, the SDP fixes those
    labels and every rounding is aligned to them.
    """
    if roundings < 1:
        raise ParameterError(f"roundings must be >= 1, got {roundings}")
    pins = pins or {}
    sol = solve_sdp(g, SdpConfig(fixed_labels=pins, seed=sdp_seed))
    return best_cut(g, (_align_to_pins(hyperplane_round(sol, derive(round_seed, r)), pins)
                        for r in range(roundings)))


def rt_round(sol: SdpSolution, seed) -> CutAssignment:
    """Marginal-preserving threshold rounding.

    Decompose v_i = mu_i v_0 + w_i with w_i perpendicular to v_0, draw a
    standard Gaussian g orthogonal to v_0, and set x_i = +1 iff
    <g, w_i/||w_i||> <= Phi^{-1}(mu_i/2 + 1/2). Then Pr[x_i = +1] is
    exactly mu_i/2 + 1/2; vertices pinned to +-v_0 come out deterministic.
    The decomposition and the thresholds are computed once per solution
    (SdpSolution._rt_parts); a draw only samples g and compares.
    """
    wbar, thresholds = sol._rt_parts
    v0 = sol.v0
    gvec = np.random.default_rng(seed).standard_normal(sol.dim)
    gvec = gvec - float(gvec @ v0) * v0
    return CutAssignment(values=np.where(wbar @ gvec <= thresholds, 1.0, -1.0))


def _rt_thresholds(mu):
    """Phi^{-1}(mu/2 + 1/2) for mu clipped to [-1, 1]; -inf at -1 and +inf at 1.

    ndtri is the function scipy.stats.norm.ppf evaluates, without its
    argument checks and without importing scipy.stats.
    """
    return ndtri(np.clip(mu, -1.0, 1.0) / 2.0 + 0.5)


def sdp_objective(g: Graph, sol: SdpSolution) -> float:
    """Recompute the objective from the Gram inner products."""
    if sol.vectors.shape[0] != g.n + 1:
        raise DimensionError("solution size does not match the graph")
    return _edge_contribution(g, sol.vertex_vectors)


def sdp_upper_bound(g: Graph, sol: SdpSolution) -> float:
    """A certified upper bound on the plain relaxation of g, and so on its maximum cut.

    The relaxation is W/4 + max <C, X> over PSD X with unit diagonal, for
    C = -A/4 and W = g.total_weight, the degree sum. For any vector u,
    <C, X> = sum(u) + <C - Diag(u), X> <= sum(u) + n * lambda_max(C - Diag(u)),
    since X is PSD with trace n (Poljak and Rendl, 1995). The bound takes
    u_i = (C V V^T)_ii from the solution's vertex rows V, the dual
    certificate of the Mixing method; it holds for any u, so pinned, subset
    and triangle solutions give valid, only looser, bounds on the
    unconstrained relaxation. The bound is computed on each call; the
    triangle stage shares its arithmetic (_poljak_rendl) for its exit.

    lambda_max of M = C - Diag(u) comes from a dense eigvalsh up to n =
    DENSE_EIG_LIMIT, raised by 8 n eps ||M||_F to cover LAPACK's backward
    error. Above that n it is the Ritz value theta of a Lanczos run (scipy's
    eigsh, seeded start) plus the residual norm ||M x - theta x|| of its
    unit Ritz vector x: some eigenvalue lies within that distance of theta,
    so the sum bounds lambda_max when Lanczos has found the top of the
    spectrum.
    """
    if sol.vectors.shape[0] != g.n + 1:
        raise DimensionError("solution size does not match the graph")
    D = g.csr.toarray() if g.n <= DENSE_EIG_LIMIT else None
    return _poljak_rendl(g, sol.vertex_vectors, D)


def _poljak_rendl(g: Graph, V, D) -> float:
    """sdp_upper_bound's W/4 + sum(u) + n * lambda_max(C - Diag(u)) at the vertex rows V.

    D is g's dense adjacency, which is read only: with it, lambda_max is
    the dense eigvalsh plus 8 n eps ||M||_F, and with D None it is the
    Lanczos Ritz value plus its residual norm.
    """
    n = g.n
    u = -0.25 * np.einsum("ik,ik->i", g.csr @ V, V)
    if D is not None:
        # +0.0 where M is zero, as in a sparse difference: LAPACK's reflectors
        # take the sign of a zero, so a -0.0 would move the eigenvalue's bits
        M = 0.0 - 0.25 * D
        M.flat[::n + 1] -= u
        lam = float(np.linalg.eigvalsh(M)[-1])
        lam += 8.0 * n * np.finfo(float).eps * float(np.linalg.norm(M))
    else:
        M = sp.diags(-u) - 0.25 * g.csr
        x0 = np.random.default_rng(0).standard_normal(n)
        _, X = eigsh(M, k=1, which="LA", tol=1e-10, v0=x0)
        x = X[:, 0] / np.linalg.norm(X[:, 0])
        Mx = M @ x
        theta = float(x @ Mx)
        lam = theta + float(np.linalg.norm(Mx - theta * x))
    return 0.25 * g.total_weight + float(u.sum()) + n * lam


def save_solution(sol: SdpSolution) -> str:
    """Flat text dump of k and the (n+1) x k vector table."""
    lines = [f"{sol.dim} {sol.n}"]
    for row in sol.vectors:
        lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def load_solution(text: str) -> SdpSolution:
    """Parse save_solution's format, skipping blank and '#' lines; errors name the file line."""
    (header, head), *lines = _records(text)
    k, n = _typed(head, (int, int), "header 'k n'", header)
    if k < 1 or n < 0:
        raise ParseError(f"header needs k >= 1 and n >= 0, got k={k}, n={n}", line=header)
    if len(lines) != n + 1:
        raise ParseError(f"expected {n + 1} vector rows", line=header)
    rows = []
    for ln, fields in lines:
        try:
            vals = [float(t) for t in fields]
        except ValueError:
            raise ParseError("coordinates must be floats", line=ln)
        if len(vals) != k:
            raise ParseError(f"expected {k} coordinates", line=ln)
        rows.append(vals)
    V = np.asarray(rows)
    report = {"unit_norm": float(np.max(np.abs(np.linalg.norm(V, axis=1) - 1.0)))}
    return SdpSolution(vectors=V, objective_value=float("nan"),
                       feasibility_report=report)
