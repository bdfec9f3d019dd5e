"""Inputs and reference values computed apart from predcut.

Everything here uses numpy alone: the planted generators that make the
benchmark's graphs and CSPs, the edge-list cut sum, the truth-table CSP
value, and brute-force optima for the smallest instances. The correctness
checks compare predcut's outputs against these, never against a stored
copy of earlier outputs.
"""

import numpy as np

def _table_index(z1, z2):
    """Truth-table row of (z1, z2) in the bit order (+1,+1) (+1,-1) (-1,+1) (-1,-1)."""
    return 2 * (z1 < 0) + (z2 < 0)


def planted_graph(rng, n, q_cross, q_within):
    """Balanced planted partition with unit weights.

    Returns (truth, i, j, w): each cross pair is an edge with probability
    q_cross and each same-side pair with probability q_within; i < j and
    the edges come in row-major order.
    """
    truth = rng.permutation(np.repeat([1.0, -1.0], [n - n // 2, n // 2]))
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(truth[iu] != truth[ju], q_cross, q_within)
    keep = rng.random(iu.size) < prob
    i, j = iu[keep], ju[keep]
    return truth, i, j, np.ones(i.size)


def planted_csp(rng, n, m, bits, keep_unsat):
    """Random signed 2-CSP around a hidden assignment.

    Scopes and negations are uniform; a constraint the hidden assignment
    violates is kept with probability keep_unsat, one it satisfies always.
    Returns (truth, constraints) with constraints as (w, (c1, c2), (i, j)).
    """
    table = np.array([int(b) for b in bits])
    truth = rng.choice([-1.0, 1.0], size=n)
    i = rng.integers(0, n, size=m)
    j = rng.integers(0, n - 1, size=m)
    j = j + (j >= i)
    c = rng.choice([-1, 1], size=(m, 2))
    sat = table[_table_index(c[:, 0] * truth[i], c[:, 1] * truth[j])] == 1
    keep = sat | (rng.random(m) < keep_unsat)
    return truth, [(1.0, (int(a), int(b)), (int(p), int(q)))
                   for a, b, p, q in zip(c[keep, 0], c[keep, 1], i[keep], j[keep])]


def edge_cut(i, j, w, x):
    """Weight of the edges (i, j, w) whose endpoints x puts on opposite sides."""
    return float(w[x[i] != x[j]].sum())


def table_value(constraints, bits, x):
    """Satisfied share of the constraint weight, read off the truth table."""
    table = [int(b) for b in bits]
    total = sat = 0.0
    for w, (c1, c2), (i, j) in constraints:
        total += w
        sat += w * table[_table_index(c1 * x[i], c2 * x[j])]
    return sat / total


def _assignments(n, chunk=4096):
    """All 2^(n-1) sign vectors with x_0 = +1, in blocks of rows.

    Blocks keep the enumeration's memory small, so it does not set the
    process's peak resident memory.
    """
    for start in range(0, 2 ** (n - 1), chunk):
        codes = np.arange(start, min(start + chunk, 2 ** (n - 1)))[:, None]
        X = np.where((codes >> np.arange(n - 1)) & 1, -1.0, 1.0)
        yield np.hstack([np.ones((X.shape[0], 1)), X])


def brute_maxcut(n, i, j, w):
    """Maximum cut by enumerating every assignment."""
    return max(float(((X[:, i] != X[:, j]) @ w).max()) for X in _assignments(n))


def brute_csp(n, constraints, bits):
    """Maximum satisfied share by enumerating every assignment."""
    table = np.array([int(b) for b in bits], dtype=np.float64)
    w = np.array([c[0] for c in constraints])
    c1 = np.array([c[1][0] for c in constraints])
    c2 = np.array([c[1][1] for c in constraints])
    i = np.array([c[2][0] for c in constraints])
    j = np.array([c[2][1] for c in constraints])
    best = 0.0
    for half in _assignments(n):
        for X in (half, -half):
            sat = table[_table_index(c1 * X[:, i], c2 * X[:, j])]
            best = max(best, float((sat @ w).max()))
    return best / w.sum()
