"""Brute-force exact optimizers used as ground truth in tests.

Both maximize a quadratic form over {-1,+1}^n with one meet-in-the-middle
search: the variables split into head and tail halves and all
combinations are scored with one matrix product per head block, which
keeps n = 24 under a few seconds without leaving numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .graph import CutAssignment, Graph

MAXCUT_LIMIT = 24
CSP_LIMIT = 22
BLOCK_SCORES = 1 << 20   # about this many (head, tail) scores per block of _max_quadratic


def _sign_table(bits: int) -> np.ndarray:
    """All 2^bits sign rows; bit b of the row index drives column b."""
    if bits == 0:
        return np.ones((1, 0))
    codes = np.arange(2 ** bits, dtype=np.int64)
    cols = [(codes >> b) & 1 for b in range(bits)]
    return 1.0 - 2.0 * np.stack(cols, axis=1).astype(np.float64)


def _max_quadratic(lin, Q, pin_first=False):
    """(max of <lin, x> + <x, Q x> over x in {-1,+1}^n, one maximizer).

    The head half enumerates 2^h sign rows (x_0 = +1 when pin_first), the
    tail half 2^t; each block of about BLOCK_SCORES // 2^t head rows is
    scored against every tail row with one matrix product. Ties keep the
    first maximizer in enumeration order.
    """
    n = len(lin)
    h = (n + 1) // 2
    t = n - h
    H = _sign_table(h)
    if pin_first:
        H = np.ascontiguousarray(H[::2])    # the rows with x_0 = +1, in order
    T = _sign_table(t)
    sh = np.einsum("ri,ij,rj->r", H, Q[:h, :h], H) + H @ lin[:h]
    st = np.einsum("ri,ij,rj->r", T, Q[h:, h:], T) + T @ lin[h:]
    cross = H @ (Q[:h, h:] + Q[h:, :h].T)
    best_s = -np.inf
    best = None
    chunk = max(1, BLOCK_SCORES // T.shape[0])
    for r0 in range(0, H.shape[0], chunk):
        r1 = min(r0 + chunk, H.shape[0])
        total = sh[r0:r1, None] + st[None, :] + cross[r0:r1] @ T.T
        flat = int(np.argmax(total))
        rr, tt = divmod(flat, T.shape[0])
        if total[rr, tt] > best_s:
            best_s = float(total[rr, tt])
            best = np.concatenate([H[r0 + rr], T[tt]])
    return best_s, best


def exact_maxcut(g: Graph):
    """(optimal cut value, one optimal assignment) by exhaustive search.

    The cut is (W - <x, Ax>) / 4; x_0 = +1 by the global flip symmetry, so
    2^(n-1) candidates.
    """
    n = g.n
    if n > MAXCUT_LIMIT:
        raise ParameterError(f"exact_maxcut enumerates up to n={MAXCUT_LIMIT}, got {n}")
    best, x = _max_quadratic(np.zeros(n), -g.csr.toarray(), pin_first=True)
    return 0.25 * (g.total_weight + best), CutAssignment(values=x)


def exact_csp(inst):
    """(optimal normalized value, one optimal assignment) by exhaustive search."""
    n = inst.n
    if n > CSP_LIMIT:
        raise ParameterError(f"exact_csp enumerates up to n={CSP_LIMIT}, got {n}")
    const, lin, quad = inst.polynomial()
    best, x = _max_quadratic(lin, quad)
    opt = (const + best) / inst.total_weight if inst.total_weight > 0 else 0.0
    return opt, CutAssignment(values=x)
