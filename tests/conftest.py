import math

import numpy as np
from hypothesis import settings

from predcut.graph import Graph, gen_erdos_renyi

# every property test runs the same fixed examples, with no deadline and
# no example database; each test sets only its own max_examples
settings.register_profile("predcut", deadline=None, derandomize=True, database=None)
settings.load_profile("predcut")


def random_graph(rng, n=None, law=None):
    """A random test graph: ER with unit or uniform weights."""
    n = n or int(rng.integers(2, 13))
    p = float(rng.uniform(0.2, 0.9))
    law = law or ("unit" if rng.random() < 0.5 else "uniform")
    return gen_erdos_renyi(n, p, law, seed=int(rng.integers(0, 2**31)))


def random_cut(rng, n):
    return rng.choice([-1.0, 1.0], size=n)


def regular_graph(n, d, seed):
    """Random d-regular simple graph via the pairing model with retries."""
    assert (n * d) % 2 == 0
    rng = np.random.default_rng(seed)
    for _ in range(200):
        stubs = np.repeat(np.arange(n), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        edges = set()
        ok = True
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if ok:
            return Graph(n, [(i, j, 1.0) for (i, j) in sorted(edges)])
    raise RuntimeError("pairing model failed to produce a simple graph")


def three_sigma(p, trials):
    """Half-width of the 3-sigma binomial band for a frequency estimate."""
    return 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
