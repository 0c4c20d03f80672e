"""Random problem builders shared by the test modules."""

import numpy as np

from balanced_transport import MAXIMIZE, OTProblem


def random_problem(rng: np.random.Generator, n: int, m: int, sense: str = MAXIMIZE) -> OTProblem:
    """Random positive-weight problem with matched marginal totals."""
    a = rng.uniform(0.0, 1.0, size=(n, m))
    r = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=m)
    c *= r.sum() / c.sum()
    return OTProblem(a, r, c, sense)


def supermodular_problem(rng: np.random.Generator, n: int, m: int) -> OTProblem:
    """Random instance whose weights are a product of increasing vectors.

    a = outer(u, v) with both vectors increasing satisfies the 2x2-minor
    inequality for maximization, so the greedy allocator is optimal.
    """
    u = np.sort(rng.uniform(0.0, 2.0, size=n))
    v = np.sort(rng.uniform(0.0, 2.0, size=m))
    a = np.outer(u, v)
    r = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=m)
    c *= r.sum() / c.sum()
    return OTProblem(a, r, c, MAXIMIZE)
