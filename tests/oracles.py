"""Monte Carlo statistics the tests compute from the full path arrays of
``archmc.simulate_coupled``.  Not a test module: pytest collects only
``test_*.py``."""

import numpy as np

from martquant.archmc import batch_standard_error
from martquant.order import MaxAffineFunction
from martquant.rng import make_generator


def random_max_affine(dim: int, count: int = 50, pieces: int = 6, seed: int = 0) -> list:
    """Random convex max-of-affine functions with unit-norm slopes,
    reproducible by seed."""
    gen = make_generator(seed, stream=31)
    members = []
    for _ in range(count):
        slopes = gen.normal(size=(pieces, dim))
        slopes /= np.linalg.norm(slopes, axis=1, keepdims=True)
        offsets = gen.normal(size=pieces)
        members.append(MaxAffineFunction(offsets, slopes))
    return members


def domination_rows(upper: np.ndarray, lower: np.ndarray, battery) -> list:
    """``(mean gap, standard error, passed)`` per function phi of the
    battery, for paths given as ``(n_steps + 1, n_paths)`` arrays: the mean
    of the paired gap ``phi(lower) - phi(upper)``, its batch-means standard
    error, and whether the gap is at most 3 standard errors, as it is when
    ``lower`` is dominated by ``upper`` in the convex order."""
    rows = []
    for fn in battery:
        gap = fn(lower.T) - fn(upper.T)
        mean, se = float(gap.mean()), batch_standard_error(gap)
        rows.append((mean, se, mean <= 3.0 * se))
    return rows


def chain_marginals(sample, chain) -> list:
    """Monte Carlo marginal weights of the dually projected path
    ``sample.dual`` on each of the chain's grids."""
    weights = []
    for k, grid in enumerate(chain.grids):
        grid = np.asarray(grid, dtype=float).reshape(-1)
        # the dual path sits on the grid points, so the search finds each
        # state's own point
        index = np.searchsorted(grid, sample.dual[k])
        weights.append(np.bincount(index, minlength=grid.size) / sample.n_paths)
    return weights
