"""Monte Carlo statistics the tests compute from the full path arrays of
``archmc.simulate_coupled``, and an independent replay of those paths.
Not a test module: pytest collects only ``test_*.py``."""

import numpy as np

from martquant.archmc import CoupledPathSample, batch_standard_error
from martquant.dual import locate_1d
from martquant.laws import TruncatedLaw
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


def _nearest(points: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The nearest of the sorted ``points`` to each ``z``, the lower one at
    a midpoint: the index is the number of midpoints below ``z``."""
    mids = 0.5 * (points[:-1] + points[1:])
    return points[(z[:, None] > mids).sum(axis=1)]


def _projected(z: np.ndarray, law) -> np.ndarray:
    """Draws ``z`` of the base as draws of ``law``: ``z 1{z in [alpha,
    beta]}`` for a truncation, else the nearest atom."""
    if isinstance(law, TruncatedLaw):
        return z * ((z >= law.alpha) & (z <= law.beta))
    return _nearest(np.sort(law.points_1d), z)


def replay_coupled(arch, noise_specs, x0, n_paths: int, seed: int, block: int, chain=None):
    """The paths of ``archmc.simulate_coupled``, recomputed with a fresh
    array for every state and every draw, one block of ``block`` paths at a
    time.

    Block b of an n-step run draws x0 from ``make_generator(seed,
    b(2n+1))``, the step-k innovations from stream ``b(2n+1)+1+k`` and the
    step-k split uniforms from stream ``b(2n+1)+1+n+k``, all of the block's
    paths in one call.  The approximate path steps the innovation projected
    onto the noise law, or the noise law's own draws without a base, and
    the dual path splits ``x + theta(x) z`` onto the chain's next grid.
    """
    n = arch.n_steps
    exact, approx, dual = [], [], []
    for b, lo in enumerate(range(0, n_paths, block)):
        m = min(block, n_paths - lo)
        stream = b * (2 * n + 1)
        gen = make_generator(seed, stream)
        start = np.full(m, float(x0)) if isinstance(x0, (int, float)) else x0.draw(gen, m)
        xs, xbs = [start], [start]
        xhs = [] if chain is None else [_nearest(np.asarray(chain.grids[0], dtype=float), start)]
        for k, (theta, spec) in enumerate(zip(arch.thetas, noise_specs)):
            gen = make_generator(seed, stream + 1 + k)
            if spec.base is None:
                z = zb = spec.law.draw(gen, m)
            else:
                z = spec.base.draw(gen, m)
                zb = _projected(z, spec.law)
            xs.append(xs[-1] + theta(xs[-1]) * z)
            xbs.append(xbs[-1] + theta(xbs[-1]) * zb)
            if chain is not None:
                points = np.asarray(chain.grids[k + 1], dtype=float)
                j, lam_right = locate_1d(points, xhs[-1] + theta(xhs[-1]) * zb)
                u = make_generator(seed, stream + 1 + n + k).random(m)
                xhs.append(np.where(u < 1.0 - lam_right, points[j], points[j + 1]))
        exact.append(np.array(xs))
        approx.append(np.array(xbs))
        dual.append(np.array(xhs))
    return CoupledPathSample(
        exact=np.hstack(exact),
        approx=np.hstack(approx),
        dual=None if chain is None else np.hstack(dual),
    )
