"""An exact replay of 1D finite-noise chains in ``fractions.Fraction``.
Not a test module: pytest collects only ``test_*.py``.

``replay`` takes the float inputs of an embedded-grid ``build_chain`` run as
exact fractions and redoes every step without rounding.  The rational
problem it solves is stated in full, since the float numbers are not one:
- the float grid points, and theta's float values at them;
- the noise atoms re-centered exactly, with their weights renormalized to
  sum 1: the float atoms' exact mean is an ulp-sized nonzero number, so the
  exact means of consecutive marginals would differ;
- the ``x0`` atoms, with their weights renormalized to sum 1;
- each target grid with its ends moved onto the hull of the exact images:
  the float grid ends on the hull of the rounded images, which the exact
  images can overshoot by an ulp.
"""

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _exact(values) -> list:
    return [Fraction(float(v)) for v in np.reshape(values, -1)]


def _probabilities(weights) -> list:
    exact = _exact(weights)
    total = sum(exact)
    return [w / total for w in exact]


@dataclass(frozen=True)
class ExactStep:
    """One step of the replay: the source marginal, the target grid, the
    kernel rows, the next marginal's weights, and the squared dual
    distortion and second moment of the image law that the grid splits."""

    sources: list
    source_weights: list
    targets: list
    kernel: list
    weights: list
    distortion_sq: Fraction
    image_second_moment: Fraction


def _split(targets: list, y: Fraction) -> tuple:
    """Interval ``l`` with ``t_l <= y <= t_{l+1}`` and the right weight of y."""
    l = min(max(bisect_right(targets, y) - 1, 0), len(targets) - 2)
    lam = (y - targets[l]) / (targets[l + 1] - targets[l])
    assert 0 <= lam <= 1, "an image outside the target hull"
    return l, lam


def replay(chain, thetas, noises, x0) -> list:
    """The exact steps of ``chain``, built by ``build_chain`` on 1D grids
    from the coefficients ``thetas``, the finite noises ``noises`` (one
    ``DiscreteDistribution`` per step) and the atoms ``x0``."""
    points, weights = _exact(x0.atoms()[0]), _probabilities(x0.atoms()[1])
    steps = []
    for theta, noise, grid, float_sources in zip(thetas, noises, chain.grids[1:], chain.grids):
        theta_vals = _exact(theta(np.asarray(float_sources, dtype=float)))
        w = _probabilities(noise.weights)
        z = _exact(noise.points_1d)
        mean = sum(wj * zj for wj, zj in zip(w, z))
        z = [zj - mean for zj in z]
        images = [[x + t * zj for zj in z] for x, t in zip(points, theta_vals)]
        targets = _exact(grid)
        targets[0] = min(min(row) for row in images)
        targets[-1] = max(max(row) for row in images)
        assert all(a < b for a, b in zip(targets, targets[1:])), "the exact ends cross the grid"
        kernel, d2, m2 = [], Fraction(0), Fraction(0)
        for p, row in zip(weights, images):
            k_row = [Fraction(0)] * len(targets)
            for wj, y in zip(w, row):
                l, lam = _split(targets, y)
                k_row[l] += wj * (1 - lam)
                k_row[l + 1] += wj * lam
                d2 += p * wj * (targets[l + 1] - y) * (y - targets[l])
                m2 += p * wj * y * y
            kernel.append(k_row)
        next_weights = [sum(p * k_row[l] for p, k_row in zip(weights, kernel))
                        for l in range(len(targets))]
        steps.append(ExactStep(points, weights, targets, kernel, next_weights, d2, m2))
        points, weights = targets, next_weights
    return steps


def is_martingale_row(source: Fraction, targets: list, row: list) -> bool:
    """The row sums to 1 and has its source as barycenter, exactly."""
    return sum(row) == 1 and sum(k * t for k, t in zip(row, targets)) == source


def in_convex_order(mu: tuple, nu: tuple) -> bool:
    """``mu <=cx nu`` for finite laws given as ``(points, weights)``, exactly:
    equal mass and mean, and the call price of ``mu`` at most that of ``nu``
    at every atom of either law, where both price curves have their kinks."""

    def moment(law, power):
        return sum(w * x ** power for x, w in zip(*law))

    def call(law, strike):
        return sum(w * max(x - strike, 0) for x, w in zip(*law))

    if moment(mu, 0) != moment(nu, 0) or moment(mu, 1) != moment(nu, 1):
        return False
    return all(call(mu, s) <= call(nu, s) for s in {*mu[0], *nu[0]})
