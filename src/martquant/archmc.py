"""Monte Carlo coupling of exact, truncated, and quantized ARCH paths.

The exact path and its approximation share every innovation draw (common
random numbers), so path-space differences are measured without extra
variance.  On top of the coupled sampler sit numerical evaluations of the
truncation/quantization error bounds and the Gaussian tail estimates behind
the truncation-threshold rule.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ArchSpec, ChainApproximation, NoiseSpec
from .dual import locate_1d
from .errors import DomainError
from .laws import Law1D, TruncatedLaw
from .primal import _assign_1d
from .rng import make_generator

__all__ = [
    "ErrorBoundReport",
    "GapStatistics",
    "coupled_gap_statistics",
    "truncation_error_bound",
    "compare_truncation_bound",
    "gaussian_tail_bound",
    "select_truncation",
    "quantized_innovation_bound",
    "theta_norm_envelope",
]

_BLOCK = 250_000  # paths per block; the block index picks the SFC64 streams
_CHUNK = 15_625  # divides _BLOCK; chunks break at its multiples, which changes no draw
_BATCHES = 30


@dataclass(frozen=True)
class CoupledPathSample:
    """Paths of the exact chain and its approximation on shared draws.

    Arrays are (n_steps + 1, n_paths); ``approx`` uses the clipped or
    projected innovations computed from the same normal draws as ``exact``.
    The result of the ``simulate_coupled`` test oracle.
    """

    exact: np.ndarray
    approx: np.ndarray
    dual: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return self.exact.shape[0] - 1

    @property
    def n_paths(self) -> int:
        return self.exact.shape[1]


def _sample_x0(x0, gen, out: np.ndarray) -> None:
    """Draws of ``x0``, a number or a 1D law, into ``out``."""
    if isinstance(x0, (int, float)):
        out.fill(float(x0))
    elif isinstance(x0, Law1D):
        x0.draw(gen, out.size, out=out)
    else:
        raise DomainError("x0 must be a number or a 1D law")


def _project_noise(z: np.ndarray, spec: NoiseSpec, out=None) -> np.ndarray:
    """Base draws as draws of ``spec.law``: 0 outside any truncation, else
    the nearest atom; into ``out`` if it is given (``z`` itself included)."""
    if isinstance(spec.law, TruncatedLaw):
        return spec.law.zero_outside(z, out=out)
    atoms = spec.law.atoms()[0]
    # the indices lie in range, and "clip" writes into ``out`` unbuffered
    return np.take(atoms, _assign_1d(atoms, z), out=out, mode="clip")


def _split_sample(points: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Randomized dual projection of a sample onto a 1D grid."""
    j, lam_right = locate_1d(points, x)
    return np.where(u < 1.0 - lam_right, points[j], points[j + 1])


def _step(theta, x: np.ndarray, z: np.ndarray, prod: np.ndarray) -> None:
    """``x += theta(x) * z`` in place, the product taken into ``prod``.
    ``theta(x)`` is not written over: a coefficient may return its
    argument, a stored array or a scalar."""
    np.multiply(theta(x), z, out=prod)
    x += prod


def _chunk_edges(lo: int, hi: int, n_paths: int) -> list[int]:
    """Edges of the chunks of the block of paths ``lo, ..., hi - 1`` in a
    run of ``n_paths``: the block ends, and every multiple of ``_CHUNK`` and
    every ``_batch_ranges(n_paths)`` edge inside the block.

    So each chunk lies in one batch.  Block ends are multiples of
    ``_CHUNK``, which divides ``_BLOCK``, or ``n_paths``, so the edges
    depend only on the path index and ``n_paths``: a chunk's sum is the
    same whichever thread, and in whichever order, the chunk is stepped.
    """
    inner = set(range(lo + _CHUNK - lo % _CHUNK, hi, _CHUNK))
    inner.update(start for start, _ in _batch_ranges(n_paths) if lo < start < hi)
    return [lo, *sorted(inner), hi]


def _work_arrays(edges, count: int) -> list[np.ndarray]:
    """``count`` float arrays the size of the largest chunk between ``edges``."""
    size = max(stop - start for start, stop in zip(edges[:-1], edges[1:]))
    return [np.empty(size) for _ in range(count)]


def _block_steps(arch: ArchSpec, noise_specs, x0, seed: int, block, chain=None):
    """Yield ``(lo, k, exact, approx, dual)`` for one ``(index, chunk
    edges)`` block of paths, chunk by chunk: the states at k = 0, ...,
    n_steps of the chunk's paths, which start at path ``lo`` (``dual`` is
    None without a chain).

    Block b of an n-step run draws x0 from the SFC64 stream b(2n+1) of
    ``make_generator(seed, .)``, the step-k innovations from stream
    b(2n+1)+1+k and the step-k split uniforms from stream b(2n+1)+1+n+k,
    so every draw depends only on ``(seed, block)``.  Each chunk takes the
    next draws of every stream, and the uniforms and ``standard_normal``
    of a stream are the same however it is sliced, so the chunks change
    no draw; they only set the partition of the streamed sums.

    The block steps its chunks in place in a few work arrays sized to its
    largest chunk, so its memory does not depend on the number of chunks.
    The yielded vectors are views that the next step overwrites: a
    consumer copies what it keeps, and writes into none of them.
    """
    b, edges = block
    n = arch.n_steps
    base = b * (2 * n + 1)
    x0_gen = make_generator(seed, base)
    noise_gens = [make_generator(seed, base + 1 + k) for k in range(n)]
    if chain is not None:
        split_gens = [make_generator(seed, base + 1 + n + k) for k in range(n)]
        grids = [np.asarray(g, dtype=float) for g in chain.grids]
    work = _work_arrays(edges, 4)
    for start, stop in zip(edges[:-1], edges[1:]):
        count = stop - start
        x, xb, z, prod = (w[:count] for w in work)
        _sample_x0(x0, x0_gen, x)
        xb[...] = x
        xh = None if chain is None else grids[0][_assign_1d(grids[0], x)]
        yield start, 0, x, xb, xh
        for k in range(n):
            spec, theta = noise_specs[k], arch.thetas[k]
            # without a base law both paths ride the atoms of ``spec.law``
            (spec.law if spec.base is None else spec.base).draw(noise_gens[k], count, out=z)
            _step(theta, x, z, prod)
            if spec.base is not None:
                _project_noise(z, spec, out=z)
            _step(theta, xb, z, prod)
            if chain is not None:
                _step(theta, xh, z, prod)
                xh = _split_sample(grids[k + 1], xh, split_gens[k].random(count))
            yield start, k + 1, x, xb, xh


def _map_blocks(fn, n_paths: int, threads: int) -> list:
    """``fn(block)`` for every ``(index, chunk edges)`` block of at most
    ``_BLOCK`` paths, in block order.  With ``threads > 1`` up to
    ``threads`` blocks run at once; the results still come back in block
    order."""
    blocks = [(b, _chunk_edges(lo, min(lo + _BLOCK, n_paths), n_paths))
              for b, lo in enumerate(range(0, n_paths, _BLOCK))]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, blocks))
    return [fn(block) for block in blocks]


def _checked_specs(arch: ArchSpec, noise_specs, n_paths: int) -> list:
    if n_paths < 1:
        raise DomainError("need at least one path")
    noise_specs = list(noise_specs)
    if len(noise_specs) != arch.n_steps:
        raise DomainError("need one noise spec per step")
    return noise_specs


def simulate_coupled(
    arch: ArchSpec,
    noise_specs,
    x0,
    n_paths: int,
    seed: int,
    chain: ChainApproximation | None = None,
    threads: int = 1,
) -> CoupledPathSample:
    """Simulate the exact chain and its truncated/quantized companion.

    Blocks of paths draw from independent SFC64 streams seeded by
    ``(seed, block)``, so results are reproducible for any thread count.
    When ``chain`` is given, the dually projected path is simulated as well
    (same innovations plus the chain's own split uniforms).  The arrays
    hold every path and step; ``coupled_gap_statistics`` reduces the same
    paths one chunk of at most ``_CHUNK`` paths at a time instead, so its
    memory does not grow with ``n_paths``, and its means agree with those
    of these arrays to rounding, not bit for bit.

    A test oracle, kept out of ``__all__``: its arrays pin that streamed
    reducer and the truncation bound, and the tests compute the chain's
    Monte Carlo marginals and the path-level domination check from them.
    """
    noise_specs = _checked_specs(arch, noise_specs, n_paths)
    n = arch.n_steps
    exact = np.empty((n + 1, n_paths))
    approx = np.empty((n + 1, n_paths))
    dual = np.empty((n + 1, n_paths)) if chain is not None else None

    def fill(block):
        for lo, k, x, xb, xh in _block_steps(arch, noise_specs, x0, seed, block, chain):
            hi = lo + x.size
            exact[k, lo:hi] = x
            approx[k, lo:hi] = xb
            if dual is not None:
                dual[k, lo:hi] = xh

    _map_blocks(fill, n_paths, threads)
    return CoupledPathSample(exact=exact, approx=approx, dual=dual)


def _batch_ranges(n: int) -> list[tuple[int, int]]:
    """The non-empty ``(start, size)`` batches of ``np.array_split`` of n
    entries into ``_BATCHES``."""
    small, extra = divmod(n, _BATCHES)
    return [(i * small + min(i, extra), small + (i < extra)) for i in range(min(n, _BATCHES))]


def _batch_se(batch_mean, n: int) -> float:
    """Batch-means standard error over ``_batch_ranges(n)``, with
    ``batch_mean(start, size)`` the mean of a batch."""
    means = np.array([batch_mean(start, size) for start, size in _batch_ranges(n)])
    if means.size < 2:
        raise DomainError("a batch-means standard error needs at least 2 values")
    return float(means.std(ddof=1) / math.sqrt(means.size))


def batch_standard_error(values: np.ndarray) -> float:
    """Standard error of the mean by the means of ``_BATCHES`` batches.

    Kept out of ``__all__``: only the tests call it, on the arrays of the
    ``simulate_coupled`` oracle.
    """
    values = np.asarray(values, dtype=float)
    return _batch_se(lambda start, size: values[start : start + size].mean(), values.size)


@dataclass(frozen=True)
class GapStatistics:
    """Monte Carlo gaps between the exact and approximate coupled paths."""

    empirical: np.ndarray       # ||X_k - approx_k||_2 per k
    standard_error: np.ndarray  # batch-means SE of the mean of |X_k - approx_k|^2 per k
    doob_empirical: float       # || sup_k |X_k - approx_k| ||_2


def coupled_gap_statistics(
    arch: ArchSpec,
    noise_specs,
    x0,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> GapStatistics:
    """L2 gaps between the exact and approximate paths of
    ``simulate_coupled``, streamed one step of one block at a time.

    The numbers are those of the formulas on the full arrays,
    ``sqrt(mean((exact[k] - approx[k]) ** 2))``, ``batch_standard_error``
    of the squared gaps, and ``sqrt(mean(max_k |exact - approx| ** 2))``,
    to rounding.  Each chunk gives one row of a table: its first path, then
    one ``np.add.reduce`` per sum.  A mean over a range of paths is the
    ``math.fsum`` of a column over the rows whose first path lies in it,
    correctly rounded, so the bits do not depend on the thread count or on
    the order of the rows.  Memory holds the work arrays of one block, each
    of at most ``_CHUNK`` paths, per thread and is flat in ``n_paths``.

    The Doob column keeps a running max of the squared gaps, not of
    ``|gap|``.  Rounding is monotone, so ``|a| <= |b|`` gives ``fl(a^2) <=
    fl(b^2)``, and the max of the squares is the square of the max of
    ``|gap|`` bit for bit: squaring before the max changes no bit of the
    sum.
    """
    if n_paths < 2:
        raise DomainError("a batch-means standard error needs at least 2 paths")
    noise_specs = _checked_specs(arch, noise_specs, n_paths)
    n = arch.n_steps

    def reduce_block(block):
        """Rows ``(lo, sum gap_0^2, ..., sum gap_n^2, sum sup^2)``, one per chunk."""
        rows = []
        gap_work, sup_work = _work_arrays(block[1], 2)
        for lo, k, x, xb, _ in _block_steps(arch, noise_specs, x0, seed, block):
            gap = np.subtract(x, xb, out=gap_work[: x.size])
            np.square(gap, out=gap)
            if k == 0:
                rows.append([lo])
                sup = sup_work[: x.size]
                sup[...] = gap
            else:
                np.maximum(sup, gap, out=sup)
            rows[-1].append(np.add.reduce(gap))
            if k == n:
                rows[-1].append(np.add.reduce(sup))
        return rows

    table = np.array([row for rows in _map_blocks(reduce_block, n_paths, threads) for row in rows])
    first = table[:, 0]

    def mean(column: int, start: int, size: int) -> float:
        return math.fsum(table[(start <= first) & (first < start + size), column]) / size

    columns = range(1, n + 2)
    return GapStatistics(
        empirical=np.array([math.sqrt(mean(c, 0, n_paths)) for c in columns]),
        standard_error=np.array([_batch_se(lambda start, size: mean(c, start, size), n_paths)
                                 for c in columns]),
        doob_empirical=math.sqrt(mean(n + 2, 0, n_paths)),
    )


# ---------------------------------------------------------------------------
# error bounds


@dataclass(frozen=True)
class ErrorBoundReport:
    empirical: np.ndarray       # ||X_k - approx_k||_2 per k
    bound: np.ndarray           # theoretical bound per k (refined form)
    bound_product: np.ndarray   # looser product form per k
    standard_error: np.ndarray  # MC standard error of empirical^2 per k
    doob_empirical: float
    doob_bound: float

    @property
    def slack(self) -> np.ndarray:
        return self.bound - self.empirical


def compare_truncation_bound(
    arch: ArchSpec,
    noise_specs,
    x0,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> ErrorBoundReport:
    """Empirical coupled-path gaps against the closed-form bounds.

    The Doob entries compare the pathwise-supremum norm with twice the
    terminal norm (empirical) and with twice the terminal bound.
    """
    noise_specs = list(noise_specs)
    if any(spec.base is None for spec in noise_specs):
        raise DomainError("error bounds need a truncated or quantized noise with a base law")
    gaps = [spec.base.second_moment - spec.law.second_moment for spec in noise_specs]
    x0_m2 = float(x0) ** 2 if isinstance(x0, (int, float)) else x0.second_moment
    refined, product = truncation_error_bound(
        [t.lipschitz for t in arch.thetas],
        [t.c_envelope for t in arch.thetas],
        arch.noise_dim,
        x0_m2,
        0.0,
        gaps,
    )
    stats = coupled_gap_statistics(arch, noise_specs, x0, n_paths, seed, threads=threads)
    return ErrorBoundReport(
        empirical=stats.empirical,
        bound=refined,
        bound_product=product,
        standard_error=stats.standard_error,
        doob_empirical=stats.doob_empirical,
        doob_bound=2.0 * float(refined[-1]),
    )


def _prefix_products(factors) -> np.ndarray:
    """Entry k is ``prod_{l<k} factors_l``, for k = 0..n."""
    return np.cumprod(np.concatenate(([1.0], factors)))


def _propagate(growth, added, start: float) -> np.ndarray:
    """``sqrt(max(e_k, 0))`` for ``e_0 = start``, ``e_{k+1} = growth_k e_k + added_k``."""
    e = np.full(growth.size + 1, float(start))
    for k in range(growth.size):
        e[k + 1] = growth[k] * e[k] + added[k]
    return np.sqrt(np.maximum(e, 0.0))


def truncation_error_bound(
    lipschitz, c_envelope, q: int, x0_norm_sq: float, x0_gap_sq: float, noise_gap_sq
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step quadratic error bounds for a quasi-white-noise substitution.

    Entry k of ``(refined, product)`` bounds ``||X_k - approx X_k||_2`` by
    ``sqrt(e_k)``.  Refined, one step at a time: ``e_0 = x0_gap_sq``,
    ``e_{k+1} = G_k e_k + m P_k c_k g_k``.  Product, the growth factored out
    of the sum: ``e_k = x0_gap_sq prod_{l<k} G_l + m prod_{l<k} (1 + max(q
    L_l^2, c_l)) sum_{l<k} c_l g_l``.  Here ``G_k = 1 + q L_k^2``, ``P_k =
    prod_{l<k} (1 + c_l)``, ``m = 1 + E|X_0|^2``, ``c_k = c_envelope[k]``
    (also the Frobenius-norm constant of a scalar coefficient) and ``g_k =
    noise_gap_sq[k] = ||Z_{k+1} - approx Z_{k+1}||_2^2``.
    """
    lip = np.asarray(lipschitz, dtype=float)
    env = np.asarray(c_envelope, dtype=float)
    gap = np.asarray(noise_gap_sq, dtype=float)
    if not (env.size == gap.size == lip.size):
        raise DomainError("per-step parameter lists must share one length")
    growth = 1.0 + q * lip ** 2
    m = 1.0 + x0_norm_sq
    refined = _propagate(growth, m * _prefix_products(1.0 + env)[:-1] * env * gap, x0_gap_sq)
    big_growth = 1.0 + np.maximum(q * lip ** 2, env)
    summed = np.cumsum(np.concatenate(([0.0], env * gap)))
    product = x0_gap_sq * _prefix_products(growth) + m * _prefix_products(big_growth) * summed
    return refined, np.sqrt(np.maximum(product, 0.0))


def theta_norm_envelope(thetas, x0_second_moment: float) -> np.ndarray:
    """Envelope ``c_k (E|X_0|^2 + 1) prod_{l<k} (1 + c_l)`` of ||theta_k(X_k)||_2^2,
    from ``1 + E|X_{k+1}|^2 <= (1 + c_k)(1 + E|X_k|^2)`` (``c_k`` is the
    Frobenius-norm constant of a scalar coefficient)."""
    env = np.asarray([t.c_envelope for t in thetas], dtype=float)
    return env * (x0_second_moment + 1.0) * _prefix_products(1.0 + env)[:-1]


def quantized_innovation_bound(
    lipschitz,
    theta_norm_sq,
    noise_gap_sq,
    dual_distortion_sq,
    q: int,
    x0_gap_sq: float,
) -> np.ndarray:
    """Per-step bound ``sqrt(o_k)`` on ||dual chain - exact chain||_2:
    the initial quantization error ``o_0 = x0_gap_sq`` grows by ``G_k = 1 +
    q L_k^2`` at each step, which adds the innovation substitution error
    ``g_k`` scaled by ``tau_k = ||theta_k(X_k)||_2^2`` and the dual
    projection distortion, ``o_{k+1} = G_k o_k + tau_k g_k + D_k^2``."""
    lip = np.asarray(lipschitz, dtype=float)
    tns = np.asarray(theta_norm_sq, dtype=float)
    gap = np.asarray(noise_gap_sq, dtype=float)
    dd = np.asarray(dual_distortion_sq, dtype=float)
    if not (tns.size == gap.size == dd.size == lip.size):
        raise DomainError("per-step parameter lists must share one length")
    return _propagate(1.0 + q * lip ** 2, tns * gap + dd, x0_gap_sq)


def gaussian_tail_bound(a: float, q: int = 1) -> float:
    """Upper bound on E |Z|^2 1{|Z| >= a} for a standard normal in R^q.

    q = 1 uses the integration-by-parts bound sqrt(2/pi)(a + 1/a) e^{-a^2/2};
    q >= 2 uses the Chernoff-style bound q e^{-a^2/2} (e a^2 / (q+2))^{1+q/2},
    valid for a > sqrt(q + 2).
    """
    if a <= 0.0:
        raise DomainError("threshold must be positive")
    if q == 1:
        return math.sqrt(2.0 / math.pi) * (a + 1.0 / a) * math.exp(-0.5 * a * a)
    if a <= math.sqrt(q + 2.0):
        raise DomainError(f"q >= 2 branch needs a > sqrt(q+2) = {math.sqrt(q + 2.0):.6f}")
    return q * math.exp(-0.5 * a * a) * (math.e * a * a / (q + 2.0)) ** (1.0 + q / 2.0)


def select_truncation(n, c: float, q: int = 1) -> float:
    """Truncation radius sqrt(c log n); the q >= 2 branch enforces the
    validity floor of the tail bound."""
    if n < 2 or c <= 0.0:
        raise DomainError("need n >= 2 and c > 0")
    a = math.sqrt(c * math.log(float(n)))
    if q >= 2:
        a = max(a, math.sqrt(q + 2.0) + 1e-9)
    return a
