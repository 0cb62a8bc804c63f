"""Monte Carlo coupling of exact, truncated, and quantized ARCH paths.

The exact path and its approximation share every innovation draw (common
random numbers), so path-space differences are measured without extra
variance.  On top of the coupled sampler sit numerical evaluations of the
truncation/quantization error bounds, the Gaussian tail estimates behind
the truncation-threshold rule, and the statistical verification of the
convex-order domination of truncated dynamics.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chain import ArchSpec, ChainApproximation, NoiseSpec
from .errors import DomainError
from .laws import Law1D, PointMass
from .order import ConvexTestBattery, DiscreteDistribution
from .rng import make_generator

__all__ = [
    "CoupledPathSample",
    "ErrorBoundReport",
    "GapStatistics",
    "simulate_coupled",
    "coupled_gap_statistics",
    "simulate_chain_marginals",
    "truncation_error_bound",
    "compare_truncation_bound",
    "gaussian_tail_bound",
    "select_truncation",
    "domination_test",
    "quantized_innovation_bound",
    "theta_norm_envelope",
    "batch_standard_error",
]

_BLOCK = 250_000  # paths per block; the block index keys the Philox streams
_BATCHES = 30
_PAIRWISE_LEAF = 128  # numpy sums at most this many entries in one loop


@dataclass(frozen=True)
class CoupledPathSample:
    """Paths of the exact chain and its approximation on shared draws.

    Arrays are (n_steps + 1, n_paths); ``approx`` uses the clipped or
    projected innovations computed from the same normal draws as ``exact``.
    """

    exact: np.ndarray
    approx: np.ndarray
    dual: np.ndarray | None = field(default=None)
    seed: int = 0

    @property
    def n_steps(self) -> int:
        return self.exact.shape[0] - 1

    @property
    def n_paths(self) -> int:
        return self.exact.shape[1]


def _sample_x0(x0, n, gen) -> np.ndarray:
    if isinstance(x0, (int, float)):
        return np.full(n, float(x0))
    if isinstance(x0, PointMass):
        return np.full(n, x0.x)
    if isinstance(x0, DiscreteDistribution):
        u = gen.random(n)
        cum = np.cumsum(x0.weights)
        idx = np.minimum(np.searchsorted(cum, u, side="right"), x0.n_atoms - 1)
        return x0.points_1d[idx]
    if isinstance(x0, Law1D):
        u = np.maximum(gen.random(n), 1e-300)
        return np.asarray(x0.quantile(u), dtype=float)
    raise DomainError("x0 must be a number, a 1D law, or a DiscreteDistribution")


def _project_noise(z: np.ndarray, spec: NoiseSpec) -> np.ndarray:
    if spec.mode == "exact":
        return z
    if spec.mode == "truncated":
        t = spec.truncation
        return z * ((z >= t.alpha) & (z <= t.beta))
    atoms = spec.atoms.points_1d
    mids = 0.5 * (atoms[:-1] + atoms[1:])
    return atoms[np.searchsorted(mids, z, side="left")]


def _split_sample(points: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Randomized dual projection of a sample onto a 1D grid."""
    lo, hi = points[0], points[-1]
    scale = max(1.0, abs(lo), abs(hi))
    if np.any(x < lo - 1e-9 * scale) or np.any(x > hi + 1e-9 * scale):
        raise DomainError("simulated state left the dual grid hull")
    xc = np.clip(x, lo, hi)
    j = np.clip(np.searchsorted(points, xc, side="right") - 1, 0, points.size - 2)
    lam_left = (points[j + 1] - xc) / (points[j + 1] - points[j])
    return np.where(u < lam_left, points[j], points[j + 1])


def _innovations(spec: NoiseSpec, count: int, gen) -> tuple[np.ndarray, np.ndarray]:
    """One step's draws of the exact innovation and of its approximation."""
    if spec.base is not None:
        u = np.maximum(gen.random(count), 1e-300)
        z = np.asarray(spec.base.quantile(u), dtype=float)
        return z, _project_noise(z, spec)
    # atoms without a base law: both paths ride the atoms
    u = gen.random(count)
    cum = np.cumsum(spec.atoms.weights)
    idx = np.minimum(np.searchsorted(cum, u, side="right"), spec.atoms.n_atoms - 1)
    z = spec.atoms.points_1d[idx]
    return z, z


def _block_steps(arch: ArchSpec, noise_specs, x0, seed: int, block, chain=None):
    """Yield ``(exact, approx, dual)``, the states of one block of paths at
    k = 0, ..., n_steps, one step at a time (``dual`` is None without a
    chain).

    Block b of an n-step run draws x0 from Philox stream b(2n+1), the
    step-k innovations from stream b(2n+1)+1+k and the step-k split
    uniforms from stream b(2n+1)+1+n+k, so every draw depends only on
    ``(seed, block)``.  The yielded vectors are read-only: at k = 0
    ``exact`` and ``approx`` are one array.
    """
    b, lo, hi = block
    count = hi - lo
    n = arch.n_steps
    base = b * (2 * n + 1)
    x = _sample_x0(x0, count, make_generator(seed, base))
    xb = x
    xh = None if chain is None else chain.grids[0][_nn_assign(chain.grids[0], x)]
    yield x, xb, xh
    for k in range(n):
        z, zb = _innovations(noise_specs[k], count, make_generator(seed, base + 1 + k))
        theta = arch.thetas[k]
        x = x + theta(x) * z
        xb = xb + theta(xb) * zb
        if chain is not None:
            uu = make_generator(seed, base + 1 + n + k).random(count)
            tilde = xh + theta(xh) * zb
            xh = _split_sample(np.asarray(chain.grids[k + 1], dtype=float), tilde, uu)
        yield x, xb, xh


def _map_blocks(fn, n_paths: int, threads: int) -> list:
    """``fn(block)`` for every ``(index, lo, hi)`` block of paths, in block
    order.  With ``threads > 1`` up to ``threads`` blocks run at once; the
    results still come back in block order."""
    blocks = [(b, lo, min(lo + _BLOCK, n_paths))
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

    Blocks of paths draw from independent counter-based streams keyed by
    ``(seed, block)``, so results are reproducible for any thread count.
    When ``chain`` is given, the dually projected path is simulated as well
    (same innovations plus the chain's own split uniforms).  The arrays
    hold every path and step; ``coupled_gap_statistics``,
    ``simulate_chain_marginals`` and ``domination_test`` reduce the same
    paths one block at a time instead.
    """
    noise_specs = _checked_specs(arch, noise_specs, n_paths)
    n = arch.n_steps
    exact = np.empty((n + 1, n_paths))
    approx = np.empty((n + 1, n_paths))
    dual = np.empty((n + 1, n_paths)) if chain is not None else None

    def fill(block):
        _, lo, hi = block
        for k, (x, xb, xh) in enumerate(_block_steps(arch, noise_specs, x0, seed, block, chain)):
            exact[k, lo:hi] = x
            approx[k, lo:hi] = xb
            if dual is not None:
                dual[k, lo:hi] = xh

    _map_blocks(fill, n_paths, threads)
    return CoupledPathSample(exact=exact, approx=approx, dual=dual, seed=seed)


def _nn_assign(points, xs):
    points = np.asarray(points, dtype=float)
    mids = 0.5 * (points[:-1] + points[1:])
    return np.searchsorted(mids, xs, side="left")


def simulate_chain_marginals(
    chain: ChainApproximation,
    arch: ArchSpec,
    noise_specs,
    x0,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> list[np.ndarray]:
    """Monte Carlo marginal weights of the dually projected chain, counted
    one block of paths at a time."""
    noise_specs = _checked_specs(arch, noise_specs, n_paths)
    grids = [np.asarray(g, dtype=float) for g in chain.grids]

    def count_block(block):
        return [
            np.bincount(_nn_assign(grids[k], xh), minlength=grids[k].size)
            for k, (_, _, xh) in enumerate(
                _block_steps(arch, noise_specs, x0, seed, block, chain)
            )
        ]

    counts = _map_blocks(count_block, n_paths, threads)
    return [sum(c[k] for c in counts) / n_paths for k in range(chain.n_steps + 1)]


def _pairwise_half(size: int) -> int:
    half = size // 2
    return half - half % 8


class _PairwiseSums:
    """Sums over index ranges of long float sequences that arrive in ordered
    chunks, each bit for bit the ``np.add.reduce`` of the whole range.

    numpy sums a contiguous array pairwise: it halves a range at a multiple
    of 8 until at most 128 entries are left, and sums those in one leaf
    loop.  A chunk therefore contributes the sums of the tree nodes it
    covers whole (``np.add.reduce`` of a node runs the node's own tree) and
    a copy of its share of each leaf it cuts.  ``total`` walks the tree.
    """

    def __init__(self):
        self.nodes = {}   # (key, start, size) -> sum of a tree node covered whole
        self.leaves = {}  # (key, start, size) -> {offset: entries of a cut leaf}

    def add(self, key, values: np.ndarray, offset: int, ranges) -> None:
        """Record ``values``, entries ``offset, offset + 1, ...`` of sequence
        ``key``, for the sums over each ``(start, size)`` range."""
        for start, size in ranges:
            self._add(key, values, offset, start, size)

    def _add(self, key, values, offset, start, size):
        lo = max(start, offset)
        hi = min(start + size, offset + values.size)
        if lo >= hi:
            return
        if lo == start and hi == start + size:
            self.nodes[key, start, size] = np.add.reduce(values[lo - offset : hi - offset])
        elif size <= _PAIRWISE_LEAF:
            piece = values[lo - offset : hi - offset].copy()
            self.leaves.setdefault((key, start, size), {})[lo] = piece
        else:
            half = _pairwise_half(size)
            self._add(key, values, offset, start, half)
            self._add(key, values, offset, start + half, size - half)

    def merge(self, other: "_PairwiseSums") -> None:
        self.nodes.update(other.nodes)
        for node, pieces in other.leaves.items():
            self.leaves.setdefault(node, {}).update(pieces)

    def total(self, key, start: int, size: int):
        node = (key, start, size)
        if node in self.nodes:
            return self.nodes[node]
        if size <= _PAIRWISE_LEAF:
            pieces = self.leaves[node]
            return np.add.reduce(np.concatenate([pieces[o] for o in sorted(pieces)]))
        half = _pairwise_half(size)
        return self.total(key, start, half) + self.total(key, start + half, size - half)

    def mean(self, key, n: int):
        return self.total(key, 0, n) / n

    def batch_standard_error(self, key, n: int) -> float:
        """``batch_standard_error`` of entries 0..n-1 of sequence ``key``."""
        return _batch_se(
            np.array([self.total(key, start, size) / size for start, size in _batch_ranges(n)])
        )


def _stream_sums(reduce_block, n_paths: int, threads: int) -> _PairwiseSums:
    sums = _PairwiseSums()
    for part in _map_blocks(reduce_block, n_paths, threads):
        sums.merge(part)
    return sums


def _batch_ranges(n: int) -> list[tuple[int, int]]:
    """The non-empty ``(start, size)`` batches of ``np.array_split`` of n
    entries into ``_BATCHES``."""
    small, extra = divmod(n, _BATCHES)
    sizes = [small + 1] * extra + [small] * (_BATCHES - extra)
    starts = np.cumsum([0] + sizes[:-1])
    return [(int(s), m) for s, m in zip(starts, sizes) if m]


def _batch_se(means: np.ndarray) -> float:
    if means.size < 2:
        raise DomainError("a batch-means standard error needs at least 2 values")
    return float(means.std(ddof=1) / math.sqrt(means.size))


def batch_standard_error(values: np.ndarray, n_batches: int = _BATCHES) -> float:
    """Standard error of the mean by batch means."""
    batches = np.array_split(np.asarray(values, dtype=float), n_batches)
    return _batch_se(np.array([b.mean() for b in batches if b.size]))


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

    The numbers are those of the formulas on the full arrays, bit for bit:
    ``sqrt(mean((exact[k] - approx[k]) ** 2))``, ``batch_standard_error``
    of the squared gaps, and ``sqrt(mean(max_k |exact - approx| ** 2))``.
    Memory holds one block of paths per thread, whatever ``n_paths``.
    """
    if n_paths < 2:
        raise DomainError("a batch-means standard error needs at least 2 paths")
    noise_specs = _checked_specs(arch, noise_specs, n_paths)
    whole = [(0, n_paths)]
    whole_and_batches = whole + _batch_ranges(n_paths)

    def reduce_block(block):
        lo = block[1]
        sums = _PairwiseSums()
        for k, (x, xb, _) in enumerate(_block_steps(arch, noise_specs, x0, seed, block)):
            gap = np.abs(x - xb)
            sup = gap.copy() if k == 0 else np.maximum(sup, gap, out=sup)
            sums.add(k, np.square(gap, out=gap), lo, whole_and_batches)
        sums.add("sup", np.square(sup, out=sup), lo, whole)
        return sums

    sums = _stream_sums(reduce_block, n_paths, threads)
    steps = range(arch.n_steps + 1)
    return GapStatistics(
        empirical=np.array([math.sqrt(float(sums.mean(k, n_paths))) for k in steps]),
        standard_error=np.array([sums.batch_standard_error(k, n_paths) for k in steps]),
        doob_empirical=math.sqrt(float(sums.mean("sup", n_paths))),
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
    gaps = []
    for spec in noise_specs:
        if spec.mode == "truncated":
            gaps.append(spec.base.second_moment - spec.truncation.second_moment)
        elif spec.mode == "quantized" and spec.base is not None:
            gaps.append(spec.base.second_moment - spec.atoms.second_moment)
        else:
            raise DomainError("error bounds need a truncated or quantized noise with a base law")
    if isinstance(x0, (int, float)):
        x0_m2 = float(x0) ** 2
    else:
        x0_m2 = x0.second_moment
    refined, product = truncation_error_bound(
        [t.lipschitz for t in arch.thetas],
        [t.c_envelope for t in arch.thetas],
        [t.c_frobenius for t in arch.thetas],
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


def truncation_error_bound(
    lipschitz,
    c_envelope,
    c_frobenius,
    q: int,
    x0_norm_sq: float,
    x0_gap_sq: float,
    noise_gap_sq,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step quadratic error bounds for a quasi-white-noise substitution.

    ``noise_gap_sq[k]`` is ``||Z_{k+1} - approx Z_{k+1}||_2^2``.  Returns
    ``(refined, product)`` where each entry k bounds
    ``||X_k - approx X_k||_2`` and the refined form keeps the per-step
    mixed products while the product form factors them out.
    """
    lip = np.asarray(lipschitz, dtype=float)
    env = np.asarray(c_envelope, dtype=float)
    cfr = np.asarray(c_frobenius, dtype=float)
    gap = np.asarray(noise_gap_sq, dtype=float)
    n = lip.size
    if not (env.size == cfr.size == gap.size == n):
        raise DomainError("per-step parameter lists must share one length")
    growth = 1.0 + q * lip ** 2
    big_c = np.maximum(q * lip ** 2, cfr)
    refined = np.empty(n + 1)
    product = np.empty(n + 1)
    refined[0] = product[0] = math.sqrt(max(x0_gap_sq, 0.0))
    for k in range(1, n + 1):
        lead = x0_gap_sq * np.prod(growth[:k])
        total = lead
        for el in range(k):
            total += (
                (1.0 + x0_norm_sq)
                * np.prod(growth[el + 1 : k])
                * np.prod(1.0 + cfr[:el])
                * env[el]
                * gap[el]
            )
        refined[k] = math.sqrt(max(total, 0.0))
        loose = lead + (1.0 + x0_norm_sq) * np.prod(1.0 + big_c[:k]) * float(
            np.sum(env[:k] * gap[:k])
        )
        product[k] = math.sqrt(max(loose, 0.0))
    return refined, product


def theta_norm_envelope(thetas, x0_second_moment: float) -> np.ndarray:
    """Envelope bound on ||theta_k(X_k)||_2^2 through the second-moment
    recursion E|X_k|^2 <= prod(1 + c_Fr)(E|X_0|^2 + 1) - 1."""
    cfr = np.asarray([t.c_frobenius for t in thetas], dtype=float)
    env = np.asarray([t.c_envelope for t in thetas], dtype=float)
    out = np.empty(cfr.size)
    for k in range(cfr.size):
        m2 = np.prod(1.0 + cfr[:k]) * (x0_second_moment + 1.0) - 1.0
        out[k] = env[k] * (1.0 + m2)
    return out


def quantized_innovation_bound(
    lipschitz,
    theta_norm_sq,
    noise_gap_sq,
    dual_distortion_sq,
    q: int,
    x0_gap_sq: float,
) -> np.ndarray:
    """Per-step bound on ||dual chain - exact chain||_2.

    Entry k accumulates the initial quantization error, the innovation
    substitution error scaled by ||theta_{l-1}(X_{l-1})||_2^2, and the dual
    projection distortions, each inflated by the downstream Lipschitz
    growth factors.
    """
    lip = np.asarray(lipschitz, dtype=float)
    tns = np.asarray(theta_norm_sq, dtype=float)
    gap = np.asarray(noise_gap_sq, dtype=float)
    dd = np.asarray(dual_distortion_sq, dtype=float)
    n = lip.size
    if not (tns.size == gap.size == dd.size == n):
        raise DomainError("per-step parameter lists must share one length")
    growth = 1.0 + q * lip ** 2
    out = np.empty(n + 1)
    out[0] = math.sqrt(max(x0_gap_sq, 0.0))
    for k in range(1, n + 1):
        total = x0_gap_sq * np.prod(growth[:k])
        for el in range(1, k + 1):
            total += np.prod(growth[el:k]) * (tns[el - 1] * gap[el - 1] + dd[el - 1])
        out[k] = math.sqrt(max(total, 0.0))
    return out


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


@dataclass(frozen=True)
class DominationRow:
    index: int
    mean_approx: float
    mean_exact: float
    mean_gap: float          # E phi(approx path) - E phi(exact path)
    standard_error: float    # batch-mean SE of the paired gap
    passed: bool


def domination_test(
    arch: ArchSpec,
    noise_specs,
    x0,
    battery: ConvexTestBattery,
    n_paths: int,
    seed: int,
    threads: int = 1,
) -> list[DominationRow]:
    """Statistical check that the approximate paths are dominated in the
    convex order: for every battery member, E phi(approx) <= E phi(exact)
    within 3 paired standard errors.

    The battery sees one block's ``(n_paths_in_block, n_steps + 1)`` paths
    at a time; the means and standard errors are those of the full arrays.
    """
    if n_paths < 2:
        raise DomainError("a batch-means standard error needs at least 2 paths")
    noise_specs = _checked_specs(arch, noise_specs, n_paths)
    whole = [(0, n_paths)]
    whole_and_batches = whole + _batch_ranges(n_paths)

    def reduce_block(block):
        _, lo, hi = block
        paths = np.empty((2, arch.n_steps + 1, hi - lo))
        for k, (x, xb, _) in enumerate(_block_steps(arch, noise_specs, x0, seed, block)):
            paths[0, k] = x
            paths[1, k] = xb
        sums = _PairwiseSums()
        for i, fn in enumerate(battery.members):
            v_exact = fn(paths[0].T)
            v_approx = fn(paths[1].T)
            sums.add((i, "exact"), v_exact, lo, whole)
            sums.add((i, "approx"), v_approx, lo, whole)
            sums.add((i, "gap"), v_approx - v_exact, lo, whole_and_batches)
        return sums

    sums = _stream_sums(reduce_block, n_paths, threads)
    rows = []
    for i in range(len(battery.members)):
        mean_gap = float(sums.mean((i, "gap"), n_paths))
        se = sums.batch_standard_error((i, "gap"), n_paths)
        rows.append(
            DominationRow(
                index=i,
                mean_approx=float(sums.mean((i, "approx"), n_paths)),
                mean_exact=float(sums.mean((i, "exact"), n_paths)),
                mean_gap=mean_gap,
                standard_error=se,
                passed=mean_gap <= 3.0 * se,
            )
        )
    return rows
