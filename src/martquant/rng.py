"""Reproducible random number generation.

Every sampler in the package draws from a single named generator: SFC64
(Chris Doty-Humphrey's Small Fast Chaotic generator, as implemented by
``numpy.random.SFC64``), seeded by ``numpy.random.SeedSequence([seed,
stream])``.  ``SeedSequence`` hashes the pair into the initial state, so
independent streams are derived from a base seed without statistical
coupling: stream ``b`` is the generator seeded by ``(seed, b)``.  Every
stream is read sequentially from its start, and the same pair gives the
same output on every platform.
"""

import numpy as np

__all__ = ["make_generator"]


def make_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """SFC64-based generator for ``(seed, stream)``.

    Distinct ``(seed, stream)`` pairs give independent streams; identical
    pairs give identical output on every platform.  The uniforms
    (``random``) and ``standard_normal`` of a stream are the same however
    the stream is sliced into calls.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative integers")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, stream])))
