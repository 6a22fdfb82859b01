"""Named, reproducible random substreams.

Every stochastic component derives its generator from a single root seed
plus a path of names, so results never depend on call order or on how
many other components consumed randomness first.
"""

import zlib

import numpy as np


# quoted, so importing this module does not load numpy.random; only a draw does
def substream(seed: int, *path) -> "np.random.Generator":
    """Return a Generator for the substream identified by ``path``.

    Path elements may be strings or integers. The same (seed, path) pair
    always yields an identical stream, independent of platform and of any
    other substream drawn from the same seed.
    """
    key = []
    for part in path:
        if isinstance(part, (int, np.integer)):
            key.append(int(part) & 0xFFFFFFFF)
        else:
            key.append(zlib.crc32(str(part).encode("utf-8")))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=tuple(key))))
