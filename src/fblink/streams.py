"""Seed-derived random substreams on SFC64.

Every Monte Carlo unit of work (a channel realization, a batch of blocks, a
training round's noise draw) owns its own generator, derived from the campaign
seed plus an integer path. Streams are independent of execution order and of
worker count, which is what makes rerun-to-the-byte output possible.
"""

import numpy as np

# Path-domain constants keep unrelated consumers from colliding on the same
# substream even if they share a task index.
DOMAIN_REALIZATION = 1
DOMAIN_BLOCKS = 2
DOMAIN_LDP = 4
DOMAIN_DATA = 5
DOMAIN_INIT = 6
DOMAIN_MESSAGES = 7


def _is_index(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 0


def substream(seed, *path):
    """Return an SFC64 Generator for (seed, *path).

    The state is seeded by SeedSequence(entropy=seed, spawn_key=path), so
    identical arguments give an identical stream on any platform and in any
    spawn order, and distinct paths give statistically independent streams.
    The seed and every path entry must be non-negative integers (not bool).
    """
    if not (_is_index(seed) and all(_is_index(p) for p in path)):
        raise ValueError("stream seed and path must be non-negative integers")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.SFC64(ss))
