"""Counter-derived random substreams.

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
DOMAIN_ATTACK = 8


def substream(seed, *path):
    """Return a Generator for (seed, *path), counter-derived via Philox.

    Identical arguments give an identical stream on any platform and in any
    spawn order; distinct paths give statistically independent streams.
    """
    if not all(isinstance(p, (int, np.integer)) and p >= 0 for p in path):
        raise ValueError("stream path must be non-negative integers")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
