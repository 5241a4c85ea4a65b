"""numpy reference for the signs the halfspace round takes.

``box_label`` is ``BoxDistribution.label``'s comparison of the target's dot
product with its offset, from before labels were taken as a stack of products.
``ensemble_vote`` is ``HalfspaceEnsemble.vote`` from before it kept its own
buffers.  The callers must give the same labels and votes, bit for bit.
"""

from __future__ import annotations

import numpy as np

from privpredict.core import NEGATIVE, POSITIVE


def box_label(normal, offset: float, p) -> int:
    """``BoxDistribution.label``: the target normal is an array made once."""
    return POSITIVE if float(np.dot(np.asarray(normal, dtype=float), p)) >= offset else NEGATIVE


def ensemble_vote(weights: np.ndarray, x) -> int:
    """``HalfspaceEnsemble.vote``: a fresh lifted array and a fresh product."""
    return int(np.count_nonzero(weights.dot(np.asarray(tuple(x) + (-1.0,))) >= 0.0))
