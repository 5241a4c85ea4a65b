"""numpy reference for the signs the halfspace round takes.

``box_label`` and the perceptron are the expressions the callers used before
``core.certain_sign`` decided their signs in Python floats, kept verbatim:
``BoxDistribution.label``'s comparison of the target's dot product with its
offset, and ``BoundaryProbeAdversary._sync``'s perceptron step.
``ensemble_vote`` is ``HalfspaceEnsemble.vote`` from before it kept its own
buffers.  The callers must give the same labels, weights and votes, bit for
bit.
"""

from __future__ import annotations

import numpy as np

from privpredict.core import NEGATIVE, POSITIVE


def box_label(normal, offset: float, p) -> int:
    """``BoxDistribution.label``: the target normal is an array made once."""
    return POSITIVE if float(np.dot(np.asarray(normal, dtype=float), p)) >= offset else NEGATIVE


def perceptron_predicts(w, x) -> int:
    """``BoundaryProbeAdversary._sync``'s prediction at x under weights w."""
    lifted = np.asarray(tuple(x) + (-1.0,))
    return POSITIVE if float(np.asarray(w, dtype=float) @ lifted) >= 0.0 else -POSITIVE


def perceptron_step(w, x, label: int) -> np.ndarray:
    """``BoundaryProbeAdversary._sync`` on one (x, label) pair: the weights
    after it."""
    w = np.asarray(w, dtype=float)
    if perceptron_predicts(w, x) != label:
        w = w + label * np.asarray(tuple(x) + (-1.0,))
    return w


def ensemble_vote(weights: np.ndarray, x) -> int:
    """``HalfspaceEnsemble.vote``: a fresh lifted array and a fresh product."""
    return int(np.count_nonzero(weights.dot(np.asarray(tuple(x) + (-1.0,))) >= 0.0))
