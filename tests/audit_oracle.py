"""The audit toy's transcript channel as it was before it cached query values.

``mechanism`` is ``AuditToy.mechanism`` from before the cache held each
sample's query values count / k: it cached the raw vote counts and divided each
one on use.  Kept as the oracle: the caching mechanism must give the same
transcripts from the same noise stream.
"""

from __future__ import annotations

from privpredict.concepts import ThresholdClass
from privpredict.core import LabeledSample, NoiseSource
from privpredict.dp import bt_init
from privpredict.predictor import answer_query


def mechanism(toy, scale_factor: float = 1.0):
    params = toy.params(scale_factor)
    stream = toy.stream()
    k = toy.k
    concept = ThresholdClass(toy.domain)
    counts_of: dict[LabeledSample, list[int]] = {}

    def mech(sample: LabeledSample, noise: NoiseSource):
        counts = counts_of.get(sample)
        if counts is None:
            blocks = concept.blocks(sample.points, sample.labels[:, None])
            ensemble = concept.ensemble(concept.erm_blocks((), blocks))
            counts = counts_of[sample] = ensemble.votes(stream).tolist()
        state = bt_init(params, noise)
        labels: list[int] = []
        for j, count in enumerate(counts, 1):
            _, label = answer_query(state, count / k, noise)
            labels.append(label)
            if state.halted:
                return tuple(labels), j, True
        return tuple(labels), 0, False

    return mech
