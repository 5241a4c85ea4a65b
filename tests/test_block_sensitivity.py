"""One changed record moves at most one block's hypothesis, end to end.

BetweenThresholds is private because each query's vote fraction has
sensitivity 1/k (``BTParams.n = k``).  That holds only if every refit keeps the
blocks independent: block i's hypothesis may depend on block i and on public
state (the version space or feasible subspace, the dropped constraints and the
released labels), never on another block's records.

Each case runs ``predictor.run`` on a sample S, takes its public sequence of
``on_top`` calls, and drives generators through it: one on S and one on each
neighbour S' that differs from S in one record.  ``partition`` draws from the
noise alone, so all of them get the same blocks.  After every step each
generator refits.  A neighbour's ``payload()`` rows may differ from S's only
in the block that holds its changed record, bit for bit, and no vote at a
queried point may differ by more than one.

The oblivious cases append a few more public (point, label) steps.  A run's
hard labels never contradict its version space (the blocks disagree at a hard
point, so either label leaves a fit), and only such steps reach ``refresh``'s
constraint drop.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from privpredict import geometry
from privpredict.adversaries import BoundaryProbeAdversary, OfflineAdversary
from privpredict.concepts import EnumeratedClass, ThresholdClass
from privpredict.core import LabeledSample, NoiseSource, partition
from privpredict.predictor import RunSpec, _HalfspaceGenerator, _ObliviousGenerator, run

K = 4  # blocks; at bt_eps 30 and bt_delta 0.2 the threshold gap holds for k = 4
BT = dict(bt_eps=30.0, bt_delta=0.2)
GRID = [(float(x),) for x in range(1, 17)]  # the threshold class's grid
CLASS_POINTS = [(1.0,), (2.0,), (3.0,), (4.0,)]  # the enumerated classes' domain
SIGNS = (-1, 1)


def _rows(ensemble) -> list[str]:
    """The payload rows as JSON text: float reprs round-trip, -0.0 included."""
    return [json.dumps(row, sort_keys=True) for row in ensemble.payload()]


def _neighbour(sample: LabeledSample, index: int, point, label: int) -> LabeledSample:
    points, labels = np.array(sample.points), np.array(sample.labels)
    points[index], labels[index] = point, label
    return LabeledSample(points, labels)


def _replay(spec, sample, neighbours, adversary, seed, concept=None, extra=()):
    """Check every neighbour's refits against S's along the run's public
    on_top sequence, then along the ``extra`` (point, label) steps.

    ``neighbours`` holds (sample, index of its changed record) pairs.  Returns
    each refit's generator reports, S's first (dropped constraints, or the
    least block depth), and whether S's subspace ended degenerate."""
    report = run(spec, sample, adversary, NoiseSource(seed), concept=concept)
    order = partition(sample, spec.k, NoiseSource(seed).child(0))
    blocks = []
    for neighbour, changed in neighbours:
        assert (order == partition(neighbour, spec.k, NoiseSource(seed).child(0))).all()
        [block], _ = np.nonzero(order == changed)
        blocks.append(block)
    generators = [
        _ObliviousGenerator(concept, s.points[order], s.labels[order]) if concept
        else _HalfspaceGenerator(s.points[order], s.labels[order])
        for s in [sample] + [neighbour for neighbour, _ in neighbours]
    ]
    full_queries = adversary.disclose()
    queries = [r["x"] for r in report.rounds]
    steps = [(top["x"], top["label"]) for top in report.top_rounds] + list(extra)
    found = []
    for step in [None] + steps:
        if step is not None:
            for generator in generators:
                generator.on_top(*step, full_queries)
        fits = [generator.refresh() for generator in generators]
        ensemble, rows = fits[0][0], _rows(fits[0][0])
        for block, (other, _) in zip(blocks, fits[1:]):
            differ = [i for i, (a, b) in enumerate(zip(rows, _rows(other))) if a != b]
            assert differ in ([], [block])
            for x in queries:
                assert abs(ensemble.vote(x) - other.vote(x)) <= 1
        found.append([reported for _, reported in fits])
    return found, generators[0].degenerate


def _oblivious_case(concept, m, t_rounds, seed, records, changes, queries, extra) -> bool:
    """Replays with one neighbour per (index, (point, label)) change; returns
    whether some refit dropped a constraint."""
    sample = LabeledSample([p for p, _ in records], [lab for _, lab in records])
    neighbours = [(_neighbour(sample, index, *new), index) for index, new in changes]
    spec = RunSpec(k=K, m=m, t_rounds=t_rounds, v_max=t_rounds, **BT)
    found, _ = _replay(spec, sample, neighbours, OfflineAdversary(tuple(queries)), seed,
                       concept, extra)
    # which constraints a refit drops is public: every sample drops the same ones
    assert all(dropped == reported[0] for reported in found for dropped in reported)
    return any(reported[0] for reported in found)


def _oblivious_draws(data, domain, m, t_rounds):
    record = st.tuples(st.sampled_from(domain), st.sampled_from(SIGNS))
    return dict(
        records=data.draw(st.lists(record, min_size=K * m, max_size=K * m)),
        changes=data.draw(st.lists(st.tuples(st.integers(0, K * m - 1), record),
                                   min_size=1, max_size=K)),
        queries=data.draw(st.lists(st.sampled_from(domain), min_size=t_rounds,
                                   max_size=t_rounds)),
        extra=data.draw(st.lists(record, max_size=4)),
    )


@given(data=st.data(), m=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_threshold_neighbours_differ_in_one_block(data, m, seed):
    _oblivious_case(ThresholdClass(len(GRID)), m, 24, seed,
                    **_oblivious_draws(data, GRID, m, 24))


@given(data=st.data(), m=st.integers(1, 3), seed=st.integers(0, 2**16),
       patterns=st.sets(st.tuples(*[st.sampled_from(SIGNS)] * len(CLASS_POINTS)),
                        min_size=1, max_size=6))
@settings(max_examples=25, deadline=None)
def test_enumerated_neighbours_differ_in_one_block(data, m, seed, patterns):
    concept = EnumeratedClass(CLASS_POINTS, sorted(patterns))
    _oblivious_case(concept, m, 16, seed, **_oblivious_draws(data, CLASS_POINTS, m, 16))


def test_oblivious_replays_pass_through_constraint_drops():
    """Two extra steps give the point 1 both labels, which empties the version
    space: every replay drops the same constraints."""
    classes = [
        (ThresholdClass(len(GRID)), GRID),
        (EnumeratedClass(CLASS_POINTS, [(-1, -1, 1, 1), (1, 1, -1, -1)]), CLASS_POINTS),
    ]
    for concept, domain in classes:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            draw = lambda size: [domain[i] for i in rng.integers(0, len(domain), size)]
            records = list(zip(draw(2 * K), rng.choice(SIGNS, 2 * K).tolist()))
            changes = [(3, (domain[0], -records[3][1]))]
            contradiction = [(domain[0], 1), (domain[0], -1)]
            assert _oblivious_case(concept, 2, 24, seed, records, changes, draw(24),
                                   contradiction)


def _halfspace_case(d, m, seed, per_chunk) -> bool:
    """Replays with one neighbour per block, each changing a random record of
    its block, under a kernel budget of ``per_chunk`` blocks per chunk at the
    full dimension (None: the default, every block in one chunk).  Returns
    whether the subspace ended degenerate."""
    rng = np.random.default_rng(seed)
    sample = LabeledSample(rng.uniform(-1, 1, (K * m, d)), rng.choice(SIGNS, K * m))
    neighbours = []
    for block in partition(sample, K, NoiseSource(seed).child(0)):
        changed = int(block[rng.integers(m)])
        neighbours.append((_neighbour(sample, changed, rng.uniform(-1, 1, d),
                                      int(rng.choice(SIGNS))), changed))
    spec = RunSpec(k=K, m=m, t_rounds=32, v_max=8, **BT)
    adversary = BoundaryProbeAdversary([-1.0] * d, [1.0] * d, tau=0.1)
    budget = geometry.KERNEL_BYTES
    if per_chunk is not None:
        # the step argmax_cdepth_blocks takes on the full (d + 1)-dimensional space
        budget = per_chunk * 8 * geometry.check_cap(m, d + 1, 64) * (m + 4 * (d + 1))
    with mock.patch.object(geometry, "KERNEL_BYTES", budget):
        _, degenerate = _replay(spec, sample, neighbours, adversary, seed)
    return degenerate


@given(d=st.integers(1, 2), m=st.integers(2, 5), seed=st.integers(0, 2**16),
       per_chunk=st.sampled_from([None, 1, 2]))
@settings(max_examples=20, deadline=None)
def test_halfspace_neighbours_differ_in_one_block(d, m, seed, per_chunk):
    _halfspace_case(d, m, seed, per_chunk)


def test_halfspace_replays_reach_the_degenerate_subspace_in_every_chunking():
    """d = 1 needs two independent hard queries to reach the zero-dimensional
    subspace; at some of these seeds each kernel budget gets there."""
    for per_chunk in (None, 1, 2):
        assert any(_halfspace_case(1, 3, seed, per_chunk) for seed in range(8))
