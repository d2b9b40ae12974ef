"""Loop form of episode sampling; a test-only oracle.

The package decodes every (task, class) row of a chunk of episodes at once
with array operations, and a single episode as a chunk of one.
``decode_row`` is that decode in loop form, one episode from one row of
doubles: Floyd's algorithm with a set, each class's examples ordered by a
sort keyed on its next doubles.  ``sample_episodes`` decodes one row of
the package's counter-based generator at a time
(``loop_seeding.row_uniforms``) and stacks the episodes with
``stack_episodes``, which no package code needs since episodes are drawn
stacked.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

import loop_seeding
from crowdmeta.episodes import Episode


def stack_episodes(episodes):
    """Equal-shape episodes stacked along a leading task axis."""
    return Episode(*(np.array([getattr(e, f.name) for e in episodes]) for f in fields(Episode)))


def floyd(u, pool, size):
    """``size`` distinct integers in ``[0, pool)`` by Floyd's algorithm, one double per step."""
    taken, seen = [], set()
    for step, x in enumerate(u[:size]):
        j = pool - size + step
        draw = min(int(x * (j + 1)), j)
        taken.append(j if draw in seen else draw)
        seen.add(taken[-1])
    return taken


def decode_row(dataset, ways, shots, query_per_class, u):
    """The episode of one row of ``ways + 2·ways·need`` doubles, built class by class."""
    need = shots + query_per_class
    pools = {int(c): np.flatnonzero(dataset.labels == c) for c in np.unique(dataset.labels)}
    eligible = [c for c in sorted(pools) if len(pools[c]) >= need]
    class_ids = sorted(eligible[i] for i in floyd(u, len(eligible), ways))
    support, query = [], []
    for k, class_id in enumerate(class_ids):
        block = u[ways + 2 * need * k : ways + 2 * need * (k + 1)]
        picked = floyd(block, len(pools[class_id]), need)
        keys = block[need:]
        picked = [picked[i] for i in sorted(range(need), key=keys.__getitem__)]
        support += [pools[class_id][i] for i in picked[:shots]]
        query += [pools[class_id][i] for i in picked[shots:]]
    return Episode(
        class_ids=np.array(class_ids),
        support_x=dataset.features[support],
        support_y=np.repeat(np.arange(ways), shots),
        query_x=dataset.features[query],
        query_y=np.repeat(np.arange(ways), query_per_class),
    )


def sample_episodes(dataset, ways, shots, query_per_class, master_seed, label, indices):
    """The episodes of ``indices``' rows, each from its own row's doubles, stacked."""
    count = ways + 2 * ways * (shots + query_per_class)
    return stack_episodes([
        decode_row(dataset, ways, shots, query_per_class,
                   loop_seeding.row_uniforms(master_seed, label, row, count))
        for row in np.asarray(indices).tolist()])
