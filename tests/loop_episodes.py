"""Loop form of episode sampling; a test-only oracle.

The package caches each dataset's eligible classes per size threshold,
gathers every class's support rows and query rows with one index array
each and builds the labels with ``np.repeat``.  This is the earlier form:
it re-sorts and re-filters the class ids on every call and assembles the
episode one class at a time, so the tests can check that both consume the
same draws and produce the same episodes.  ``sample_episodes`` is the
package's chunk draw in loop form: one row's doubles at a time
(``loop_seeding.row_uniforms``), Floyd's algorithm with a set, each
class's examples ordered by a sort keyed on its next doubles, then stacked
by ``stack_episodes``, which no package code needs since episodes are
drawn stacked.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

import loop_seeding
from crowdmeta.episodes import DataError, Episode


def sample_episode(dataset, ways, shots, query_per_class, rng):
    """A ways-class episode, built class by class."""
    if shots < 1:
        raise DataError("every class needs at least one support example")
    if query_per_class < 1:
        raise DataError("query_per_class must be >= 1")

    need = shots + query_per_class
    pools = {int(c): np.flatnonzero(dataset.labels == c) for c in np.unique(dataset.labels)}
    eligible = tuple(c for c in sorted(pools) if len(pools[c]) >= need)
    if len(eligible) < ways:
        raise DataError(
            f"only {len(eligible)} classes have {need}+ examples; need {ways}"
        )

    chosen = rng.choice(len(eligible), size=ways, replace=False)
    class_ids = tuple(sorted(eligible[i] for i in chosen))

    support_x, support_y, query_x, query_y = [], [], [], []
    for new_label, class_id in enumerate(class_ids):
        pool = pools[class_id]
        picked = rng.choice(len(pool), size=shots + query_per_class, replace=False)
        picked = pool[picked]
        support_x.append(dataset.features[picked[:shots]])
        query_x.append(dataset.features[picked[shots:]])
        support_y.append(np.full(shots, new_label, dtype=np.intp))
        query_y.append(np.full(query_per_class, new_label, dtype=np.intp))
    return Episode(
        class_ids=class_ids,
        support_x=np.concatenate(support_x),
        support_y=np.concatenate(support_y),
        query_x=np.concatenate(query_x),
        query_y=np.concatenate(query_y),
    )


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


def sample_episodes(dataset, ways, shots, query_per_class, master_seed, label, indices):
    """The episodes of ``indices``' rows, each from its own row's doubles, stacked."""
    need = shots + query_per_class
    pools = {int(c): np.flatnonzero(dataset.labels == c) for c in np.unique(dataset.labels)}
    eligible = [c for c in sorted(pools) if len(pools[c]) >= need]
    episodes = []
    for row in np.asarray(indices).tolist():
        u = loop_seeding.row_uniforms(master_seed, label, row, ways + 2 * ways * need)
        class_ids = sorted(eligible[i] for i in floyd(u, len(eligible), ways))
        support, query = [], []
        for k, class_id in enumerate(class_ids):
            block = u[ways + 2 * need * k : ways + 2 * need * (k + 1)]
            picked = floyd(block, len(pools[class_id]), need)
            keys = block[need:]
            picked = [picked[i] for i in sorted(range(need), key=keys.__getitem__)]
            support += [pools[class_id][i] for i in picked[:shots]]
            query += [pools[class_id][i] for i in picked[shots:]]
        episodes.append(Episode(
            class_ids=np.array(class_ids),
            support_x=dataset.features[support],
            support_y=np.repeat(np.arange(ways), shots),
            query_x=dataset.features[query],
            query_y=np.repeat(np.arange(ways), query_per_class),
        ))
    return stack_episodes(episodes)
