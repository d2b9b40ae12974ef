"""Per-iteration form of the training loop; a test-only oracle.

The package draws the training inputs for a block of iterations at once,
from the rows of its counter-based generator, and each iteration slices
its meta-batch.  This is the earlier form: each iteration draws its
meta-batch one row at a time (``loop_episodes.sample_episodes``),
pseudo-annotates each support from its own row's doubles
(``loop_annotators.pseudo_annotate_matrix`` on
``loop_annotators.row_generator``) and hashes its last episode's
confusions.  Everything else, the gradient,
Adam, validation and early stopping, is the package's, looked up on the
module at call time so that a test's patch applies to both forms.
"""

from __future__ import annotations

import hashlib

import numpy as np

import loop_annotators
import loop_episodes
from crowdmeta import metatrain as mt
from crowdmeta.encoder import EncoderParams, init_params


def meta_batch(source, config, iteration):
    """Iteration ``iteration``'s stacked episodes, their (B, N, R) support labels and its digest."""
    rows = [(iteration, b) for b in range(config.meta_batch)]
    episodes = loop_episodes.sample_episodes(source, config.ways, config.shots,
                                             config.query_per_class, config.master_seed,
                                             "episode", rows)
    if not config.pseudo_annotation:
        return episodes, episodes.support_y[..., None], "clean"
    labels = []
    for row, truth in zip(rows, episodes.support_y):
        rng = loop_annotators.row_generator(config.master_seed, "pseudo-annotate", row,
                                            config.num_annotators, len(truth))
        annotations, confusions = loop_annotators.pseudo_annotate_matrix(
            truth, config.num_annotators, config.pseudo_dist, config.ways, rng)
        labels.append(annotations)
    return episodes, np.stack(labels), hashlib.sha256(np.stack(confusions)).hexdigest()[:12]


def meta_train(source, val, config):
    """``mt.meta_train([source], [val], config)``, drawn an iteration at a time."""
    params = init_params(config.encoder)
    state = mt.TrainState.from_params(params)
    val_episodes = mt._validation_episodes(val, config)
    log, val_history = [], []
    bad_validations, stopped_early, iterations_run = 0, False, 0
    for iteration in range(1, config.max_iterations + 1):
        params = EncoderParams.unflatten(config.encoder, state.theta)
        episodes, labels, digest = meta_batch(source, config, iteration)
        loss, grad = mt.episode_loss_and_grad(params, episodes.support_x, labels,
                                              episodes.num_classes, episodes.query_x,
                                              episodes.query_y, config.hyper)
        try:
            mt.adam_update(state, grad, config)
        except mt.NonFiniteGradientError as exc:
            log.append(mt.TrainingLogRow(iteration, float("nan"), 0.0, f"skipped:{exc}"))
            continue
        iterations_run = iteration
        log.append(mt.TrainingLogRow(iteration, loss, 0.0, digest))
        if iteration % config.validation_interval == 0:
            current = EncoderParams.unflatten(config.encoder, state.theta)
            val_score = mt._validation_accuracy(current, val_episodes, config)
            val_history.append((iteration, val_score))
            if val_score > state.best_score:
                state.best_score, state.best_theta = val_score, state.theta.copy()
                state.best_iteration, bad_validations = iteration, 0
            else:
                bad_validations += 1
            if bad_validations >= config.patience:
                stopped_early = True
                break
    best_theta = state.best_theta if state.best_theta is not None else state.theta
    return mt.MetaTrainResult(
        params=EncoderParams.unflatten(config.encoder, best_theta),
        final_params=EncoderParams.unflatten(config.encoder, state.theta),
        log=log, val_history=val_history, best_iteration=state.best_iteration,
        best_val_accuracy=state.best_score if val_history else float("nan"),
        iterations_run=iterations_run, stopped_early=stopped_early,
    )
