"""Episodic bi-level training loop.

Each outer iteration takes a meta-batch of episodes from the source
dataset, each support set pseudo-annotated by freshly drawn annotators,
adapts the task-specific classifiers with the unrolled EM on the embedded
supports, scores the clean query sets, and backpropagates the mean query
loss through every EM step into the encoder parameters, which an Adam step
then updates.  The whole meta-batch is one pass, forward and back: the
episodes are stacked along a leading task axis through the encoder and the
closed-form updates of :mod:`crowdmeta.em`, and the gradient chains the
layers' own reverse passes, :func:`crowdmeta.em.backward` and
:func:`crowdmeta.encoder.backward` (:func:`episode_loss_and_grad`).

Episodes travel as stacked chunks, each drawn at once from its tasks'
rows of crowdmeta's counter-based generator
(:func:`crowdmeta.episodes.sample_episodes`), and a chunk's annotators are
drawn together too: each support's from its own row of doubles
(:func:`crowdmeta.seeding.uniforms`), all decoded in one
:func:`crowdmeta.annotators.simulate_annotators` pass
(:func:`_draw_annotators`).  Training draws its inputs a block of up to
:data:`TRAIN_BLOCK` episodes at a time, whole meta-batches of consecutive
iterations (:func:`training_block`): the episodes, their pseudo-annotated
support labels and each iteration's pseudo digest.  Each iteration slices
its meta-batch from the block: a row's draws do not depend on the other
rows of its block, and no draw depends on the parameters.  The block's
labels are validated once, into :class:`crowdmeta.em.CheckedLabels`
whose slices each iteration's support set takes unchecked; only the
embeddings, which the encoder can make non-finite, are checked per
iteration.  The EM's label-only start, :class:`crowdmeta.em.LabelStart`,
is built once per block too, and sliced like the labels.  The loop
reads θ through views of the flat parameter vector, without the copy and
finiteness scan of :class:`~crowdmeta.encoder.EncoderParams`, since
:func:`adam_update` rejects a non-finite gradient.  Evaluation and
validation episodes are drawn in stacked chunks of up to
:data:`EVAL_CHUNK` tasks (:func:`episode_chunks`); the validation
annotators are drawn at the first validation and kept for the later ones.
:func:`embed_episodes` embeds a chunk in encoder passes of whole tasks, at
most :data:`ENCODE_ROWS` rows each; :func:`evaluate` then walks the
chunks, draws each chunk's annotators, and adapts and scores each chunk as
given, one stacked support set, one :func:`crowdmeta.em.adapt` and one
prediction per chunk (:func:`adapt_and_score`).  Embedding once lets every
annotator setting of an evaluation grid score the same embedded episodes.
Two bounds keep memory flat in the task count: the encoder's activations
grow per row, so :data:`ENCODE_ROWS` caps an encoder pass, and the EM's
working set grows per task, so :data:`EVAL_CHUNK` caps an adaptation.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import em, encoder
from .annotators import (AnnotatorDistribution, SimulatedAnnotators, block_size,
                         simulate_annotators)
from .encoder import EncoderConfig, EncoderParams, forward, init_params
from .episodes import Episode, LabeledDataset, sample_episodes
from .seeding import uniforms

logger = logging.getLogger("crowdmeta")


@dataclass(frozen=True)
class MetaConfig:
    """Everything the training loop needs besides the data."""

    ways: int
    shots: int
    query_per_class: int
    num_annotators: int
    pseudo_dist: AnnotatorDistribution
    hyper: em.PriorHyperparams
    encoder: EncoderConfig
    learning_rate: float = 1e-3
    max_iterations: int = 1000
    validation_interval: int = 100
    patience: int = 5
    val_episodes_per_task: int = 1
    meta_batch: int = 1
    pseudo_annotation: bool = True  # False = train on clean single-annotator labels
    val_dist: AnnotatorDistribution | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.ways < 2:  # annotator simulation needs a class to confuse with
            raise ValueError(f"ways must be >= 2 (got {self.ways})")
        for name in ("shots", "query_per_class", "num_annotators",
                     "max_iterations", "validation_interval", "patience",
                     "val_episodes_per_task", "meta_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails this too
            raise ValueError(f"learning_rate must be finite and > 0 (got {self.learning_rate})")


@dataclass
class TrainState:
    """Flat parameters plus Adam moments and the best-validation snapshot."""

    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    best_theta: np.ndarray | None = None
    best_score: float = -np.inf
    best_iteration: int = 0

    @classmethod
    def from_params(cls, params: EncoderParams) -> "TrainState":
        theta = params.flatten()
        return cls(theta=theta, m=np.zeros_like(theta), v=np.zeros_like(theta))


# Adam's usual moment decay rates and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class NonFiniteGradientError(RuntimeError):
    """Gradient contained NaN or infinity; the update was aborted."""


def adam_update(state: TrainState, gradient: np.ndarray, config: MetaConfig) -> TrainState:
    """Standard bias-corrected Adam step on ``state``.

    ``state.theta`` is rebound to a new array, never written in place:
    :func:`meta_train` reads the parameters through views of the old one.
    A non-finite gradient is rejected, so every θ the loop reads is finite.
    """
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != state.theta.shape:
        raise ValueError(
            f"gradient shape {gradient.shape} does not match parameters {state.theta.shape}"
        )
    finite = np.isfinite(gradient)
    if not finite.all():
        raise NonFiniteGradientError(f"{int((~finite).sum())} non-finite gradient entries")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * gradient
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * gradient * gradient
    m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
    state.theta = state.theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


def _scored_query(
    u: np.ndarray, labels: np.ndarray, prototypes: np.ndarray, class_prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Query log scores, their row log-sum-exp, and the mean label loss over all episodes."""
    if u.ndim < 2 or u.shape[-2] == 0:
        raise ValueError("query set must be a nonempty (N, M) array")
    scores = em.class_log_scores(u, prototypes, class_prior)
    lse = em.logsumexp(scores, axis=-1)
    rows = scores.reshape(-1, scores.shape[-1])
    picked = rows[np.arange(labels.size), labels.ravel()].reshape(labels.shape)
    return scores, lse, float(np.sum(lse - picked)) / labels.size


def query_loss(
    classifier: em.AdaptedClassifier,
    query_embeddings: np.ndarray,
    query_labels: np.ndarray,
) -> float:
    """Mean negative log-probability of the true query labels."""
    u = np.asarray(query_embeddings, dtype=np.float64)
    labels = np.asarray(query_labels, dtype=np.intp)
    if labels.shape != u.shape[:-1]:
        raise ValueError(f"query labels of shape {labels.shape} do not match "
                         f"query embeddings of shape {u.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < classifier.num_classes:
        raise ValueError(f"query labels must lie in [0, {classifier.num_classes}), "
                         f"got {labels.min()} to {labels.max()}")
    return _scored_query(u, labels, classifier.prototypes, classifier.class_prior)[2]


def episode_loss_and_grad(
    params: EncoderParams,
    support_x: np.ndarray,
    annotations: np.ndarray,
    num_classes: int,
    query_x: np.ndarray,
    query_y: np.ndarray,
    hyper: em.PriorHyperparams,
    start: em.LabelStart | None = None,
) -> tuple[float, np.ndarray]:
    """Mean query loss after the unrolled EM, and its gradient w.r.t. the flat parameters.

    ``support_x`` is ``(B, N, D)`` with ``(B, N, R)`` labels, ``query_x``
    ``(B, Q, D)`` and ``query_y`` ``(B, Q)``: B episodes of equal shape,
    whose loss is the mean of theirs.  Two-dimensional inputs are a single
    episode.  The labels are a label matrix, or
    :class:`crowdmeta.em.CheckedLabels` validated before, as a training
    block's are; ``start`` is their :class:`crowdmeta.em.LabelStart` under
    ``hyper`` when the caller built it, as a training block does.  The
    gradient is the chain rule over three layers, each with its own reverse
    pass: one encoder pass embeds every support and query row,
    :func:`crowdmeta.em.iterate` records the EM steps on the stacked
    supports, ending on an M step whose confusions it leaves uncomputed
    because the loss reads only the last prototypes and class prior, and
    the query log-softmax scores the queries.  Backwards,
    :func:`crowdmeta.em.class_log_scores_vjp` and
    :func:`crowdmeta.em.backward` carry the loss gradient to the support
    and query embeddings, and :func:`crowdmeta.encoder.backward` to the
    parameters.
    """
    support_x = np.asarray(support_x, dtype=np.float64)
    query_x = np.asarray(query_x, dtype=np.float64)
    labels = np.asarray(query_y, dtype=np.intp)
    if not isinstance(annotations, em.CheckedLabels):
        annotations = np.asarray(annotations)
    if support_x.ndim == 2:  # one episode
        support_x, query_x, labels = support_x[None], query_x[None], labels[None]
        annotations = annotations[None]
        start = None if start is None else start[None]
    (b, n, width), q = support_x.shape, labels.shape[1]
    x = np.concatenate([support_x.reshape(b * n, width), query_x.reshape(b * q, width)])
    u, record = encoder.forward_recorded(x, params)
    u_support = u[: b * n].reshape(b, n, -1)
    u_query = u[b * n :].reshape(b, q, -1)
    support = em.SupportSet(embeddings=u_support, annotations=annotations,
                            num_classes=num_classes, num_annotators=annotations.shape[-1])
    steps = list(em.iterate(support, hyper, start, last_confusions=False))
    _, _, protos, pi, _ = steps[-1]

    scores, lse, loss = _scored_query(u_query, labels, protos, pi)

    d_scores = np.exp(scores - lse[..., None])
    d_scores[np.arange(b)[:, None], np.arange(q), labels] -= 1.0
    d_scores /= labels.size
    d_query, d_protos, d_pi = em.class_log_scores_vjp(d_scores, u_query, protos, pi)
    d_support = em.backward(support, hyper, steps, d_protos, d_pi)
    d_u = np.concatenate([d_support.reshape(b * n, -1), d_query.reshape(b * q, -1)])
    return loss, encoder.backward(record, d_u)


def mean_and_stderr(accuracies: Sequence[float]) -> tuple[float, float]:
    """Mean accuracy over tasks and its standard error (0 for a single task)."""
    n = len(accuracies)
    stderr = float(np.std(accuracies, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(accuracies)), stderr


# tasks per stacked adaptation: the EM's working set grows per task, so the
# chunk keeps evaluation memory flat in the task count.  Each stack also pays
# a fixed cost of numpy calls, which 256 tasks spread until the per-task time
# barely falls, and a 200-task grid cell is one stack.  A stack of 4-way
# 5-shot tasks with 7 annotators holds about 9.4 KB a task while it is drawn
# and fitted, 2.4 MB at 256
EVAL_CHUNK = 256
# rows per encoder pass: the hidden activations grow per row and outweigh the
# EM's working set, so :func:`embed_episodes` splits a chunk by rows too
ENCODE_ROWS = 2048


def episode_chunks(dataset: LabeledDataset, rows: Sequence[tuple[int, ...]], ways: int,
                   shots: int, query_per_class: int, master_seed: int,
                   label: str) -> Iterator[Episode]:
    """Consecutive runs of at most :data:`EVAL_CHUNK` episodes of ``dataset``, each stacked.

    Each chunk is one :func:`~crowdmeta.episodes.sample_episodes` call
    over its rows, and a row's episode does not depend on the chunk.
    """
    for start in range(0, len(rows), EVAL_CHUNK):
        yield sample_episodes(dataset, ways, shots, query_per_class, master_seed, label,
                              rows[start : start + EVAL_CHUNK])


def embed_episodes(params: EncoderParams, episodes: Episode) -> Episode:
    """The stacked episodes with ``support_x`` and ``query_x`` replaced by their embeddings.

    Each encoder pass embeds the support rows, then the query rows, of as
    many whole tasks as fit in :data:`ENCODE_ROWS` rows (at least one), and
    writes them into the result's arrays.  A row's embedding has the same
    bits in any pass of two rows or more, so the passes change no output
    unless a task has a single row: a one-row pass takes numpy's vector
    path and differs in the last bits.
    """
    (b, n, width), q = episodes.support_x.shape, episodes.query_x.shape[1]
    out = params.weights[-1].shape[1]
    support, query = np.empty((b, n, out)), np.empty((b, q, out))
    per_pass = max(1, ENCODE_ROWS // (n + q))
    for start in range(0, b, per_pass):
        tasks = slice(start, min(start + per_pass, b))
        k = tasks.stop - start
        u = forward(np.concatenate([episodes.support_x[tasks].reshape(k * n, width),
                                    episodes.query_x[tasks].reshape(k * q, width)]), params)
        support[tasks] = u[: k * n].reshape(k, n, out)
        query[tasks] = u[k * n :].reshape(k, q, out)
    return replace(episodes, support_x=support, query_x=query)


def fit_em(support_u: np.ndarray, labels: np.ndarray, num_classes: int,
           hyper: em.PriorHyperparams) -> em.AdaptedClassifier:
    """EM adaptation to ``(B, N, M)`` support embeddings and their ``(B, N, R)`` labels."""
    support = em.SupportSet(embeddings=support_u, annotations=labels, num_classes=num_classes,
                            num_annotators=labels.shape[-1])
    return em.adapt(support, hyper)


# support embeddings, label matrices, class count, priors -> classifier
Fit = Callable[[np.ndarray, np.ndarray, int, em.PriorHyperparams], em.AdaptedClassifier]


def adapt_and_score(episodes: Episode, labels: np.ndarray, hyper: em.PriorHyperparams,
                    fit: Fit = fit_em) -> tuple[np.ndarray, np.ndarray]:
    """Per-task query accuracy and support-label recovery of one fit to the stacked supports.

    ``labels`` stacks the tasks' ``(N, R)`` label matrices; one ``fit``
    call adapts them all.  Recovery is the fraction of support examples
    whose most responsible class is their true label.  The episodes are
    scored as given: embedded by :func:`embed_episodes`, or raw features.
    """
    classifier = fit(episodes.support_x, labels, episodes.num_classes, hyper)
    recovered = em._argmax(classifier.responsibilities) == episodes.support_y
    predicted = em.predict_labels(episodes.query_x, classifier)
    return np.mean(predicted == episodes.query_y, axis=-1), np.mean(recovered, axis=-1)


def _draw_annotators(support_y: np.ndarray, dist: AnnotatorDistribution | None,
                     num_annotators: int, num_classes: int, master_seed: int, label: str,
                     rows) -> tuple[np.ndarray, SimulatedAnnotators | None]:
    """The ``(B, N, R)`` labels of B stacked supports, and the annotators who gave them.

    Support b's annotators are decoded from the doubles of row b of
    ``uniforms(master_seed, label, rows, ...)``
    (:func:`~crowdmeta.seeding.uniforms`), all B in one
    :func:`~crowdmeta.annotators.simulate_annotators` pass.
    ``dist=None`` labels each support with its clean labels as one perfect
    annotator instead, draws no doubles, and returns no annotators.
    """
    if dist is None:
        return support_y[..., None], None
    block = uniforms(master_seed, label, rows, block_size(num_annotators, support_y.shape[1]))
    drawn = simulate_annotators(support_y, num_annotators, dist, num_classes, block)
    return drawn.labels, drawn


@dataclass
class EvalResult:
    accuracies: np.ndarray
    mean: float
    stderr: float
    recovery: np.ndarray  # per-task support-label recovery
    annotator_kinds: np.ndarray  # (tasks, R) codes into annotators.KINDS; no rows if clean
    annotator_q: np.ndarray  # (tasks, R) accuracies, NaN for spammers


def evaluate(
    chunks: Sequence[Episode],
    dist: AnnotatorDistribution | None,
    hyper: em.PriorHyperparams,
    num_annotators: int,
    master_seed: int,
    stream_label: str = "eval-annotators",
    fit: Fit = fit_em,
    draws: list | None = None,
) -> EvalResult:
    """Simulate annotators per task from its own row of doubles, fit, and score query accuracy.

    ``chunks`` are stacked episodes; the task index runs across them, so
    task i's annotators come from the row ``(i,)`` of ``stream_label``'s
    doubles, drawn for a chunk at once by :func:`_draw_annotators`.
    ``dist=None`` labels each support with its clean labels as one perfect
    annotator instead.  The episodes are scored as given, embedded or raw.  Each
    chunk takes one annotator draw and one :func:`adapt_and_score` call.

    ``draws``, when given, keeps each chunk's labels and its annotators'
    kinds and accuracies from one call to the next on the same chunks: a
    chunk it holds is scored on them without a draw, and a chunk it lacks
    is drawn and appended, its labels checked as
    :class:`crowdmeta.em.CheckedLabels`, which ``fit`` must take, as
    :func:`fit_em` does.
    """
    if not chunks:
        raise ValueError("evaluate needs at least one episode (got an empty episode list)")
    n = sum(len(chunk.support_y) for chunk in chunks)
    accuracies, recovery = np.empty(n), np.empty(n)
    simulated = 0 if dist is None else n
    kinds = np.empty((simulated, num_annotators), dtype=np.intp)
    q = np.empty((simulated, num_annotators))
    stop = 0
    for i, chunk in enumerate(chunks):
        tasks = slice(stop, stop + len(chunk.support_y))
        stop = tasks.stop
        if draws is not None and i < len(draws):
            labels, profiles = draws[i]
        else:
            labels, drawn = _draw_annotators(chunk.support_y, dist, num_annotators,
                                             chunk.num_classes, master_seed, stream_label,
                                             np.arange(tasks.start, tasks.stop)[:, None])
            profiles = None if drawn is None else (drawn.kinds, drawn.q)
            del drawn  # peak memory: the confusions are freed before the fit
            if draws is not None:
                labels = em.CheckedLabels.check(labels, chunk.num_classes)
                draws.append((labels, profiles))
        if profiles is not None:
            kinds[tasks], q[tasks] = profiles
        accuracies[tasks], recovery[tasks] = adapt_and_score(chunk, labels, hyper, fit)
    mean, stderr = mean_and_stderr(accuracies)
    return EvalResult(accuracies=accuracies, mean=mean, stderr=stderr, recovery=recovery,
                      annotator_kinds=kinds, annotator_q=q)


@dataclass
class TrainingLogRow:
    iteration: int
    loss: float
    # a block's first iteration includes its draw, decode and label validation, and the
    # EM's label-only start
    wall_ms: float
    pseudo_digest: str


@dataclass
class MetaTrainResult:
    params: EncoderParams  # best-validation snapshot (final if never validated)
    final_params: EncoderParams
    log: list[TrainingLogRow]
    val_history: list[tuple[int, float]]
    best_iteration: int
    best_val_accuracy: float
    iterations_run: int
    stopped_early: bool


def _validation_accuracy(
    params: EncoderParams, val_episodes: Sequence[Episode], config: MetaConfig,
    draws: list | None = None,
) -> float:
    """Mean adaptation accuracy on the fixed, stacked validation episodes.

    The main path simulates target annotators from the validation
    distribution; the no-pseudo-annotation ablation validates on clean
    single-annotator labels to stay a fully noise-free meta-learner
    (unless a validation distribution is set explicitly).  Given a
    ``draws`` list, the labels are drawn and checked at the first
    validation and kept there for the later ones (:func:`evaluate`).
    """
    dist = config.val_dist
    if dist is None and config.pseudo_annotation:
        dist = config.pseudo_dist
    return evaluate(
        [embed_episodes(params, chunk) for chunk in val_episodes],
        dist,
        config.hyper,
        config.num_annotators,
        config.master_seed,
        stream_label="val-annotators",
        draws=draws,
    ).mean


def _validation_episodes(val: LabeledDataset, config: MetaConfig) -> list[Episode]:
    rows = [(0, j) for j in range(config.val_episodes_per_task)]
    return list(episode_chunks(val, rows, config.ways, config.shots, config.query_per_class,
                               config.master_seed, "val-episode"))


# episodes per block of training draws: spreads the draws' fixed cost over
# many rows, and bounds the memory a block holds
TRAIN_BLOCK = 64


def training_block(source: LabeledDataset, config: MetaConfig,
                   iterations: range) -> tuple[Episode, np.ndarray, list[str]]:
    """The episodes, support labels and pseudo digests of the meta-batches of ``iterations``.

    Row ``(i - iterations.start) · meta_batch + b`` holds episode b of
    iteration i, drawn from the row ``(i, b)`` of the ``"episode"``
    doubles, and its ``(N, R)`` support labels, from annotators drawn
    from the row ``(i, b)`` of the ``"pseudo-annotate"`` doubles
    (:func:`_draw_annotators`).  Each iteration's digest is the first 12
    hex digits of the SHA-256 of its last episode's confusions.  Without
    pseudo-annotation each support keeps its clean labels, no annotator
    is drawn, and every digest is ``"clean"``.  The episodes are one
    :func:`~crowdmeta.episodes.sample_episodes` call, the annotators one
    pass.
    """
    rows = [(i, b) for i in iterations for b in range(config.meta_batch)]
    episodes = sample_episodes(source, config.ways, config.shots, config.query_per_class,
                               config.master_seed, "episode", rows)
    dist = config.pseudo_dist if config.pseudo_annotation else None
    labels, drawn = _draw_annotators(episodes.support_y, dist, config.num_annotators,
                                     episodes.num_classes, config.master_seed,
                                     "pseudo-annotate", rows)
    if drawn is None:
        return episodes, labels, ["clean"] * len(iterations)
    last = range(config.meta_batch - 1, len(rows), config.meta_batch)
    return episodes, labels, [hashlib.sha256(drawn.confusions[t]).hexdigest()[:12] for t in last]


def meta_train(
    source_tasks: Sequence[LabeledDataset],
    val_tasks: Sequence[LabeledDataset],
    config: MetaConfig,
) -> MetaTrainResult:
    """Run the outer loop on one source dataset, with early stopping on one validation dataset.

    ``source_tasks`` and ``val_tasks`` each hold exactly one dataset; the
    tasks are the episodes drawn from its classes.  Validation episodes and
    their simulated annotators are fixed once from the master seed, so
    successive validation scores are comparable and the whole run is
    reproducible.  The training inputs, episodes and pseudo-annotated
    support labels, are drawn a block of up to :data:`TRAIN_BLOCK` episodes
    at a time (:func:`training_block`), whole meta-batches of consecutive
    iterations, in the first iteration of the block, which also validates
    the block's labels and builds their label-only EM start
    (:class:`crowdmeta.em.LabelStart`); each iteration slices its
    meta-batch and takes one
    :func:`episode_loss_and_grad` pass over it, reading θ through views of
    ``state.theta``.  The returned parameters are checked
    :class:`~crowdmeta.encoder.EncoderParams`.
    """
    if len(source_tasks) != 1 or len(val_tasks) != 1:
        raise ValueError(f"meta_train needs exactly one source and one validation dataset "
                         f"(got {len(source_tasks)} source and {len(val_tasks)} validation)")
    (source,), (val,) = source_tasks, val_tasks
    params = init_params(config.encoder)
    state = TrainState.from_params(params)
    val_episodes = _validation_episodes(val, config)
    val_draws: list = []  # the validation labels, drawn at the first validation

    log: list[TrainingLogRow] = []
    val_history: list[tuple[int, float]] = []
    bad_validations = 0
    stopped_early = False
    iterations_run = 0
    batch = config.meta_batch
    per_block = max(1, TRAIN_BLOCK // batch)

    for iteration in range(1, config.max_iterations + 1):
        tic = time.perf_counter()
        params = encoder._read_layout(config.encoder, state.theta)
        at = (iteration - 1) % per_block * batch
        if at == 0:
            # the last block is spent: its memory can serve the draw
            episodes = labels = start = None
            episodes, labels, digests = training_block(
                source, config,
                range(iteration, min(iteration + per_block, config.max_iterations + 1)))
            labels = em.CheckedLabels.check(labels, episodes.num_classes)
            start = em.LabelStart.of(labels, config.hyper)
        part = slice(at, at + batch)
        loss, grad = episode_loss_and_grad(params, episodes.support_x[part], labels[part],
                                           episodes.num_classes, episodes.query_x[part],
                                           episodes.query_y[part], config.hyper, start[part])
        try:
            adam_update(state, grad, config)
        except NonFiniteGradientError as exc:
            log.append(TrainingLogRow(iteration, float("nan"), 0.0, f"skipped:{exc}"))
            continue
        iterations_run = iteration
        log.append(TrainingLogRow(iteration, loss, (time.perf_counter() - tic) * 1e3,
                                  digests[at // batch]))

        if iteration % config.validation_interval == 0:
            current = encoder._read_layout(config.encoder, state.theta)
            val_score = _validation_accuracy(current, val_episodes, config, val_draws)
            val_history.append((iteration, val_score))
            if val_score > state.best_score:
                state.best_score = val_score
                state.best_theta = state.theta.copy()
                state.best_iteration = iteration
                bad_validations = 0
            else:
                bad_validations += 1
            logger.debug("iteration %d: validation accuracy %.4f, %d bad validations in a row",
                         iteration, val_score, bad_validations)
            if bad_validations >= config.patience:
                stopped_early = True
                break

    final_params = EncoderParams.unflatten(config.encoder, state.theta)
    best_theta = state.best_theta if state.best_theta is not None else state.theta
    return MetaTrainResult(
        params=EncoderParams.unflatten(config.encoder, best_theta),
        final_params=final_params,
        log=log,
        val_history=val_history,
        best_iteration=state.best_iteration,
        best_val_accuracy=state.best_score if val_history else float("nan"),
        iterations_run=iterations_run,
        stopped_early=stopped_early,
    )
