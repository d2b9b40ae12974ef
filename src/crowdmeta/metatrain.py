"""Episodic bi-level training loop.

Each outer iteration samples a meta-batch of episodes from the source
tasks, pseudo-annotates each support set with freshly drawn annotators,
adapts the task-specific classifiers with the unrolled EM on the embedded
supports, scores the clean query sets, and backpropagates the mean query
loss through every EM step into the encoder parameters, which an Adam step
then updates.  The whole meta-batch is one pass: the episodes are stacked
along a leading task axis through the encoder, the closed-form updates of
:mod:`crowdmeta.em` and the reverse pass, a hand-derived vector-Jacobian
product chained backwards over the EM steps (:func:`episode_loss_and_grad`).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import em, encoder
from .annotators import AnnotatorDistribution, AnnotatorProfile, annotate, pseudo_annotate, sample_annotator_pool
from .encoder import EncoderConfig, EncoderParams, forward, init_params
from .episodes import Episode, LabeledDataset, sample_episode
from .seeding import stream


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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_iterations: int = 1000
    validation_interval: int = 100
    patience: int = 5
    val_episodes_per_task: int = 1
    meta_batch: int = 1
    pseudo_annotation: bool = True  # False = train on clean single-annotator labels
    val_dist: AnnotatorDistribution | None = None
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("ways", "shots", "query_per_class", "num_annotators",
                     "max_iterations", "validation_interval", "patience",
                     "val_episodes_per_task", "meta_batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        for name in ("beta1", "beta2"):  # Adam's bias correction divides by 1 - beta^t
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"Adam {name} must lie in [0, 1) (got {getattr(self, name)})")

    @property
    def validation_dist(self) -> AnnotatorDistribution:
        return self.val_dist if self.val_dist is not None else self.pseudo_dist


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


class NonFiniteGradientError(RuntimeError):
    """Gradient contained NaN or infinity; the update was aborted."""


def adam_update(state: TrainState, gradient: np.ndarray, config: MetaConfig) -> TrainState:
    """Standard bias-corrected Adam step, applied in place."""
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.shape != state.theta.shape:
        raise ValueError(
            f"gradient shape {gradient.shape} does not match parameters {state.theta.shape}"
        )
    if not np.all(np.isfinite(gradient)):
        bad = int(np.sum(~np.isfinite(gradient)))
        raise NonFiniteGradientError(f"{bad} non-finite gradient entries")
    state.step += 1
    state.m = config.beta1 * state.m + (1.0 - config.beta1) * gradient
    state.v = config.beta2 * state.v + (1.0 - config.beta2) * gradient * gradient
    m_hat = state.m / (1.0 - config.beta1**state.step)
    v_hat = state.v / (1.0 - config.beta2**state.step)
    state.theta = state.theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
    return state


def _scored_query(
    u: np.ndarray, labels: np.ndarray, prototypes: np.ndarray, class_prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Query log scores, their row log-sum-exp, and the mean label loss over all episodes."""
    if u.ndim < 2 or u.shape[-2] == 0:
        raise ValueError("query set must be a nonempty (N, M) array")
    scores = em.class_log_scores(u, prototypes, class_prior)
    lse = em.logsumexp(scores, axis=-1)
    picked = np.take_along_axis(scores, labels[..., None], axis=-1)[..., 0]
    return scores, lse, float(np.sum(lse - picked)) / labels.size


def query_loss(
    classifier: em.AdaptedClassifier,
    query_embeddings: np.ndarray,
    query_labels: np.ndarray,
) -> float:
    """Mean negative log-probability of the true query labels."""
    u = np.asarray(query_embeddings, dtype=np.float64)
    labels = np.asarray(query_labels, dtype=np.intp)
    return _scored_query(u, labels, classifier.prototypes, classifier.class_prior)[2]


def _log_scores_vjp(
    d_scores: np.ndarray, u: np.ndarray, prototypes: np.ndarray, class_prior: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pull gradients of ``-0.5 |u_n - mu_k|^2 + log pi_k`` back to ``(d_u, d_mu, d_pi)``.

    Every row of ``d_scores`` is the gradient of a softmax input and sums
    to zero, so the ``|u_n|^2`` term contributes nothing to ``d_u``.
    """
    col = d_scores.sum(axis=-2)
    d_protos = d_scores.swapaxes(-1, -2) @ u - col[..., None] * prototypes
    return d_scores @ prototypes, d_protos, col / class_prior


def _m_step_vjp(
    lam: np.ndarray,
    u: np.ndarray,
    prototypes: np.ndarray,
    confusions: np.ndarray,
    support: em.SupportSet,
    hyper: em.PriorHyperparams,
    d_protos: np.ndarray,
    d_pi: np.ndarray,
    d_confusions: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pull the M-step output gradients back to ``(d_lam, d_u)``.

    ``mu = lam^T u / (tau + sum lam)``, ``pi = (sum lam + b) / (K b + N)``
    and ``alpha = (C + c) / (sum_l C + K c)`` with counts ``C = Y^T lam``
    over the flattened one-hot labels ``Y``, whose label sums are
    ``observed^T lam``.  Classes whose prototype denominator is zero
    (``tau = 0``, empty class) hold the constant prior mean and pass no
    gradient.
    """
    *lead, n, k = lam.shape
    denom = (hyper.tau + lam.sum(axis=-2))[..., None]
    g = np.divide(d_protos, denom, out=np.zeros_like(d_protos), where=denom > 0.0)
    d_u = lam @ g
    d_lam = u @ g.swapaxes(-1, -2) - (g * prototypes).sum(axis=-1)[..., None, :]
    d_lam += (d_pi / (k * hyper.b + n))[..., None, :]
    if d_confusions is not None:
        label_sums = support.observed.swapaxes(-1, -2) @ lam
        d_counts = d_confusions / (label_sums + k * hyper.c)[..., None, :]
        d_counts -= (d_counts * confusions).sum(axis=-2, keepdims=True)
        d_lam += support.onehot.reshape(*lead, n, -1) @ d_counts.reshape(*lead, -1, k)
    return d_lam, d_u


def episode_loss_and_grad(
    params: EncoderParams,
    support_x: np.ndarray,
    annotations: Sequence,
    num_classes: int,
    num_annotators: int,
    query_x: np.ndarray,
    query_y: np.ndarray,
    hyper: em.PriorHyperparams,
) -> tuple[float, np.ndarray]:
    """Mean query loss after the unrolled EM, and its gradient w.r.t. the flat parameters.

    ``support_x`` is ``(B, N, D)`` with B annotation lists, ``query_x``
    ``(B, Q, D)`` and ``query_y`` ``(B, Q)``: B episodes of equal shape,
    whose loss is the mean of theirs.  Two-dimensional inputs with one
    annotation list are a single episode.  One encoder pass embeds every
    support and query row.  The forward pass runs :func:`crowdmeta.em.m_step`
    and :func:`crowdmeta.em.e_step` on the stacked supports, keeping every
    step's responsibilities; the final E step is skipped because the loss
    reads only the last prototypes and class prior.  The reverse pass is
    hand-derived: the query log-softmax, then for each step from the last
    the M-step updates and the E-step softmax, whose output gradient
    reaches the previous M step through its prototypes, class prior and
    confusions.  The vote-fraction initialization and the discrete labels
    are constants.  One :func:`crowdmeta.encoder.backward` finishes on the
    recorded activations.
    """
    support_x = np.asarray(support_x, dtype=np.float64)
    query_x = np.asarray(query_x, dtype=np.float64)
    labels = np.asarray(query_y, dtype=np.intp)
    if support_x.ndim == 2:  # one episode
        support_x, query_x, labels = support_x[None], query_x[None], labels[None]
        annotations = [annotations]
    (b, n, width), q = support_x.shape, labels.shape[1]
    x = np.concatenate([support_x.reshape(b * n, width), query_x.reshape(b * q, width)])
    u, record = encoder.forward_recorded(x, params)
    u_support = u[: b * n].reshape(b, n, -1)
    u_query = u[b * n :].reshape(b, q, -1)
    support = em.SupportSet(
        embeddings=u_support,
        annotations=annotations,
        num_classes=num_classes,
        num_annotators=num_annotators,
    )
    lam = em.init_responsibilities(support.onehot)
    steps = []  # (responsibilities in, prototypes, class prior, confusions)
    for t in range(hyper.em_steps):
        protos, pi, confusions = em.m_step(lam, support, hyper)
        steps.append((lam, protos, pi, confusions))
        if t + 1 < hyper.em_steps:
            lam = em.e_step(support, protos, pi, confusions)

    scores, lse, loss = _scored_query(u_query, labels, protos, pi)

    d_scores = np.exp(scores - lse[..., None])
    d_scores[np.arange(b)[:, None], np.arange(q), labels] -= 1.0
    d_scores /= labels.size
    d_query, d_protos, d_pi = _log_scores_vjp(d_scores, u_query, protos, pi)
    d_confusions = None
    d_support = np.zeros_like(u_support)
    labels_t = support.onehot.reshape(b, n, -1).swapaxes(-1, -2)
    for t in range(hyper.em_steps - 1, -1, -1):
        lam, protos, pi, confusions = steps[t]
        d_lam, d_u = _m_step_vjp(lam, u_support, protos, confusions, support,
                                 hyper, d_protos, d_pi, d_confusions)
        d_support += d_u
        if t == 0:
            break
        # lam came from the E step on the previous M step's parameters
        _, protos, pi, confusions = steps[t - 1]
        d_scores = lam * (d_lam - (lam * d_lam).sum(axis=-1, keepdims=True))
        d_u, d_protos, d_pi = _log_scores_vjp(d_scores, u_support, protos, pi)
        d_support += d_u
        d_confusions = (labels_t @ d_scores).reshape(confusions.shape) / confusions
    d_u = np.concatenate([d_support.reshape(b * n, -1), d_query.reshape(b * q, -1)])
    return loss, encoder.backward(record, d_u)


def confusion_digest(confusions: Sequence[np.ndarray]) -> str:
    h = hashlib.sha256()
    for alpha in confusions:
        h.update(np.ascontiguousarray(alpha, dtype=np.float64).tobytes())
    return h.hexdigest()[:12]


@dataclass
class EpisodeGradient:
    loss: float
    grad: np.ndarray
    pseudo_digest: str


def meta_gradient(
    params: EncoderParams,
    episodes: Sequence[Episode],
    config: MetaConfig,
    rngs: Sequence[np.random.Generator],
) -> EpisodeGradient:
    """Mean loss and exact reverse-mode gradient over a meta-batch of episodes.

    Each support set is pseudo-annotated from the configured distribution
    with its own generator (a fresh draw per call); with pseudo-annotation
    disabled a support keeps its clean labels as a single perfect
    annotator.  The sampled labels themselves are constants of the episode;
    gradients flow through the embeddings and through every EM quantity
    that depends on them.  The episodes then share one pass of
    :func:`episode_loss_and_grad`.  The digest is the last episode's.
    """
    k = episodes[0].num_classes
    if config.pseudo_annotation:
        drawn = [pseudo_annotate(e.support_y, config.num_annotators, config.pseudo_dist, k, rng)
                 for e, rng in zip(episodes, rngs, strict=True)]
        annotations = [labels for labels, _ in drawn]
        digest = confusion_digest(drawn[-1][1])
        num_annotators = config.num_annotators
    else:
        annotations = [[{0: int(y)} for y in episode.support_y] for episode in episodes]
        digest = "clean"
        num_annotators = 1

    loss, grad = episode_loss_and_grad(
        params, np.stack([e.support_x for e in episodes]), annotations, k, num_annotators,
        np.stack([e.query_x for e in episodes]), np.stack([e.query_y for e in episodes]),
        config.hyper,
    )
    return EpisodeGradient(loss=loss, grad=grad, pseudo_digest=digest)


def mean_and_stderr(accuracies: Sequence[float]) -> tuple[float, float]:
    """Mean accuracy over tasks and its standard error (0 for a single task)."""
    n = len(accuracies)
    stderr = float(np.std(accuracies, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(accuracies)), stderr


def adapt_and_score(
    params: EncoderParams,
    episode: Episode,
    annotations: Sequence[em.AnnotationMap],
    num_annotators: int,
    hyper: em.PriorHyperparams,
) -> float:
    """Query accuracy of the classifier EM adapts to the annotated, embedded support."""
    support = em.SupportSet(
        embeddings=forward(episode.support_x, params),
        annotations=annotations,
        num_classes=episode.num_classes,
        num_annotators=num_annotators,
    )
    classifier = em.adapt(support, hyper)
    predicted = em.predict_labels(forward(episode.query_x, params), classifier)
    return float(np.mean(predicted == episode.query_y))


@dataclass
class EvalResult:
    accuracies: np.ndarray
    mean: float
    stderr: float
    annotator_profiles: list[list[AnnotatorProfile]]


def evaluate(
    params: EncoderParams,
    episodes: Sequence[Episode],
    dist: AnnotatorDistribution,
    hyper: em.PriorHyperparams,
    num_annotators: int,
    master_seed: int,
    stream_label: str = "eval-annotators",
) -> EvalResult:
    """Simulate annotators per task from its own stream, adapt, and score query accuracy."""
    accuracies = np.empty(len(episodes))
    all_profiles: list[list[AnnotatorProfile]] = []
    for i, episode in enumerate(episodes):
        rng = stream(master_seed, stream_label, i)
        profiles, confusions = sample_annotator_pool(dist, num_annotators, episode.num_classes, rng)
        annotations = annotate(episode.support_y, confusions, rng)
        accuracies[i] = adapt_and_score(params, episode, annotations, num_annotators, hyper)
        all_profiles.append(list(profiles))
    mean, stderr = mean_and_stderr(accuracies)
    return EvalResult(
        accuracies=accuracies, mean=mean, stderr=stderr, annotator_profiles=all_profiles
    )


@dataclass
class TrainingLogRow:
    iteration: int
    loss: float
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
    params: EncoderParams, val_episodes: Sequence[Episode], config: MetaConfig
) -> float:
    """Mean adaptation accuracy on the fixed validation episodes.

    The main path simulates target annotators from the validation
    distribution; the no-pseudo-annotation ablation validates on clean
    single-annotator labels to stay a fully noise-free meta-learner
    (unless a validation distribution is set explicitly).
    """
    if not config.pseudo_annotation and config.val_dist is None:
        return float(np.mean([
            adapt_and_score(params, e, [{0: int(y)} for y in e.support_y], 1, config.hyper)
            for e in val_episodes
        ]))
    return evaluate(
        params,
        val_episodes,
        config.validation_dist,
        config.hyper,
        config.num_annotators,
        config.master_seed,
        stream_label="val-annotators",
    ).mean


def _validation_episodes(
    val_tasks: Sequence[LabeledDataset], config: MetaConfig
) -> list[Episode]:
    episodes = []
    for ti, task in enumerate(val_tasks):
        for j in range(config.val_episodes_per_task):
            episodes.append(
                sample_episode(
                    task,
                    config.ways,
                    config.shots,
                    config.query_per_class,
                    stream(config.master_seed, "val-episode", ti, j),
                )
            )
    return episodes


def meta_train(
    source_tasks: Sequence[LabeledDataset],
    val_tasks: Sequence[LabeledDataset],
    config: MetaConfig,
) -> MetaTrainResult:
    """Run the outer loop with validation-based early stopping.

    Validation episodes and their simulated annotators are fixed once from
    the master seed, so successive validation scores are comparable and
    the whole run is reproducible.
    """
    if not source_tasks:
        raise ValueError("at least one source task is required")
    params = init_params(config.encoder)
    state = TrainState.from_params(params)
    val_episodes = _validation_episodes(val_tasks, config) if val_tasks else []

    log: list[TrainingLogRow] = []
    val_history: list[tuple[int, float]] = []
    bad_validations = 0
    stopped_early = False
    iterations_run = 0

    for iteration in range(1, config.max_iterations + 1):
        tic = time.perf_counter()
        params = EncoderParams.unflatten(config.encoder, state.theta)
        episodes, rngs = [], []
        for b in range(config.meta_batch):
            task_rng = stream(config.master_seed, "task-choice", iteration, b)
            d = int(task_rng.integers(len(source_tasks)))
            episodes.append(sample_episode(
                source_tasks[d],
                config.ways,
                config.shots,
                config.query_per_class,
                stream(config.master_seed, "episode", iteration, b),
            ))
            rngs.append(stream(config.master_seed, "pseudo-annotate", iteration, b))
        result = meta_gradient(params, episodes, config, rngs)
        try:
            adam_update(state, result.grad, config)
        except NonFiniteGradientError as exc:
            log.append(TrainingLogRow(iteration, float("nan"), 0.0, f"skipped:{exc}"))
            continue
        iterations_run = iteration
        log.append(TrainingLogRow(
            iteration, result.loss, (time.perf_counter() - tic) * 1e3, result.pseudo_digest
        ))

        if val_episodes and iteration % config.validation_interval == 0:
            current = EncoderParams.unflatten(config.encoder, state.theta)
            val_score = _validation_accuracy(current, val_episodes, config)
            val_history.append((iteration, val_score))
            if val_score > state.best_score:
                state.best_score = val_score
                state.best_theta = state.theta.copy()
                state.best_iteration = iteration
                bad_validations = 0
            else:
                bad_validations += 1
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
