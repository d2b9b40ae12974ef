"""Self-contained verification suites with fixed seeds.

Each suite checks one mathematical guarantee of the pipeline against an
independent reference: EM monotonically increases the log posterior, the
log-space E step matches a naive linear-space Bayes computation, the
analytic meta-gradient through the unrolled EM matches central finite
differences of the plain-numpy episode loss, and the
degenerate configuration reproduces nearest-class-mean predictions.  The
``verify`` CLI subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import em
from . import metatrain as mt
from .annotators import AnnotatorDistribution, pseudo_annotate
from .encoder import EncoderConfig, EncoderParams, forward, init_params
from .seeding import stream


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst: float
    threshold: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail} (threshold {self.threshold:g})"


def _random_task(
    rng: np.random.Generator,
    num_classes: int,
    support_size: int,
    num_annotators: int,
    dim: int = 3,
) -> em.SupportSet:
    truth = rng.integers(num_classes, size=support_size)
    dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
    annotations, _ = pseudo_annotate(truth, num_annotators, dist, num_classes, rng)
    centers = rng.standard_normal((num_classes, dim)) * 1.5
    embeddings = centers[truth] + rng.standard_normal((support_size, dim))
    return em.SupportSet(
        embeddings=embeddings,
        annotations=annotations,
        num_classes=num_classes,
        num_annotators=num_annotators,
    )


def check_em_monotone(
    seed: int = 2024, num_tasks: int = 200, em_steps: int = 10, tol: float = 1e-9
) -> CheckReport:
    """Log posterior never decreases across EM iterations.

    Each M step's log posterior is compared with the previous one's, so
    at least two steps are needed.
    """
    if em_steps < 2:
        raise ValueError(f"em_steps must be >= 2 to compare successive steps (got {em_steps})")
    grid = [(k, n, r) for k in (2, 4) for n in (4, 20) for r in (1, 3, 7)]
    hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=em_steps)
    worst = np.inf
    for t in range(num_tasks):
        k, n, r = grid[t % len(grid)]
        support = _random_task(stream(seed, "monotone-task", t), k, n, r)
        values = [em.log_posterior(support, step.prototypes, step.class_prior, step.confusions,
                                   hyper)
                  for step in em.iterate(support, hyper)]
        worst = min(worst, min(np.diff(values)))
    return CheckReport(
        name="em-monotone",
        passed=worst >= -tol,
        worst=float(worst),
        threshold=tol,
        detail=f"min posterior delta over {num_tasks} tasks = {worst:.3e}",
    )


def naive_e_step(
    support: em.SupportSet,
    prototypes: np.ndarray,
    class_prior: np.ndarray,
    confusions: np.ndarray,
) -> np.ndarray:
    """Linear-space Bayes rule with explicit loops over the label matrix; the E-step oracle."""
    n, k = support.size, support.num_classes
    lam = np.zeros((n, k))
    norm = (2.0 * np.pi) ** (-support.dim / 2.0)
    for i in range(n):
        for kk in range(k):
            gauss = norm * np.exp(
                -0.5 * float(np.sum((support.embeddings[i] - prototypes[kk]) ** 2))
            )
            a = 1.0
            for r in np.flatnonzero(support.annotations[i] >= 0):
                a *= confusions[r][support.annotations[i, r], kk]
            lam[i, kk] = gauss * class_prior[kk] * a
        lam[i] /= lam[i].sum()
    return lam


def check_estep_oracle(seed: int = 77, num_tasks: int = 100, tol: float = 1e-12) -> CheckReport:
    """Log-space responsibilities match the naive linear-space computation."""
    worst = 0.0
    hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=1)
    for t in range(num_tasks):
        rng = stream(seed, "estep-task", t)
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, 4))
        support = _random_task(rng, k, n, r)
        fit = em.adapt(support, hyper)  # one M step, then the E step under test
        slow = naive_e_step(support, fit.prototypes, fit.class_prior, fit.confusions)
        worst = max(worst, float(np.max(np.abs(fit.responsibilities - slow))))
    return CheckReport(
        name="estep-oracle",
        passed=worst < tol,
        worst=worst,
        threshold=tol,
        detail=f"max abs responsibility diff over {num_tasks} tasks = {worst:.3e}",
    )


def episode_loss_value(
    theta: np.ndarray,
    encoder_config: EncoderConfig,
    support_x: np.ndarray,
    annotations: np.ndarray,
    num_classes: int,
    query_x: np.ndarray,
    query_y: np.ndarray,
    hyper: em.PriorHyperparams,
) -> float:
    """Episode loss through the plain-numpy path (finite differences use this)."""
    params = EncoderParams.unflatten(encoder_config, theta)
    annotations = np.asarray(annotations)
    support = em.SupportSet(forward(support_x, params), annotations, num_classes,
                            annotations.shape[-1])
    classifier = em.adapt(support, hyper)
    return mt.query_loss(classifier, forward(query_x, params), query_y)


def check_gradcheck(
    seed: int = 9, num_coords: int = 20, step: float = 1e-5, tol: float = 1e-4
) -> CheckReport:
    """Analytic episode gradient vs central finite differences; the last case stacks episodes."""
    worst = 0.0
    cases = [  # (em_steps, hidden widths, ways, annotators, episodes)
        (1, (6,), 2, 1, 1),
        (2, (8,), 4, 3, 1),
        (3, (8, 6), 4, 3, 1),
        (2, (10, 5), 2, 3, 1),
        (3, (8,), 3, 3, 3),
    ]
    for case_idx, (em_steps, hidden, ways, annotators, batch) in enumerate(cases):
        rng = stream(seed, "gradcheck", case_idx)
        dim, embed = 4, 3
        shots, qpc = 2, 3
        config = EncoderConfig(
            input_dim=dim, hidden_dims=hidden, output_dim=embed, init_seed=case_idx
        )
        params = init_params(config)
        support_y = np.repeat(np.arange(ways), shots)
        query_y = np.repeat(np.arange(ways), qpc)
        dist = AnnotatorDistribution.expert_hammer_spammer(0.2, 0.6, 0.2)
        episodes = []  # (support_x, annotations, query_x)
        for _ in range(batch):
            support_x = rng.standard_normal((ways * shots, dim))
            query_x = rng.standard_normal((ways * qpc, dim))
            annotations, _ = pseudo_annotate(support_y, annotators, dist, ways, rng)
            episodes.append((support_x, annotations, query_x))
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=em_steps)

        support_x, annotations, query_x = zip(*episodes)
        _, grad = mt.episode_loss_and_grad(
            params, np.stack(support_x), annotations, ways,
            np.stack(query_x), np.tile(query_y, (batch, 1)), hyper,
        )

        def loss(theta: np.ndarray) -> float:
            return float(np.mean([
                episode_loss_value(theta, config, sx, ann, ways, qx, query_y, hyper)
                for sx, ann, qx in episodes
            ]))

        theta = params.flatten()
        coords = rng.choice(theta.size, size=min(num_coords, theta.size), replace=False)
        for c in coords:
            plus, minus = theta.copy(), theta.copy()
            plus[c] += step
            minus[c] -= step
            fd = (loss(plus) - loss(minus)) / (2.0 * step)
            rel = abs(fd - grad[c]) / max(1e-8, abs(fd), abs(grad[c]))
            worst = max(worst, rel)
    return CheckReport(
        name="gradcheck",
        passed=worst < tol,
        worst=worst,
        threshold=tol,
        detail=f"max relative error over {len(cases)} cases x {num_coords} coords = {worst:.3e}",
    )


def check_proto_equiv(seed: int = 5, num_queries: int = 1000) -> CheckReport:
    """Degenerate configuration reduces to nearest-class-mean prediction.

    Balanced clean support, one perfect annotator, tau = 0, one EM step:
    the smoothed class prior is exactly uniform and prototypes are exact
    class means, so predictions must equal nearest-mean on every query.
    """
    rng = stream(seed, "proto-equiv")
    ways, shots, dim = 4, 5, 6
    support_y = np.repeat(np.arange(ways), shots)
    centers = rng.standard_normal((ways, dim)) * 3.0
    support_u = centers[support_y] + rng.standard_normal((len(support_y), dim))
    hyper = em.PriorHyperparams(tau=0.0, b=1.0, c=1.0, em_steps=1, allow_zero_tau=True)
    support = em.SupportSet(support_u, support_y[:, None], ways, 1)
    classifier = em.adapt(support, hyper)

    query_labels = rng.integers(ways, size=num_queries)
    query_u = centers[query_labels] + rng.standard_normal((num_queries, dim)) * 2.0
    predicted = em.predict_labels(query_u, classifier)

    class_means = np.stack([support_u[support_y == k].mean(axis=0) for k in range(ways)])
    dists = em.squared_distances(query_u, class_means)
    nearest = np.argmin(dists, axis=1)
    agreement = float(np.mean(predicted == nearest))
    return CheckReport(
        name="proto-equiv",
        passed=agreement == 1.0,
        worst=1.0 - agreement,
        threshold=0.0,
        detail=f"nearest-mean agreement on {num_queries} queries = {agreement:.4f}",
    )


SUITES = {
    "em-monotone": check_em_monotone,
    "estep-oracle": check_estep_oracle,
    "gradcheck": check_gradcheck,
    "proto-equiv": check_proto_equiv,
}
