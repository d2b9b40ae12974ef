"""Few-shot classification from multiple noisy annotators.

A shared embedding network is meta-trained so that a closed-form EM over a
latent Gaussian mixture with per-annotator confusion matrices adapts an
accurate classifier from a handful of noisily labeled examples.
"""

from .annotators import (
    AnnotatorDistribution,
    AnnotatorKind,
    AnnotatorProfile,
    annotate,
    profile_to_confusion,
    pseudo_annotate,
    sample_annotator_pool,
    sample_profile,
    simulate_annotators,
)
from .em import (
    AdaptedClassifier,
    PriorHyperparams,
    SupportSet,
    adapt,
    e_step,
    init_responsibilities,
    log_posterior,
    lower_bound_q,
    m_step,
    predict_labels,
    predict_log_probs,
)
from .encoder import (
    EncoderConfig,
    EncoderParams,
    backward,
    forward,
    forward_recorded,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .episodes import (
    Episode,
    LabeledDataset,
    generate_synthetic,
    load_csv,
    sample_episode,
    split_classes,
)
from .metatrain import (
    MetaConfig,
    MetaTrainResult,
    TrainState,
    adam_update,
    embed_episodes,
    evaluate,
    meta_gradient,
    meta_train,
    query_loss,
)
from .baselines import dawid_skene, majority_vote, prototype_from_labels
from .seeding import stream

__version__ = "0.1.0"

__all__ = [
    "AdaptedClassifier",
    "AnnotatorDistribution",
    "AnnotatorKind",
    "AnnotatorProfile",
    "EncoderConfig",
    "EncoderParams",
    "Episode",
    "LabeledDataset",
    "MetaConfig",
    "MetaTrainResult",
    "PriorHyperparams",
    "SupportSet",
    "TrainState",
    "adam_update",
    "adapt",
    "annotate",
    "backward",
    "dawid_skene",
    "e_step",
    "embed_episodes",
    "evaluate",
    "forward",
    "forward_recorded",
    "generate_synthetic",
    "init_params",
    "init_responsibilities",
    "load_checkpoint",
    "load_csv",
    "log_posterior",
    "lower_bound_q",
    "m_step",
    "majority_vote",
    "meta_gradient",
    "meta_train",
    "predict_labels",
    "predict_log_probs",
    "profile_to_confusion",
    "prototype_from_labels",
    "pseudo_annotate",
    "query_loss",
    "sample_annotator_pool",
    "sample_episode",
    "sample_profile",
    "simulate_annotators",
    "save_checkpoint",
    "split_classes",
    "stream",
]
