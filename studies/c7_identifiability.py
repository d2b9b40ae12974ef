"""Why Dawid-Skene does not beat majority voting on acceptance criterion C7.

C7 (``tests/test_acceptance.py::test_c7_ds_beats_mv``) asks Dawid-Skene to
beat majority voting in at least 95 of 100 trials.  Each trial labels 300
examples of 4 classes with one hammer (accuracy 0.75) and two uniform
spammers.  The spammers' labels are independent of the true class, so the
joint distribution of the three labels is the product of their marginals
and says nothing about which annotator is reliable: the latent class of the
Dawid-Skene model is not identifiable from it.  Identifiability needs at
least three conditionally independent informative annotators (Allman,
Matias & Rhodes 2009).

This script reruns C7's frozen setup (its seeds, data and ``tau = b = c =
1``) and prints the mean accuracies, the hammer's accuracy on its own, the
mean estimated hammer diagonal, and the Dawid-Skene win count at 10 (C7's
setting), 50 and 200 EM steps.  Run from the repository root:

    PYTHONPATH=src python3 studies/c7_identifiability.py
"""

from __future__ import annotations

import numpy as np

from crowdmeta import baselines, em
from crowdmeta.annotators import AnnotatorKind, AnnotatorProfile, annotate, profile_to_confusion
from crowdmeta.seeding import stream

TRIALS = 100
STEPS = (10, 50, 200)


def trials():
    """C7's 100 trials: true labels and their ``(300, 3)`` label matrices."""
    hammer = profile_to_confusion(AnnotatorProfile(AnnotatorKind.HAMMER, q=0.75), 4)
    spammer = np.full((4, 4), 0.25)
    for t in range(TRIALS):
        rng = stream(424242, "ds-mv-trial", t)
        truth = rng.integers(4, size=300)
        yield truth, annotate(truth, [hammer, spammer, spammer], rng)


def main() -> None:
    data = list(trials())
    mv_acc = np.array([np.mean(baselines.majority_vote(labels, 4)[0] == truth)
                       for truth, labels in data])
    hammer_acc = np.mean([np.mean(labels[:, 0] == truth) for truth, labels in data])
    print(f"C7 setup: {TRIALS} trials, 300 examples, 4 classes, "
          "annotators hammer(q=0.75) + 2 uniform spammers")
    print(f"hammer alone accuracy  {hammer_acc:.3f}")
    print(f"MV mean accuracy       {mv_acc.mean():.3f}")
    for steps in STEPS:
        hyper = em.PriorHyperparams(tau=1.0, b=1.0, c=1.0, em_steps=steps)
        ds_acc, diag = [], []
        for truth, labels in data:
            lam, _, confusions = baselines.dawid_skene(labels, 4, hyper, num_annotators=3)
            ds_acc.append(np.mean(np.argmax(lam, axis=1) == truth))
            diag.append(np.mean(np.diagonal(confusions[0])))
        ds_acc = np.array(ds_acc)
        wins = int(np.sum(ds_acc > mv_acc))
        print(f"em_steps={steps:3d}: DS mean accuracy {ds_acc.mean():.3f}, "
              f"DS wins {wins}/{TRIALS}, mean estimated hammer diagonal {np.mean(diag):.3f}")


if __name__ == "__main__":
    main()
