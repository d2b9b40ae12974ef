"""Few-shot classification from multiple noisy annotators.

A shared embedding network is meta-trained so that a closed-form EM over a
latent Gaussian mixture with per-annotator confusion matrices adapts an
accurate classifier from a handful of noisily labeled examples.
"""
