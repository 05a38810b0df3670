"""Hostile-post detection: feature extraction, task-adaptive MLM
pretraining, and a dual-encoder fusion classifier."""

__version__ = "0.1.0"
