"""Tri-branch gait recognition: silhouette, skeleton, and cross-modal fusion
branches on a self-contained float64 autodiff core, with metric-learning
training and rank-1 gallery/probe evaluation on synthetic walking data."""

__version__ = "0.1.0"
