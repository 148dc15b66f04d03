"""Clustering for multimodal attributed graphs.

The pipeline projects each modality into a shared space, denoises the
mixed representation with a low-pass filter acting on both the graph
and the feature-affinity structure, and trains the projections with
cross-modality, neighborhood, and community contrastive objectives.
"""
