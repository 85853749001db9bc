"""Desk-scale onboard volcanic-eruption detector.

Five-band preprocessing into SWIR-highlighted RGB composites, flat binary
patch and composite files, from-scratch numpy CNN layers with Adam,
labeled manifests with class-balanced batches, and a synthetic scene
generator.  There is no model file, trainer or inference entry point yet.
"""

__version__ = "0.1.0"
