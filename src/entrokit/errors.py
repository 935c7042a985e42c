"""Semantic exception hierarchy shared across the toolkit.

Public functions never raise bare ValueError for contract violations; they
raise one of these so callers (and the CLI error envelope) can map failures
to stable kinds.
"""

from __future__ import annotations


class EntrokitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EntrokitError, ValueError):
    """Input violates a documented contract (shape, domain, finiteness)."""


# -- probability carriers -----------------------------------------------------


class NegativeProbability(ValidationError):
    """A probability entry is below zero."""


class NotNormalized(ValidationError):
    """Probabilities do not sum to one within the stated tolerance."""


# -- entropy functionals ------------------------------------------------------


class PhiUndefined(EntrokitError):
    """A pointwise entropy kernel has no value declared at p = 0."""


# -- functional-equation checks -----------------------------------------------


class EvaluationFailure(EntrokitError):
    """A user-supplied function or kernel failed, or returned (or summed to)
    a value that is not finite."""


class DegenerateDesign(ValidationError):
    """Fit impossible: the sample abscissae carry no spread."""


class NotAdmissible(EntrokitError):
    """A fitted kernel slope is incompatible with a concave entropy."""


# -- quantization -------------------------------------------------------------


class NonPositiveWidth(ValidationError):
    """Bin width must be strictly positive."""


class UnboundedSupport(EntrokitError):
    """Support truncation failed to capture the required probability mass."""


# -- statistical mechanics ----------------------------------------------------


class InvalidDensity(ValidationError):
    """A discretized phase-space density violates its normalization."""
