"""Coefficient-bound toolkit for two families of bi-univalent functions.

Provides truncated-series arithmetic with reversion, a positive-real-part
atom sampler with prefix admissibility tests, the class operator and its
coefficient-equating systems, closed-form |a2| and |a3| bounds with branch
bookkeeping, corollary-reduction identity checks, and a randomized
falsification harness with a CLI.
"""

from .series import (TruncatedSeries, NormalizedFunction, compose, revert,
                     inverse_coeffs_closed, identity_series)
from .caratheodory import (herglotz, sample_batch, is_admissible_prefix,
                           toeplitz_moment_matrix, PASS, FAIL_MODULUS,
                           FAIL_TOEPLITZ)
from .operators import (AlphaParams, BetaParams, CoefficientTuple,
                        MembershipGrid, MembershipReport, apply_operator,
                        operator_coeffs_closed, membership, lift, Lift,
                        induce_q_alpha, induce_q_beta)
from .bounds import (BoundReport, IdentityReport, bounds_for, corollary_check,
                     COROLLARY_IDS)
from .harness import (CampaignSummary, EmpiricalExtremum, falsify,
                      extremal_search, VIOLATION_TOL)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries", "NormalizedFunction", "compose", "revert",
    "inverse_coeffs_closed", "identity_series", "herglotz", "sample_batch",
    "is_admissible_prefix", "toeplitz_moment_matrix",
    "PASS", "FAIL_MODULUS", "FAIL_TOEPLITZ",
    "AlphaParams", "BetaParams", "CoefficientTuple", "MembershipGrid",
    "MembershipReport", "apply_operator", "operator_coeffs_closed",
    "membership", "lift", "Lift", "induce_q_alpha", "induce_q_beta",
    "BoundReport", "IdentityReport", "bounds_for", "corollary_check",
    "COROLLARY_IDS", "CampaignSummary", "EmpiricalExtremum",
    "falsify", "extremal_search", "VIOLATION_TOL",
]
