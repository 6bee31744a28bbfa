"""Exact points, strata and stabilizers for the three compactifications of
the Drinfeld half space over a finite field.

The half space sits inside three projective completions: the ambient
projective space of covectors (P), the reciprocal-algebra side (Q), and the
common refinement carrying a compatible family of functionals on every
nonzero subspace (B).  This package realizes their points over finite
extensions k_m, classifies each point into its stratum, and computes the
stabilizers in PGL(V)(k) both by brute force and through their structure
theory.
"""

from .counts import gaussian_binomial, pgl_order
from .errors import DefectSignal, InvariantViolation
from .field import (
    Element,
    FieldCtx,
    context_for,
    field_make,
    frobenius_k,
    subfield_degree,
)
from .linalg import (
    Flag,
    Subspace,
    all_subspaces,
    complement,
    enumerate_flags,
    enumerate_subspaces,
    flag_leq,
    quotient_functional,
    rational_kernel,
    rref,
)
from .points import (
    BPoint,
    PPoint,
    QPoint,
    b_classify,
    b_enumerate,
    b_from_flag_data,
    b_validate,
    enumerate_omega,
    frobenius_twist,
    omega_embed_b,
    omega_embed_q,
    p_classify,
    p_enumerate,
    pi_map,
    point_from_obj,
    point_to_obj,
    q_classify,
    q_enumerate,
    q_validate,
    rho_map,
    twist_span_dim,
)
from .action import (
    GroupElement,
    act,
    act_B,
    act_P,
    act_Q,
    enumerate_pgl,
    fixes,
    fixpoint_check_omega,
    p_core,
    stabilizer_bruteforce,
    stabilizer_predicted,
    stratum_flag,
    unipotent_elements,
    unipotent_radical_k,
)
from .atlas import StrataAtlas, build_atlas, export
from .verify import VerifyConfig, run_acceptance, verify_all

__version__ = "0.1.0"
