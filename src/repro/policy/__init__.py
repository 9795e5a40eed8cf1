"""Pluggable translation policies (see :mod:`repro.policy.base`).

Only the base module is imported eagerly; concrete policies resolve
lazily through the registry so hardware modules can depend on
``NULL_POLICY`` without import cycles.
"""

from repro.policy.base import (
    NULL_POLICY,
    BaselinePolicy,
    TranslationPolicy,
    is_builtin_policy,
    make_policy,
    policy_class,
    policy_names,
    register_policy,
    unregister_policy,
)

__all__ = [
    "NULL_POLICY",
    "BaselinePolicy",
    "TranslationPolicy",
    "is_builtin_policy",
    "make_policy",
    "policy_class",
    "policy_names",
    "register_policy",
    "unregister_policy",
]
