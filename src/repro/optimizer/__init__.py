"""The AQL optimizer (Section 5).

"The AQL optimizer proceeds in a number of phases.  The rule bases, the
rule application strategies, and the number of phases of this optimizer
are extensible."

* :mod:`repro.optimizer.engine` — rules, rule bases, phases, strategies,
  and the :class:`Optimizer` driver with dynamic registration.
* :mod:`repro.optimizer.rules_nrc` — the NRC equational rules (loop
  fusion, filter promotion, column reduction, β, π, conditionals).
* :mod:`repro.optimizer.rules_arith` — summation/arithmetic rules ([18]).
* :mod:`repro.optimizer.rules_arrays` — β^p, η^p, δ^p (1-d and k-d).
* :mod:`repro.optimizer.rules_bounds` — redundant-bounds-check
  elimination (the four rules at the end of Section 5, fact sources).
"""

from repro.optimizer.engine import Optimizer, Phase, Rule, RuleBase, default_optimizer
from repro.optimizer.analysis import is_error_free

__all__ = [
    "Optimizer",
    "Phase",
    "Rule",
    "RuleBase",
    "default_optimizer",
    "is_error_free",
]
