"""NRCA — the nested relational calculus with arrays (Section 2).

This package is the paper's primary contribution: the core calculus that
plays for AQL the role relational algebra plays for SQL.

* :mod:`repro.core.ast` — every construct of Figure 1 (plus the Section 6
  extension constructs), with free variables, capture-avoiding
  substitution and α-equivalence.
* :mod:`repro.core.typecheck` — the typing rules of Figure 1, implemented
  with unification so AQL needs no type annotations.
* :mod:`repro.core.compile` — the execution engine: compiles each
  expression to one generated Python function producing complex-object
  values (⊥ raises :class:`~repro.errors.BottomError`), with
  :mod:`repro.core.runtime` the checks and counters that code calls.
* :mod:`repro.core.eval` — the reference semantics (a naive tree-walker)
  the engine is tested against.
* The derived operators of Sections 2–3 (map, zip, subseq, transpose,
  multiply, hist, ...) and the ODMG array primitives Section 7 claims
  AQL simulates (update, insert, remove, resize) are AQL macros of
  :mod:`repro.env.stdlib`, each defined once, reaching the core calculus
  through the front end like any user macro.
"""

from repro.core import ast
from repro.core.typecheck import TypeChecker, infer_type
from repro.core.compile import CompiledEvaluator, evaluate

__all__ = ["ast", "TypeChecker", "infer_type", "CompiledEvaluator",
           "evaluate"]
