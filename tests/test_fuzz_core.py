"""Fuzzing the whole core with random well-typed expressions.

Using the type-directed generator in ``expr_strategies``:

* the typechecker accepts every generated expression at its target type;
* optimization (strict mode) preserves values *and* ⊥;
* optimization (paper mode, `assume_error_free`) preserves values of
  error-free runs;
* the execution engine agrees with the reference semantics everywhere;
* the exchange format round-trips every produced value.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import ast
from repro.core import evaluate
from repro.core.typecheck import TypeChecker
from repro.env.environment import TopEnv
from repro.errors import AQLError, BottomError
from repro.objects.exchange import dumps, loads
from repro.optimizer.engine import default_optimizer
from repro.types.types import TypeScheme
from repro.types.unify import instantiate, unify

from conftest import agree
from expr_strategies import ENV_TYPES, ENV_VALUES, typed_exprs

#: hypothesis-heavy; excluded from the quick CI lane (-m "not slow")
pytestmark = pytest.mark.slow

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)


def _run(expr):
    """Evaluate, normalizing ⊥ to a sentinel for comparisons."""
    try:
        return ("value", evaluate(expr, ENV_VALUES))
    except BottomError:
        return ("bottom",)


class TestFuzz:
    @given(pair=typed_exprs())
    @_SETTINGS
    def test_generated_expressions_typecheck(self, pair):
        expr, target = pair
        env = {name: TypeScheme.mono(t) for name, t in ENV_TYPES.items()}
        inferred = TypeChecker().check(expr, env)
        # inferred must unify with the generator's target
        unify(inferred, target, {})

    @given(pair=typed_exprs())
    @_SETTINGS
    def test_strict_optimizer_preserves_everything(self, pair):
        expr, _ = pair
        optimized = default_optimizer(assume_error_free=False).optimize(expr)
        assert _run(optimized) == _run(expr)

    @given(pair=typed_exprs())
    @_SETTINGS
    def test_paper_optimizer_preserves_error_free_runs(self, pair):
        expr, _ = pair
        outcome = _run(expr)
        if outcome[0] == "bottom":
            return  # the paper's mode assumes no bounds errors (§5)
        optimized = default_optimizer().optimize(expr)
        assert _run(optimized) == outcome

    @given(pair=typed_exprs())
    @_SETTINGS
    def test_engine_agrees_with_reference(self, pair):
        expr, _ = pair
        agree(expr)

    @given(pair=typed_exprs())
    @_SETTINGS
    def test_results_roundtrip_exchange_format(self, pair):
        expr, _ = pair
        outcome = _run(expr)
        if outcome[0] == "value":
            assert loads(dumps(outcome[1])) == outcome[1]

    @given(pair=typed_exprs())
    @_SETTINGS
    def test_alpha_equivalence_reflexive_on_generated(self, pair):
        expr, _ = pair
        assert ast.alpha_equal(expr, expr)
        # substitution with an empty map is identity
        assert ast.substitute(expr, {}) == expr


#: one standard environment with the fuzz bindings installed as vals,
#: shared across examples (resolution substitutes them as constants)
_PIPELINE_ENV = TopEnv.standard()
for _name, _value in ENV_VALUES.items():
    _PIPELINE_ENV.set_val(_name, _value)


class TestFullPipelineFuzz:
    @given(pair=typed_exprs())
    @_SETTINGS
    def test_only_calculus_errors_escape_the_pipeline(self, pair):
        """resolve → typecheck → optimize → evaluate never leaks a host
        exception: every failure is an AQLError (⊥ included)."""
        expr, _ = pair
        try:
            _PIPELINE_ENV.evaluate(expr)
        except AQLError:
            pass  # ⊥ and friends are the calculus's own business
