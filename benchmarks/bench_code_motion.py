"""C8 (extension) — the code-motion phase (Section 5's "later phases
include I/O optimizations and code motion").

A loop whose body recomputes an invariant aggregate is the classic
motion workload: hoisting turns O(n·m) into O(n + m).
"""

import pytest

from repro.core import ast
from repro.core import evaluate
from repro.optimizer.engine import default_optimizer

from conftest import median_time

N = ast.NatLit
V = ast.Var

LOOP = 400
SET = 400


def _workload():
    """``[[ Σ{y | y ∈ S} * i | i < LOOP ]]`` — invariant Σ inside a loop."""
    invariant = ast.Sum("y", V("y"), V("S"))
    return ast.Tabulate(("i",), (N(LOOP),),
                        ast.Arith("*", invariant, V("i")))


def _optimizer_without_motion():
    opt = default_optimizer()
    opt.phase("motion").rules.remove("hoist-loop-invariant")
    return opt


@pytest.fixture(scope="module")
def env():
    return {"S": frozenset(range(SET))}


@pytest.mark.benchmark(group="C8-motion")
def test_with_code_motion(benchmark, env):
    expr = default_optimizer().optimize(_workload())
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (LOOP,)


@pytest.mark.benchmark(group="C8-motion")
def test_without_code_motion(benchmark, env):
    expr = _optimizer_without_motion().optimize(_workload())
    result = benchmark(lambda: evaluate(expr, env))
    assert result.dims == (LOOP,)


@pytest.mark.benchmark(group="C8-motion-shape")
def test_shape_hoisting_pays(benchmark, env):
    hoisted = default_optimizer().optimize(_workload())
    unhoisted = _optimizer_without_motion().optimize(_workload())
    assert evaluate(hoisted, env) == evaluate(unhoisted, env)
    t_hoisted = median_time(lambda: evaluate(hoisted, env), repeats=3)
    t_unhoisted = median_time(lambda: evaluate(unhoisted, env), repeats=3)
    assert t_unhoisted > 5.0 * t_hoisted, (
        f"hoisting the invariant Σ must pay: "
        f"{t_unhoisted:.4f}s vs {t_hoisted:.4f}s"
    )
    benchmark(lambda: evaluate(hoisted, env))
