"""C5 — ablation of the three array rules (Section 5).

Each of β^p, η^p, δ^p is removed from the normalization phase in turn
and a workload designed around that rule is evaluated.  DESIGN.md calls
these out as the design choices to ablate: every rule must demonstrably
pay for itself ("This rule saves both time and space by avoiding
tabulation of the intermediary array").
"""

import pytest

from repro.core import ast
from repro.core.builders import array_len, map_array
from repro.core import evaluate
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer

from conftest import median_time

V = ast.Var
N = ast.NatLit

SIZE = 3000


def _optimizer_without(rule_name):
    opt = default_optimizer()
    for phase in opt.phases:
        if rule_name in phase.rules.names():
            phase.rules.remove(rule_name)
    return opt


def _beta_p_workload():
    """One subscript into a large tabulation: β^p makes it O(1)."""
    tab = ast.Tabulate(("i",), (N(SIZE),), ast.Arith("*", V("i"), V("i")))
    return ast.Subscript(tab, (N(7),))


def _eta_p_workload():
    """Identity re-tabulation of a large array: η^p makes it free."""
    return map_array(lambda x: x, V("A"))


def _delta_p_workload():
    """Length of a mapped array: δ^p skips materializing the map."""
    return array_len(map_array(lambda x: ast.Arith("+", x, N(1)), V("A")))


WORKLOADS = [
    ("beta-p", _beta_p_workload, {}),
    ("eta-p", _eta_p_workload, "arr"),
    ("delta-p", _delta_p_workload, "arr"),
]


def _env(binds):
    if binds == "arr":
        return {"A": Array.from_list(list(range(SIZE)))}
    return {}


@pytest.mark.benchmark(group="C5-ablation")
@pytest.mark.parametrize("rule,workload,binds", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_with_rule(benchmark, rule, workload, binds):
    expr = default_optimizer().optimize(workload())
    env = _env(binds)
    benchmark(lambda: evaluate(expr, env))


@pytest.mark.benchmark(group="C5-ablation")
@pytest.mark.parametrize("rule,workload,binds", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_without_rule(benchmark, rule, workload, binds):
    expr = _optimizer_without(rule).optimize(workload())
    env = _env(binds)
    benchmark(lambda: evaluate(expr, env))


@pytest.mark.benchmark(group="C5-ablation-shape")
@pytest.mark.parametrize("rule,workload,binds", WORKLOADS,
                         ids=[w[0] for w in WORKLOADS])
def test_shape_each_rule_pays_for_itself(benchmark, rule, workload, binds):
    env = _env(binds)
    with_rule = default_optimizer().optimize(workload())
    without_rule = _optimizer_without(rule).optimize(workload())
    assert evaluate(with_rule, env) == evaluate(without_rule, env)
    t_with = median_time(lambda: evaluate(with_rule, env))
    t_without = median_time(lambda: evaluate(without_rule, env))
    assert t_without > 3.0 * t_with, (
        f"removing {rule} must hurt on its workload: "
        f"{t_without:.5f}s vs {t_with:.5f}s"
    )
    benchmark(lambda: evaluate(with_rule, env))
