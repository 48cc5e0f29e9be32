"""The group-by aggregate: ``maparr!(count, index!P)`` and its kin run
the Σ of every cell inside ``index_k``'s grouping pass.

Once β splits the ``(count, index!P)`` tuple, the optimized core is
``(fn \\A => [[ Σ{e | \\x <- A[i]} | \\i < dim_1(A) ]])!(index_1(P))``;
for a nat literal ``e`` the plan is one ``_indexed(P, k, _P, e)`` call,
which counts each key's pairs where it would have built its set.  Each
statement here runs in both optimizer modes, under every dispatch
config, as a miss and as a kept plan, and must compute what the
reference ``Evaluator`` computes on the unoptimized core: the value, the
⊥ reason, or — for a malformed pair, which is an ``EvalError`` and not
a ⊥ — the same message, raised by the first bad pair in ``P``'s
iteration order (which depends on ``PYTHONHASHSEED`` for strings).
"""

from __future__ import annotations

import re

import pytest

from repro.errors import BottomError, EvalError
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.system.session import Session

from conftest import CONFIGS, reference_query_value
from test_typed_plans import _agree

COUNT = r"maparr!(count, index!P)"
TWICE = r"maparr!(fn \S => summap(fn \x => 2)!(S), index!P)"
RANK2 = r"""(fn \A => let val (\m, \n) = dim_2!A
                       in [[ count!(A[i, j]) | \i < m, \j < n ]] end)
            !(index_2!Q)"""

#: label -> (statement, vals)
CASES = {
    "count": (COUNT, {"P": frozenset((k % 5, k) for k in range(23))}),
    "twice": (TWICE, {"P": frozenset((k % 5, k) for k in range(23))}),
    "empty": (COUNT, {"P": frozenset()}),
    "holes": (COUNT, {"P": frozenset({(0, 1), (3, 1), (3, 2), (9, 4)})}),
    "strings": (COUNT, {"P": frozenset({(2, "a"), (2, "b"), (0, "")})}),
    "negative-key": (COUNT, {"P": frozenset({(-3, 1), (0, 2)})}),
    "bad-string-keys": (TWICE, {"P": frozenset(
        (-k, chr(97 + k)) for k in range(1, 9))}),
    "rank-2": (RANK2, {"Q": frozenset(((k % 3, k * 7 % 5), k)
                                      for k in range(20))}),
    "hist2": ("hist2!H", {"H": Array.from_list([3, 1, 4, 1, 5, 9, 2, 6])}),
}
MODES = {"default": True, "strict": False}
#: the fused call: the pairs, the rank, the probe and the literal's slot
FUSED = re.compile(r"_indexed\([^\n]*, _P, _k\d+\)")


def _outcome(run):
    try:
        return ("value", run())
    except BottomError as exc:
        return ("bottom", exc.reason)
    except EvalError as exc:
        return ("error", str(exc))


def _session(vals, assume_error_free, config=None) -> Session:
    session = Session() if config is None \
        else Session(min_cells=config.min_cells)
    session.env.optimizer = default_optimizer(assume_error_free)
    for name, value in vals.items():
        session.env.set_val(name, value)
    return session


def _plans(session, text):
    """The miss and the kept plan of ``text``."""
    core = desugar_expression(parse_expression(text))
    miss, kept = session.prepare(core), session.prepare(core)
    assert not miss.cached and kept.cached
    return miss, kept


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("config", CONFIGS,
                         ids=["default", "fast", "scalar"])
@pytest.mark.parametrize("label", list(CASES))
def test_agrees_with_the_reference(label, config, mode):
    text, vals = CASES[label]
    session = _session(vals, MODES[mode], config)
    want = _outcome(lambda: reference_query_value(
        session.env, text, optimize=False))
    for plan in _plans(session, text):
        _agree(_outcome(lambda: plan.evaluator.run(plan.core)), want)
        assert FUSED.search(plan.evaluator.source), plan.evaluator.source


def test_the_outcomes_are_the_ones_expected():
    def run(label):
        text, vals = CASES[label]
        return _outcome(lambda: _session(vals, True).query_value(text + ";"))

    assert run("count")[1] == Array((5,), [5, 5, 5, 4, 4])
    assert run("twice")[1] == Array((5,), [10, 10, 10, 8, 8])
    assert run("empty")[1] == Array((0,), [])
    assert run("holes")[1] == Array((10,), [1, 0, 0, 2, 0, 0, 0, 0, 0, 1])
    assert run("strings")[1] == Array((3,), [1, 0, 2])
    assert run("negative-key") == ("error", "bad index key -3 for rank 1")
    assert run("bad-string-keys")[0] == "error"
    assert sum(run("rank-2")[1].flat) == 20


#: label -> the ``index_k`` of its statement alone
ALONE = {"count": "index!P", "holes": "index!P", "rank-2": "index_2!Q",
         "hist2": r"index!({(H[j], j) | \j <- dom!H})"}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("label", list(ALONE))
def test_a_probe_counts_the_group_by_it_replaced(label, mode):
    """The probed plan reports the cells, groups, pairs and largest
    group of the ``index_k`` alone."""
    text, vals = CASES[label]
    session = _session(vals, MODES[mode])
    keys = ("index_groupbys", "index_cells", "index_groups", "index_pairs",
            "max_group_size")
    fused, alone = (session.explain(statement + ";")
                    for statement in (text, ALONE[label]))
    assert FUSED.search(fused.code) and not FUSED.search(alone.code)
    assert [fused.to_dict()["metrics"][key] for key in keys] == \
        [alone.to_dict()["metrics"][key] for key in keys]


#: bodies outside the shape: each keeps the group-then-loop plan
DECLINED = {
    "real body": r"maparr!(fn \S => summap(fn \x => 0.5)!(S), index!P)",
    "body of the values": r"maparr!(total, index!P)",
    "A read elsewhere": r"(fn \A => [[ count!(A[i]) + len!A | \i < len!A ]])"
                        r"!(index!P)",
    "another cell": r"(fn \A => [[ count!(A[0]) | \i < len!A ]])!(index!P)",
}


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("label", list(DECLINED))
def test_other_bodies_keep_the_grouping_plan(label, mode):
    vals = {"P": frozenset((k % 4, k + 1) for k in range(10))}
    session = _session(vals, MODES[mode])
    text = DECLINED[label]
    want = _outcome(lambda: reference_query_value(
        session.env, text, optimize=False))
    for plan in _plans(session, text):
        source = plan.evaluator.source
        assert not FUSED.search(source), source
        assert re.search(r"_indexed\(v\d+, 1, _P\)", source), source
        _agree(_outcome(lambda: plan.evaluator.run(plan.core)), want)
