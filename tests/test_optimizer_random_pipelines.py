"""Optimizer soundness on randomly composed array pipelines.

Hypothesis builds arbitrary compositions of the Section 2 derived
operators (reverse, evenpos, map, subseq, zip-with-self, append,
transpose-free 1-d ops) and checks that the fully optimized program
computes the same value — including the same ⊥ behaviour — as the
original.  This is the broadest soundness net in the suite: every rule
interplay (β^p into η^p into bounds elimination into motion) gets
exercised on programs no human wrote.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import evaluate
from repro.errors import BottomError
from repro.objects.array import Array
from repro.optimizer.engine import default_optimizer

from conftest import aql_core, nat_arrays

#: hypothesis-heavy; excluded from the quick CI lane (-m "not slow")
pytestmark = pytest.mark.slow

#: pipeline stages: stdlib text over a 1-d nat array, ``{0}`` the input
_STAGES = [
    ("reverse", "reverse!({0})"),
    ("evenpos", "evenpos!({0})"),
    ("inc", r"maparr!(fn \x => x + 1, {0})"),
    ("double", r"maparr!(fn \x => x * 2, {0})"),
    ("drop2", "subseq!({0}, 2, len!({0}) - 1)"),
    ("take3", "subseq!({0}, 0, 2)"),
    ("self-zip-first", r"maparr!(fn (\x, _) => x, zip!({0}, reverse!({0})))"),
    ("dup", "append!({0}, {0})"),
    ("identity-map", r"maparr!(fn \x => x, {0})"),
]

def _worst_cost(indices, input_len=10):
    """Worst-case node-evaluation count of the *unoptimized* pipeline.

    Naive evaluation materializes the whole inner expression for every
    ``Subscript`` of it, so each stage multiplies its input's cost by
    roughly (output length × input evaluations per output cell).  A
    simple duplicating-stage head count is not enough: two
    ``self-zip-first`` stages plus two ``reverse`` stages pass such a
    filter yet cost ~10^7 node evaluations over a 10-element array
    (each projected cell re-materializes a whole ``zip!(e, reverse!e)``
    — ~3·len evaluations of ``e``), which stalled the suite for over
    an hour on an unlucky draw.  The same bound also caps the strict
    (``assume_error_free=False``) pipeline evaluated on erroring
    inputs, where ⊥-preservation keeps most of these towers unfused.
    """
    length, cost = float(input_len), 1.0
    for index in indices:
        name, _ = _STAGES[index]
        if name == "self-zip-first":
            per_cell = 3.0 * length  # a full zip!(e, reverse!e) per cell
        elif name in ("reverse", "dup"):
            per_cell = 2.0  # body subscript + a len(e) re-evaluation
        else:
            per_cell = 1.0
        if name == "dup":
            length *= 2.0
        elif name == "evenpos":
            length = max(length // 2, 1.0)
        elif name == "take3":
            length = min(length, 3.0)
        cost = max(length, 1.0) * per_cell * cost + cost  # + extent pass
    return cost


#: Calibrated by timing every admissible pipeline shape: the worst
#: one (including the strict-pipeline rerun on ⊥) measures ~1.6s on a
#: 10-element array; hypothesis's bias toward small examples keeps
#: typical draws far below the cap.
_COST_CAP = 20_000

_stage_indices = st.lists(
    st.integers(0, len(_STAGES) - 1), min_size=1, max_size=4
).filter(lambda ix: _worst_cost(ix) <= _COST_CAP)


def _build_pipeline(indices):
    text = "A"
    names = []
    for index in indices:
        name, stage = _STAGES[index]
        names.append(name)
        text = stage.format(text)
    return text, names


class TestRandomPipelines:
    @given(indices=_stage_indices, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_optimization_preserves_semantics(self, std_env, indices, data):
        text, names = _build_pipeline(indices)
        expr = aql_core(std_env, text)
        optimized = aql_core(std_env, text, optimize=True)
        arr = data.draw(nat_arrays)
        try:
            expected = evaluate(expr, {"A": arr})
        except BottomError:
            # the paper's optimizer assumes error-free inputs (Section 5);
            # on erroring pipelines we only require the strict pipeline
            # to agree
            strict = default_optimizer(assume_error_free=False).optimize(
                expr
            )
            with pytest.raises(BottomError):
                evaluate(strict, {"A": arr})
            return
        got = evaluate(optimized, {"A": arr})
        assert got == expected, f"pipeline {names} on {arr}"

    @given(indices=_stage_indices)
    @settings(max_examples=30, deadline=None)
    def test_optimization_never_grows_loop_count(self, std_env, indices):
        text, names = _build_pipeline(indices)
        expr = aql_core(std_env, text)
        optimized = aql_core(std_env, text, optimize=True)
        loops_before = sum(
            isinstance(t, (ast.Tabulate, ast.Ext, ast.Sum))
            for t in ast.subterms(expr)
        )
        loops_after = sum(
            isinstance(t, (ast.Tabulate, ast.Ext, ast.Sum))
            for t in ast.subterms(optimized)
        )
        assert loops_after <= loops_before, names

    @given(indices=_stage_indices)
    @settings(max_examples=30, deadline=None)
    def test_optimization_is_idempotent_semantically(self, std_env, indices):
        text, _ = _build_pipeline(indices)
        once = aql_core(std_env, text, optimize=True)
        twice = std_env.optimizer.optimize(once)
        arr = Array.from_list([5, 3, 8, 1, 9, 2, 7, 4])
        try:
            first = evaluate(once, {"A": arr})
        except BottomError:
            with pytest.raises(BottomError):
                evaluate(twice, {"A": arr})
            return
        assert evaluate(twice, {"A": arr}) == first
