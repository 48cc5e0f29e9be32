"""The numpy-vectorized tabulation and ``Σ`` backend
(``repro.core.kernels``).

The contract under test (``docs/VECTOR_BACKEND.md``): whenever the
vectorized path runs, its result is *indistinguishable* from the scalar
loop's — identical ``Array.dims`` and ``flat``, identical Python scalar
types (never numpy scalars), identical hashes — and whenever it cannot
guarantee that (⊥-raising bodies, non-numeric elements, overflow risk,
numpy absent), evaluation falls back to the unchanged scalar loop.
"""

import math
import operator
import re
import warnings
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import kernels
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DEFAULT_MIN_CELLS, DispatchConfig
from repro.errors import EvalError
from repro.obs.metrics import EvalMetrics
from repro.objects import dense
from repro.objects.array import Array
from repro.system.session import Session

from conftest import (CONFIGS, agree, assert_identical, reference_outcome,
                      reference_query_value)

numpy_required = pytest.mark.skipif(
    kernels._np is None, reason="numpy not installed"
)

#: a 10×10 domain: 100 cells, comfortably above DEFAULT_MIN_CELLS
EXTENTS = (ast.NatLit(10), ast.NatLit(10))

INT_GRID = Array((10, 10), [(i * 13 + 7) % 23 for i in range(100)])
FLOAT_GRID = Array((10, 10), [float(i % 9) * 0.25 for i in range(100)])


def _tab(body, bounds=EXTENTS, vars=("x", "y")):
    return ast.Tabulate(vars, bounds, body)


#: what every emitted kernel block opens its numpy lines with
KERNEL_BLOCK = "= _kgrids("


def _source(expr, names=()):
    """The emitted source of ``expr`` with ``names`` free."""
    evaluator = CompiledEvaluator()
    evaluator.prepare(expr, tuple(sorted(names)))
    return evaluator.source


# ---------------------------------------------------------------------------
# the hypothesis grammar: exactly the recognizer's kernel language
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from([
    ("var", "x"), ("var", "y"),
    ("nat", 0), ("nat", 1), ("nat", 3), ("nat", 17),
    ("real", 0.5), ("real", -2.25),
    ("sub", "A"), ("sub", "B"),
])

_BODIES = st.recursive(
    _LEAVES,
    lambda inner: st.tuples(
        st.sampled_from(["+", "-", "*", "/", "%"]), inner, inner
    ),
    max_leaves=8,
)


def _build(tag) -> ast.Expr:
    if tag[0] == "var":
        return ast.Var(tag[1])
    if tag[0] == "nat":
        return ast.NatLit(tag[1])
    if tag[0] == "real":
        return ast.RealLit(tag[1])
    if tag[0] == "sub":
        return ast.Subscript(ast.Var(tag[1]), (ast.Var("x"), ast.Var("y")))
    op, left, right = tag
    return ast.Arith(op, _build(left), _build(right))


@numpy_required
class TestScalarVectorAgreement:
    """Property: both paths agree on every kernel-shaped body."""

    @settings(max_examples=120, deadline=None)
    @given(_BODIES)
    def test_random_kernels_agree(self, tag):
        # a ⊥ must carry the scalar loop's exact reason (fallback ran),
        # at the default floor, with every kernel taken and with none
        for config in CONFIGS:
            agree(_tab(_build(tag)), config,
                  binds={"A": INT_GRID, "B": FLOAT_GRID})

    def test_monus_clamps_like_the_scalar_loop(self):
        agree(_tab(ast.Arith("-", ast.Var("x"), ast.Var("y"))))

    def test_mixed_nat_real_promotes_to_float(self):
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.RealLit(0.5)))
        result = agree(expr)[1]
        assert all(type(cell) is float for cell in result.flat)

    def test_gather_from_bound_array(self):
        body = ast.Arith(
            "+",
            ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("y"))),
            ast.Arith("*", ast.Var("x"), ast.Var("y")),
        )
        agree(_tab(body), binds={"A": INT_GRID})


@numpy_required
class TestBottomFallsBackToScalar:
    """⊥-raising bodies must run the scalar loop and raise its error."""

    def test_division_by_zero(self):
        expr = _tab(ast.Arith("/", ast.Var("x"), ast.Var("y")))
        assert agree(expr) == ("bottom", "division by zero")

    def test_out_of_bounds_subscript(self):
        body = ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("x")))
        expr = ast.Tabulate(("x",), (ast.NatLit(100),), body)
        binds = {"A": Array((100, 50), list(range(5000)))}
        kind, reason = agree(expr, binds=binds)
        assert kind == "bottom"
        assert "out of bounds" in reason

    def test_real_modulo_is_bottom(self):
        expr = _tab(ast.Arith("%", ast.RealLit(1.5), ast.Var("x")))
        assert agree(expr)[0] == "bottom"


@numpy_required
class TestFallbackConditions:
    """Cases the executor must decline (and still compute correctly)."""

    def test_huge_ints_avoid_int64_overflow(self):
        big = 2 ** 40
        expr = _tab(ast.Arith(
            "*",
            ast.Arith("+", ast.Var("x"), ast.NatLit(big)),
            ast.Arith("+", ast.Var("y"), ast.NatLit(big)),
        ))
        result = agree(expr)[1]
        # exact Python bignum arithmetic, not wrapped int64
        assert result[(0, 0)] == big * big

    def test_mixed_element_array_falls_back(self):
        mixed = Array((10, 10), [0.5 if i % 2 else i for i in range(100)])
        body = ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("y")))
        agree(_tab(body), binds={"A": mixed})

    def test_unrecognizable_body_stays_scalar(self):
        body = ast.If(ast.BoolLit(True), ast.Var("x"), ast.Var("y"))
        assert KERNEL_BLOCK not in _source(_tab(body))
        metrics = EvalMetrics()
        result = CompiledEvaluator(probe=metrics).run(_tab(body))
        assert result == Array((10, 10), [i // 10 for i in range(100)])
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == 100

    def test_small_domains_stay_scalar(self):
        expr = ast.Tabulate(("x",), (ast.NatLit(DEFAULT_MIN_CELLS - 1),),
                            ast.Var("x"))
        metrics = EvalMetrics()
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == DEFAULT_MIN_CELLS - 1


class TestNumpyAbsent:
    """With numpy gone no body is a kernel and everything runs scalar."""

    def test_simulated_absence(self, monkeypatch):
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        present = kernels.available()
        assert (KERNEL_BLOCK in _source(expr)) == present
        monkeypatch.setattr(kernels, "_np", None)
        assert not kernels.available()
        source = _source(expr)
        assert KERNEL_BLOCK not in source and "wants_kernel" not in source
        result = agree(expr)[1]
        assert result == Array((10, 10),
                               [(i // 10) * (i % 10) for i in range(100)])


@numpy_required
class TestObservability:
    def test_probe_counts_vectorized_cells(self):
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        metrics = EvalMetrics()
        # the n*n grid's cells are Python ints, equal to the reference's
        agree(expr, probe=metrics)
        assert metrics.cells_vectorized == 100
        assert metrics.tabulations_vectorized == 1
        assert metrics.cells_materialized == 0  # disjoint counters
        snapshot = metrics.to_dict()
        assert snapshot["cells_vectorized"] == 100
        assert snapshot["tabulations_vectorized"] == 1
        assert "cells vectorized" in metrics.render()

    def test_profile_reports_vectorized_cells(self, session):
        outputs = session.run(":profile [[i * j | \\i < 20, \\j < 20]];")
        report = outputs[-1].explain
        assert report is not None
        assert report.metrics.cells_vectorized == 400
        assert outputs[-1].value == Array(
            (20, 20), [i * j for i in range(20) for j in range(20)]
        )

    def test_profile_shows_the_numpy_lines(self, session):
        """The kernel is plan code: ``:profile`` prints its numpy lines in
        ``== code ==``, ahead of the loop they stand in for."""
        outputs = session.run(":profile [[ x*y+x | \\x < 400, \\y < 400 ]];")
        code = outputs[-1].explain.render().split("== code ==", 1)[1]
        lines = [line.strip() for line in code.splitlines()]
        kernel = [line for line in lines if "_karith(" in line]
        assert [line.split(" = ")[1].split(",")[0] for line in kernel] == [
            "_karith('*'", "_karith('+'"]
        assert any(line.endswith("= _kgrids((t0, t1,))") for line in lines)
        assert "except _Fallback:" in lines
        assert any(re.fullmatch(r"if t\d+ is None:", line) for line in
                   lines[lines.index("except _Fallback:"):])
        assert outputs[-1].explain.metrics.cells_vectorized == 160_000


@numpy_required
class TestKernelInternals:
    def test_each_leaf_is_bound_once_before_the_block(self):
        """``A`` and ``n`` are read once per run, outside the numpy lines,
        however often the body names them; a probe counts just those
        two reads before the kernel's cells."""
        body = ast.Arith("+", ast.Arith(
            "+", _sub("A", X, Y), ast.Var("n")), ast.Arith(
                "*", _sub("A", Y, X), ast.Var("n")))
        source = _source(_tab(body), ("A", "n"))
        head, block = source.split("if _cfg.wants_kernel(", 1)[1].split(
            "try:", 1)
        block = block.split("except _Fallback:", 1)[0]
        # binds A = v0 and n = v1; the block reads only those names
        assert sorted(line.split(" = ")[1] for line in head.splitlines()[1:]
                      if " = " in line) == ["v0", "v1"]
        assert "v0" not in block and "v1" not in block
        assert block.count("_kgather(") == 2
        assert block.count("_kscalar(") == 2
        metrics = EvalMetrics()
        agree(_tab(body), probe=metrics, binds={"A": INT_GRID, "n": 3})
        assert metrics.node_evals == 1 + 2 + 2   # Tabulate, bounds, leaves
        assert metrics.cells_vectorized == 100

    def test_execute_declines_without_numpy(self, monkeypatch):
        """A body the recognizer takes with numpy present emits no numpy
        lines once numpy is gone, and every cell runs scalar."""
        expr = _tab(ast.Var("x"))
        assert KERNEL_BLOCK in _source(expr)
        monkeypatch.setattr(kernels, "_np", None)
        assert KERNEL_BLOCK not in _source(expr)
        metrics = EvalMetrics()
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == 100

    def test_index_var_subscript_rejected(self):
        # x[y] subscripts a nat — the scalar path raises, so decline
        body = ast.Subscript(ast.Var("x"), (ast.Var("y"),))
        assert KERNEL_BLOCK not in _source(_tab(body))

    def test_dense_block_is_cached_on_the_array(self):
        grid = Array((10, 10), list(range(100)))
        block, lo, hi = kernels._dense_block(grid)
        assert (lo, hi) == (0, 99)
        assert kernels._dense_block(grid)[0] is block

    def test_non_numeric_array_marks_cache_negative(self):
        words = Array((2,), ["a", "b"])
        with pytest.raises(kernels._Fallback):
            kernels._dense_block(words)
        assert words._block is False  # probed once, declined, cached
        with pytest.raises(kernels._Fallback):
            kernels._dense_block(words)

    def test_bool_elements_are_not_numeric(self):
        flags = Array((2,), [True, False])
        with pytest.raises(kernels._Fallback):
            kernels._dense_block(flags)


# ---------------------------------------------------------------------------
# affine subscripts are views: agreement on every index map
# ---------------------------------------------------------------------------

#: every tabulation below takes the kernel, however small its domain
KERNEL_ALWAYS = DispatchConfig(min_cells=1)

#: a data-dependent index vector (values 0..4)
PERM = Array((8,), [3, 0, 2, 1, 4, 0, 1, 2])

#: per-axis index maps: the first five are affine in one variable
#: (offset, stride 2, ``n - 1 - i`` through monus, stride -2, constant);
#: ``data`` reads ``PERM[v]``, ``sum`` adds two variables
_AFFINE = ("shift", "stride2", "reverse", "reverse2", "const")
_MAPS = _AFFINE + ("data", "sum")


def _index_map(kind, var, other, c, d):
    """The index expression for one operand axis of extent ``d``, and
    the largest extent of ``var`` that keeps it in bounds (``None``
    when it does not bound ``var``)."""
    v, n = ast.Var(var), ast.NatLit
    if kind == "shift":
        return ast.Arith("+", v, n(c)), d - c
    if kind == "stride2":
        return (ast.Arith("+", ast.Arith("*", n(2), v), n(c)),
                (d - 1 - c) // 2 + 1)
    if kind == "reverse":
        return ast.Arith("-", n(d - 1 - c), v), d - c
    if kind == "reverse2":
        return (ast.Arith("-", n(d - 1 - c), ast.Arith("*", n(2), v)),
                (d - 1 - c) // 2 + 1)
    if kind == "const":
        return n(c), None
    if kind == "data":
        return ast.Subscript(ast.Var("PERM"), (v,)), PERM.dims[0]
    return ast.Arith("+", v, ast.Var(other)), d


@st.composite
def _affine_cases(draw):
    """A tabulation whose body subscripts a rank-1..3 int/real block
    through one drawn map per axis, with each variable's extent at,
    just under or one past the largest in-bounds extent."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    names = ("x", "y", "z")[:draw(st.integers(1, 3))]
    indices, caps = [], {name: [] for name in names}
    for d in dims:
        kind = draw(st.sampled_from(_MAPS))
        var = draw(st.sampled_from(names))
        other = draw(st.sampled_from(names))
        index, cap = _index_map(kind, var, other, draw(st.integers(0, d - 1)),
                                d)
        indices.append(index)
        if cap is not None:
            caps[var].append(cap)
    bounds = []
    for name in names:
        fit = min(caps[name]) if caps[name] else draw(st.integers(1, 4))
        bounds.append(ast.NatLit(max(1, fit + draw(st.sampled_from(
            (0, 0, 1, -1))))))
    size = 1
    for d in dims:
        size *= d
    real = draw(st.booleans())
    cells = [k * 0.5 - 3.0 if real else (k * 7 + 3) % 11 for k in range(size)]
    block = Array(tuple(dims), cells)
    body = ast.Subscript(ast.Var("A"), tuple(indices))
    wrap = draw(st.sampled_from(("bare", "plus", "scaled")))
    if wrap == "plus":
        body = ast.Arith("+", body, ast.Var(names[0]))
    elif wrap == "scaled":
        body = ast.Arith("+", ast.Arith("*", body, ast.NatLit(2)),
                         ast.Subscript(ast.Var("A"), tuple(indices)))
    return ast.Tabulate(names, tuple(bounds), body), {"A": block,
                                                      "PERM": PERM}


def _viewed_gathered(expr, binds):
    before = dense.COUNTERS.snapshot()
    got = agree(expr, config=KERNEL_ALWAYS, binds=binds)
    after = dense.COUNTERS.snapshot()
    return got, (after["subscripts_viewed"] - before["subscripts_viewed"],
                 after["subscripts_gathered"]
                 - before["subscripts_gathered"])


def _sub(name, *indices):
    return ast.Subscript(ast.Var(name), tuple(indices))


def _plus(left, right):
    return ast.Arith("+", left, right)


X, Y, Z = ast.Var("x"), ast.Var("y"), ast.Var("z")
VECTOR = Array((10,), [k * k % 13 for k in range(10)])


@numpy_required
class TestAffineViews:
    """Affine subscripts are views; the rest still gather; ⊥ is kept."""

    @settings(max_examples=300, deadline=None)
    @given(_affine_cases())
    def test_index_maps_agree_with_reference(self, case):
        expr, binds = case
        agree(expr, config=KERNEL_ALWAYS, binds=binds)

    @pytest.mark.parametrize("index, extent", [
        (_plus(X, ast.NatLit(3)), 7),                       # offset
        (ast.Arith("*", ast.NatLit(2), X), 5),              # stride 2
        (ast.Arith("-", ast.NatLit(9), X), 10),             # reverse
        (ast.Arith("-", ast.NatLit(9), ast.Arith(
            "*", ast.NatLit(2), X)), 5),                    # stride -2
    ])
    def test_affine_maps_are_views(self, index, extent):
        expr = ast.Tabulate(("x",), (ast.NatLit(extent),),
                            _sub("V", index))
        got, counts = _viewed_gathered(expr, {"V": VECTOR})
        assert got[0] == "value" and counts == (1, 0)

    def test_one_past_the_extent_is_bottom_not_a_view(self):
        expr = ast.Tabulate(("x",), (ast.NatLit(8),),
                            _sub("V", _plus(X, ast.NatLit(3))))
        got, counts = _viewed_gathered(expr, {"V": VECTOR})
        assert got[0] == "bottom" and counts == (0, 0)

    def test_permuted_and_constant_axes_are_views(self):
        cube = Array((3, 4, 5), list(range(60)))
        body = _plus(_sub("C", ast.NatLit(2), Y, X),
                     _sub("C", Z, ast.NatLit(1), Y))
        expr = ast.Tabulate(("x", "y", "z"), tuple(
            ast.NatLit(n) for n in (5, 4, 3)), body)
        assert _viewed_gathered(expr, {"C": cube})[1] == (2, 0)

    @pytest.mark.parametrize("body", [
        _sub("M", X, X),                                    # A[i, i]
        _sub("M", _plus(X, Y), ast.NatLit(0)),              # A[i + j]
        _sub("M", ast.Arith("-", X, ast.NatLit(3)), Y),     # clamped
    ], ids=["repeated", "two-variable", "monus-clamped"])
    def test_non_affine_maps_gather(self, body):
        grid = Array((10, 10), list(range(100)))
        expr = ast.Tabulate(("x", "y"), (ast.NatLit(5), ast.NatLit(5)), body)
        assert _viewed_gathered(expr, {"M": grid})[1] == (0, 1)

    def test_data_dependent_index_gathers(self):
        # the inner PERM[x] is itself affine (a view); the outer gathers
        expr = ast.Tabulate(("x",), (ast.NatLit(8),),
                            _sub("V", _sub("PERM", X)))
        got, counts = _viewed_gathered(expr, {"V": VECTOR, "PERM": PERM})
        assert got[0] == "value" and counts == (1, 1)


DENSE_KERNEL_STATEMENTS = [
    r"[[ G[x, y] + 1 | \x < 30, \y < 30 ]];",
    r"transpose!G;",
    r"[[ G[x+5, y+5] | \x < 20, \y < 20 ]];",
    r"[[ G[x, y]*2 + H[x, y] | \x < 30, \y < 30 ]];",
    r"[[ C[d, y, x]*1.8 + 32.0 | \d < 20, \y < 8, \x < 8 ]];",
    r"[[ C[d+4, y, x] | \d < 6, \y < 8, \x < 8 ]];",
]

GATHER_STATEMENTS = [
    r"[[ G[B[x], 0] | \x < 100 ]];",
    r"[[ G[x, x] | \x < 30, \y < 30 ]];",
    r"[[ G[x+y, 0] | \x < 10, \y < 10 ]];",
]


def _dense_session():
    session = Session()
    session.env.set_val("G", Array((30, 30), [(k * 7) % 97
                                              for k in range(900)]))
    session.env.set_val("H", Array((30, 30), [k % 13 for k in range(900)]))
    session.env.set_val("C", Array((20, 8, 8), [k * 0.25
                                                for k in range(1280)]))
    session.env.set_val("B", Array((100,), [(k * 11) % 30
                                            for k in range(100)]))
    return session


@numpy_required
class TestSubscriptCounters:
    """``subscripts_viewed`` / ``subscripts_gathered`` in ``:profile``."""

    @pytest.mark.parametrize("text", DENSE_KERNEL_STATEMENTS)
    def test_dense_kernel_statements_never_gather(self, text):
        counters = _dense_session().explain(text).to_dict()["dense_store"]
        assert counters["subscripts_gathered"] == 0
        assert counters["subscripts_viewed"] >= 1

    @pytest.mark.parametrize("text", GATHER_STATEMENTS)
    def test_non_affine_statements_gather(self, text):
        counters = _dense_session().explain(text).to_dict()["dense_store"]
        assert counters["subscripts_gathered"] == 1
        # only G[B[x], 0]'s inner B[x] is affine
        assert counters["subscripts_viewed"] == (1 if "B[" in text else 0)

    def test_profile_renders_the_counters(self):
        outputs = _dense_session().run(
            ":profile [[ G[x+5, y+5] | \\x < 20, \\y < 20 ]];")
        text = outputs[-1].explain.render()
        assert "subscripts viewed     1  gathered 0" in text


# ---------------------------------------------------------------------------
# in-place temporaries never touch inputs; published bounds are sound
# ---------------------------------------------------------------------------

def _block_bytes(array):
    block = array.dense_block()
    return block.data.tobytes(), block.data.flags.writeable


def _assert_sound_bounds(array):
    block = array.block
    if block is None or block.tag != dense.TAG_INT:
        return
    assert -dense.INT_GUARD <= block.lo <= int(block.data.min())
    assert int(block.data.max()) <= block.hi <= dense.INT_GUARD


@numpy_required
class TestInPlaceSafety:

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_BODIES, min_size=1, max_size=4))
    def test_inputs_untouched_and_results_unshared(self, tags):
        binds = {"A": INT_GRID, "B": FLOAT_GRID}
        before = {name: _block_bytes(value) for name, value in binds.items()}
        results = []
        for tag in tags:
            got = agree(_tab(_build(tag)), binds=binds)
            if got[0] == "value":
                results.append((tag, got[1]))
                _assert_sound_bounds(got[1])
        for name, value in binds.items():
            data, writeable = _block_bytes(value)
            assert (data, writeable) == (before[name][0], False)
        blocks = [value.block.data for _, value in results
                  if value.block is not None]
        inputs = [value.dense_block().data for value in binds.values()]
        for k, data in enumerate(blocks):
            assert not data.flags.writeable
            for other in blocks[k + 1:] + inputs:
                assert not kernels._np.shares_memory(data, other)
        # an earlier result was not overwritten by a later kernel
        for tag, value in results:
            assert_identical(value, reference_outcome(
                _tab(_build(tag)), binds)[1])

    def test_bare_view_result_is_a_copy(self):
        grid = Array((10, 10), list(range(100)))
        expr = _tab(_sub("A", Y, X))
        result = agree(expr, binds={"A": grid})[1]
        if result.block is not None:
            assert not kernels._np.shares_memory(
                result.block.data, grid.dense_block().data)


@numpy_required
class TestPublishedBounds:
    """``lo``/``hi`` are sound and inside the guard, trusted or scanned."""

    BIG = Array((100,), [dense.INT_GUARD if k == 7 else k + 1
                         for k in range(100)])

    @pytest.mark.parametrize("body", [
        _plus(ast.Arith("*", X, X), X),
        ast.Arith("-", ast.NatLit(50), X),
        ast.Arith("%", _sub("A", X), _plus(X, ast.NatLit(1))),
        ast.Arith("/", _sub("A", X), ast.NatLit(1)),     # leaves the guard
        ast.Arith("%", X, _sub("A", X)),
        ast.Arith("/", ast.Arith("*", X, ast.NatLit(3)), _plus(
            X, ast.NatLit(1))),
    ])
    def test_int_results_carry_sound_bounds(self, body):
        expr = ast.Tabulate(("x",), (ast.NatLit(100),), body)
        result = agree(expr, binds={"A": self.BIG})[1]
        _assert_sound_bounds(result)

    def test_proven_interval_is_published_unscanned(self):
        expr = ast.Tabulate(("x",), (ast.NatLit(100),),
                            ast.Arith("/", X, ast.NatLit(7)))
        result = agree(expr)[1]
        if result.block is not None:
            assert (result.block.lo, result.block.hi) == (-100, 100)

    def test_interval_outside_the_guard_is_rescanned(self):
        expr = ast.Tabulate(("x",), (ast.NatLit(100),),
                            ast.Arith("/", _sub("A", X), ast.NatLit(1)))
        result = agree(expr, binds={"A": self.BIG})[1]
        if result.block is not None:
            assert (result.block.lo, result.block.hi) == (1, dense.INT_GUARD)


# ---------------------------------------------------------------------------
# reductions: Σ over gen!n, and Σ inside a tabulation body
# ---------------------------------------------------------------------------

#: the length of the vectors a top-level Σ reads: ``gen!(L + 1)`` reads
#: one past the end at its last term
L = 72

#: the largest nat ``L`` terms may each be and still sum inside the guard
EDGE = dense.INT_GUARD // L

#: cancellation: the left-to-right fold and numpy's pairwise sum differ
CANCEL = [(1e16, 1.0, -1e16, 0.1, 3.3)[k % 5] * (1 + k % 3) for k in range(L)]

#: −0.0 terms (so a prefix sums to 0.0), overflow to ±inf, then NaN
SPECIAL = [{10: 1e308, 11: 1e308, 30: float("-inf"), 50: float("inf"),
            60: float("nan")}.get(k, -0.0) for k in range(L)]

SUM_BINDS = {
    "V": Array((L,), [(k * 5 + 1) % 9 for k in range(L)]),
    "E": Array((L,), [EDGE - k % 2 for k in range(L)]),
    "Z": Array((L,), [0 if k == 37 else k % 4 + 1 for k in range(L)]),
    "C": Array((L,), CANCEL),
    "S": Array((L,), SPECIAL),
    # [i, k] operands are 8 × 9 and [k, j] ones 9 × 8: k < 10 reads one
    # past the last column/row at its last term
    "M": Array((8, 9), [(c * 7 + 3) % 11 for c in range(72)]),
    "N": Array((9, 8), [dense.INT_GUARD // 9 - c % 2 for c in range(72)]),
    "R": Array((9, 8), CANCEL),
    "T": Array((8, 9), SPECIAL),
}

_I, _K = ast.Var("i"), ast.Var("k")
_SUM_LEAVES = {
    "top": [("var", "i"), ("nat", 0), ("nat", 3), ("real", -0.0),
            ("real", 0.5), ("real", 1e308),
            *(("sub", name, ("i",)) for name in "VEZCS")],
    "tab": [("var", "i"), ("var", "j"), ("var", "k"), ("nat", 2),
            ("real", -0.0), ("real", 0.1), ("sub", "M", ("i", "k")),
            ("sub", "T", ("i", "k")), ("sub", "N", ("k", "j")),
            ("sub", "R", ("k", "j"))],
}


def _sum_bodies(kind):
    return st.recursive(
        st.sampled_from(_SUM_LEAVES[kind]),
        lambda inner: st.tuples(st.sampled_from(["+", "-", "*", "/", "%"]),
                                inner, inner),
        max_leaves=4)


def _build_term(tag) -> ast.Expr:
    if tag[0] == "sub":
        return _sub(tag[1], *map(ast.Var, tag[2]))
    if tag[0] in ("var", "nat", "real"):
        return _build(tag)
    op, left, right = tag
    return ast.Arith(op, _build_term(left), _build_term(right))


def _sigma(var, body, bound):
    return ast.Sum(var, body, ast.Gen(ast.NatLit(bound)))


def _top_sum(body, n):
    return _sigma("i", body, n)


def _tab_sum(body, b, m, p):
    return ast.Tabulate(("i", "j"), (ast.NatLit(m), ast.NatLit(p)),
                        _sigma("k", body, b))


def _vectorized(expr):
    """The probed outcome with every kernel taken (checked against the
    reference) and the cells it vectorized."""
    metrics = EvalMetrics()
    got = agree(expr, KERNEL_ALWAYS, probe=metrics, binds=SUM_BINDS)
    return got, metrics.cells_vectorized


@numpy_required
class TestReductions:
    """Σ kernels agree with the reference fold: value, kind, float
    ``repr``, hash and ⊥ reason, under every dispatch floor."""

    @settings(max_examples=150, deadline=None)
    @given(_sum_bodies("top"),
           st.sampled_from([0, 1, 2, 11, 31, 37, 38, 51, 61, 64, 71, L, L + 1]))
    def test_top_level_sums_agree(self, tag, n):
        for config in CONFIGS:
            agree(_top_sum(_build_term(tag), n), config, binds=SUM_BINDS)

    @settings(max_examples=150, deadline=None)
    @given(_sum_bodies("tab"), st.sampled_from([0, 1, 8, 9, 10]),
           st.sampled_from([0, 1, 3, 8]), st.sampled_from([1, 3, 8]))
    def test_sums_in_tabulations_agree(self, tag, b, m, p):
        for config in CONFIGS:
            agree(_tab_sum(_build_term(tag), b, m, p), config,
                  binds=SUM_BINDS)

    def test_nat_sum_at_the_guard_edge_runs_exactly(self):
        edge = _top_sum(_sub("E", _I), L)   # L · EDGE ≤ 2**62: int64
        assert _vectorized(edge) == (("value", sum(SUM_BINDS["E"].flat)), L)
        over = _top_sum(_plus(_sub("E", _I), ast.NatLit(L)), L)
        assert _vectorized(over)[1] == 0    # past the guard: scalar loop

    def test_real_sum_is_the_left_to_right_fold(self):
        (kind, value), cells = _vectorized(_top_sum(_sub("C", _I), L))
        assert (kind, cells) == ("value", L)
        assert value == reduce(operator.add, CANCEL, 0)
        assert value != float(kernels._np.sum(CANCEL))  # pairwise differs

    @pytest.mark.parametrize("n, want", [
        (10, "0.0"), (12, "inf"), (31, "nan"), (L, "nan")])
    def test_special_reals_fold_like_python(self, n, want):
        (kind, value), cells = _vectorized(_top_sum(_sub("S", _I), n))
        assert (kind, repr(value), cells) == ("value", want, n)

    def test_empty_sums_are_the_nat_zero(self):
        real = ast.Arith("*", _sub("C", _I), ast.RealLit(0.5))
        assert _vectorized(_top_sum(real, 0))[0] == ("value", 0)
        expr = _tab_sum(_sub("R", _K, ast.Var("j")), 0, 8, 8)
        (kind, value), cells = _vectorized(expr)
        assert (kind, cells) == ("value", 64)
        assert all(type(cell) is int for cell in value.flat)

    def test_one_zero_divisor_is_bottom(self):
        expr = _top_sum(ast.Arith("/", ast.NatLit(100), _sub("Z", _I)), L)
        for config in CONFIGS:
            assert agree(expr, config, binds=SUM_BINDS) == (
                "bottom", "division by zero")

    def test_out_of_bounds_at_the_last_k_is_bottom(self):
        body = ast.Arith("*", _sub("M", _I, _K), _sub("R", _K, ast.Var("j")))
        for config in CONFIGS:
            kind, reason = agree(_tab_sum(body, 10, 8, 8), config,
                                 binds=SUM_BINDS)
            assert kind == "bottom" and "out of bounds" in reason

    @pytest.mark.parametrize("operand, vectorized", [("M", 8), ("V", 0)])
    def test_nested_sums_bounded_by_an_extent(self, operand, vectorized):
        """``Σ_{i<8} Σ_{k < π_2(dim_2(operand))} M[i, k]``: ``M``'s extent
        is a kernel leaf; ``dim_2`` of the rank-1 ``V`` is ⊥."""
        inner = ast.Sum("k", _sub("M", _I, _K), ast.Gen(ast.Proj(
            2, 2, ast.Dim(ast.Var(operand), 2))))
        got, cells = _vectorized(_sigma("i", inner, 8))
        assert (got[0], cells) == ("value" if vectorized else "bottom",
                                   vectorized)

    def test_index_dependent_bound_is_declined(self):
        """A Σ bounded by a constant is an axis of its tabulation's
        kernel; one bounded by ``i + 1`` keeps the tabulation a loop,
        whose eight ``Σ`` are then kernels of their own."""
        tab = ast.Tabulate(("i",), (ast.NatLit(8),),
                           _sigma("k", _sub("M", _I, _K), 9))
        assert "_kbound(" in _source(tab, ("M",))
        metrics = EvalMetrics()
        agree(tab, KERNEL_ALWAYS, probe=metrics, binds=SUM_BINDS)
        assert (metrics.tabulations_vectorized, metrics.cells_vectorized,
                metrics.cells_materialized) == (1, 8, 0)
        prefix = ast.Tabulate(("i",), (ast.NatLit(8),), ast.Sum(
            "k", _sub("V", _K), ast.Gen(_plus(_I, ast.NatLit(1)))))
        assert "_kbound(" not in _source(prefix, ("V",))
        metrics = EvalMetrics()
        agree(prefix, KERNEL_ALWAYS, probe=metrics, binds=SUM_BINDS)
        assert (metrics.tabulations_vectorized, metrics.cells_vectorized,
                metrics.cells_materialized) == (8, sum(range(1, 9)), 8)

    @pytest.mark.parametrize("real", [False, True])
    def test_matmul_is_bit_identical(self, real):
        session = Session()
        cells = [(c * 7 + 3) % 13 * (0.37 if real else 1) for c in range(600)]
        session.env.set_val("P", Array((20, 30), cells))
        session.env.set_val("Q", Array((30, 20), cells[::-1]))
        report = session.explain("matmul!(P, Q);")
        assert_identical(report.value,
                         reference_query_value(session.env, "matmul!(P, Q)"))
        assert report.metrics.cells_vectorized == 400


@numpy_required
def test_numpy_warnings_stay_inside_the_session():
    """IEEE overflow gives ``inf`` on both paths; numpy's warning about
    it must not reach the host, even where warnings are errors."""
    session = Session()
    session.env.set_val("A", Array((100,), [1e308] * 100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = session.query_value(r"[[ A[i] * 10.0 | \i < 100 ]];")
        total = session.query_value(r"summap(fn \i => A[i] * 10.0)!(gen!100);")
        spread = session.query_value(
            r"[[ A[i] * 10.0 - A[i] * 10.0 | \i < 100 ]];")
    assert grid == Array((100,), [math.inf] * 100)
    assert total == math.inf
    assert all(cell != cell for cell in spread.flat)


#: the one floor at which an empty grid asks for a kernel
KERNEL_EVEN_EMPTY = DispatchConfig(min_cells=0)


@numpy_required
class TestZeroExtents:
    """``wants_kernel(0)`` holds only at ``min_cells=0``: an empty grid
    or ``gen!0`` then takes the kernel block's early result, counted as
    one vectorized construct of no cells."""

    A = Array((4,), [1.5, 2.5, 3.5, 4.5])

    @pytest.mark.parametrize("expr, value", [
        (ast.Tabulate(("i",), (ast.NatLit(0),), _sub("A", ast.Var("i"))),
         Array((0,), [])),
        # the key's interval [5, 4] overruns A: its bounds check would
        # ask the empty key for a min()
        (ast.Tabulate(("i",), (ast.NatLit(0),),
                      _sub("A", _plus(ast.Var("i"), ast.NatLit(5)))),
         Array((0,), [])),
        (ast.Tabulate(("x", "y"), (ast.NatLit(0), ast.NatLit(5)),
                      ast.Arith("+", ast.Var("x"), ast.Var("y"))),
         Array((0, 5), [])),
        (ast.Sum("i", _sub("A", ast.Var("i")), ast.Gen(ast.NatLit(0))), 0),
    ], ids=["rank-1", "rank-1-shifted", "rank-2", "sum"])
    def test_empty_domains_take_the_early_result(self, expr, value):
        for config in (KERNEL_EVEN_EMPTY, *CONFIGS):
            metrics = EvalMetrics()
            got = agree(expr, config, probe=metrics, binds={"A": self.A})
            assert_identical(got[1], value)
            assert metrics.tabulations_vectorized == (
                config is KERNEL_EVEN_EMPTY)
            assert metrics.cells_vectorized == 0

    @pytest.mark.parametrize("text", [
        r"[[ A[i] | \i < 0 ]];",
        r"[[ x + y | \x < 0, \y < 5 ]];",
        r"summap(fn \i => A[i])!(gen!0);",
    ])
    def test_sessions_at_min_cells_zero_agree(self, text):
        session = Session(min_cells=0)
        session.env.set_val("A", self.A)
        assert_identical(session.query_value(text),
                         reference_query_value(session.env, text[:-1]))
