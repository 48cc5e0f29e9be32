"""The numpy-vectorized tabulation backend (``repro.core.kernels``).

The contract under test (``docs/VECTOR_BACKEND.md``): whenever the
vectorized path runs, its result is *indistinguishable* from the scalar
loop's — identical ``Array.dims`` and ``flat``, identical Python scalar
types (never numpy scalars), identical hashes — and whenever it cannot
guarantee that (⊥-raising bodies, non-numeric elements, overflow risk,
numpy absent), evaluation falls back to the unchanged scalar loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core import kernels
from repro.core.compile import CompiledEvaluator
from repro.core.fastpath import DispatchConfig
from repro.errors import EvalError
from repro.obs.metrics import EvalMetrics
from repro.objects import dense
from repro.objects.array import Array
from repro.system.session import Session

from conftest import agree, assert_identical, reference_outcome

numpy_required = pytest.mark.skipif(
    kernels._np is None, reason="numpy not installed"
)


@pytest.fixture(autouse=True)
def _vectorization_on(monkeypatch):
    """Pin the kill switch on so a REPRO_NO_VECTORIZE=1 environment
    doesn't fail the tests that assert the fast path runs (tests that
    need it off flip it themselves)."""
    monkeypatch.setattr(kernels, "ENABLED", True)

#: a 10×10 domain: 100 cells, comfortably above kernels.MIN_CELLS
EXTENTS = (ast.NatLit(10), ast.NatLit(10))

INT_GRID = Array((10, 10), [(i * 13 + 7) % 23 for i in range(100)])
FLOAT_GRID = Array((10, 10), [float(i % 9) * 0.25 for i in range(100)])


def _tab(body, bounds=EXTENTS, vars=("x", "y")):
    return ast.Tabulate(vars, bounds, body)


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
        # a ⊥ must carry the scalar loop's exact reason (fallback ran)
        agree(_tab(_build(tag)), binds={"A": INT_GRID, "B": FLOAT_GRID})

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
        assert kernels.recognize(_tab(body)) is None
        metrics = EvalMetrics()
        result = CompiledEvaluator(probe=metrics).run(_tab(body))
        assert result == Array((10, 10), [i // 10 for i in range(100)])
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == 100

    def test_small_domains_stay_scalar(self):
        expr = ast.Tabulate(("x",), (ast.NatLit(kernels.MIN_CELLS - 1),),
                            ast.Var("x"))
        metrics = EvalMetrics()
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == kernels.MIN_CELLS - 1


class TestNumpyAbsent:
    """With numpy gone (or the switch off) everything evaluates scalar."""

    def test_simulated_absence(self, monkeypatch):
        monkeypatch.setattr(kernels, "_np", None)
        assert not kernels.available()
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        result = agree(expr)[1]
        assert result == Array((10, 10),
                               [(i // 10) * (i % 10) for i in range(100)])

    def test_disabled_by_environment_switch(self, monkeypatch):
        monkeypatch.setattr(kernels, "ENABLED", False)
        metrics = EvalMetrics()
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        CompiledEvaluator(probe=metrics).run(expr)
        assert metrics.cells_vectorized == 0
        assert metrics.cells_materialized == 100


@numpy_required
class TestObservability:
    def test_probe_counts_vectorized_cells(self):
        expr = _tab(ast.Arith("*", ast.Var("x"), ast.Var("y")))
        metrics = EvalMetrics()
        CompiledEvaluator(probe=metrics).run(expr)
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


@numpy_required
class TestKernelInternals:
    def test_recognize_collects_inputs_once(self):
        body = ast.Arith(
            "+",
            ast.Subscript(ast.Var("A"), (ast.Var("x"), ast.Var("y"))),
            ast.Var("n"),
        )
        kernel = kernels.recognize(_tab(body))
        assert kernel is not None
        names = [leaf.name for leaf in kernel.inputs
                 if isinstance(leaf, ast.Var)]
        assert set(names) == {"A", "n"}

    def test_index_var_subscript_rejected(self):
        # x[y] subscripts a nat — the scalar path raises, so decline
        body = ast.Subscript(ast.Var("x"), (ast.Var("y"),))
        assert kernels.recognize(_tab(body)) is None

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

    def test_execute_declines_without_numpy(self, monkeypatch):
        kernel = kernels.recognize(_tab(ast.Var("x")))
        monkeypatch.setattr(kernels, "_np", None)
        assert kernels.execute(kernel, (10, 10), []) is None

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
