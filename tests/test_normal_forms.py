"""C3/C4 — the Section 5 normal-form claims, plus optimizer soundness.

* the derived ``transpose`` rule:
  ``transpose([[e | i<m, j<n]]) ⇝ [[e | j<n, i<m]]``;
* ``zip ∘ (subseq, subseq)`` and ``subseq ∘ zip`` normalize to the same
  query up to redundant bound checks;
* a property-based soundness check: optimization never changes the value
  of a query;
* first-order normal forms: no kept plan calls a λ.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ast
from repro.core.compile import CompiledEvaluator
from repro.errors import BottomError
from repro.obs.metrics import EvalMetrics
from repro.objects.array import Array
from repro.optimizer.analysis import strip_bounds_checks
from repro.optimizer.engine import default_optimizer
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression
from repro.system.session import Session
from repro.types.types import TArray, TArrow, TNat, TProduct, TReal

from conftest import SCALAR, aql_core, nat_arrays, nat_matrices
from test_plan_digests import _sessions, _workload_texts

V = ast.Var

# Where a derivation does not yet fire on the macro application (see
# TestStdlibSpellings), the claim is checked on the hand-expanded text:
# the stdlib body with each argument written in place of its parameter,
# which is Section 4.1's "macros are substituted in" step.  Binders are
# renamed where an argument mentions the body's own names.

#: transpose!([[ i*n + j | \i < m, \j < n ]])
TRANSPOSE_OF_TAB = r"""
    let val (\p, \q) = dim_2!([[ i*n + j | \i < m, \j < n ]])
    in [[ ([[ i*n + j | \i < m, \j < n ]])[a, b] | \b < q, \a < p ]] end"""

#: transpose!([[ i | \i < m, \j < n ]])
TRANSPOSE_OF_ROWS = r"""
    let val (\p, \q) = dim_2!([[ i | \i < m, \j < n ]])
    in [[ ([[ i | \i < m, \j < n ]])[a, b] | \b < q, \a < p ]] end"""

#: transpose!(transpose!M)
_T = r"(let val (\m, \n) = dim_2!M in [[ M[i, j] | \j < n, \i < m ]] end)"
TRANSPOSE_TWICE = r"""
    let val (\p, \q) = dim_2!%s
    in [[ %s[a, b] | \b < q, \a < p ]] end""" % (_T, _T)

#: zip!(subseq!(A, 2, 7), subseq!(B, 2, 7)) and subseq!(zip!(A, B), 2, 7)
_SA, _SB = (r"([[ %s[2+k] | \k < (7+1)-2 ]])" % name for name in "AB")
ZIP_OF_SUBSEQS = r"""
    [[ (%s[i], %s[i]) | \i < min2!(len!%s, len!%s) ]]""" % (
    _SA, _SB, _SA, _SB)
SUBSEQ_OF_ZIP = r"""
    [[ ([[ (A[i], B[i]) | \i < min2!(len!A, len!B) ]])[2+k]
     | \k < (7+1)-2 ]]"""

#: zip_3!(subseq!(A, 1, 4), subseq!(B, 1, 4), subseq!(C, 1, 4)) and
#: subseq!(zip_3!(A, B, C), 1, 4)
_S3 = [r"([[ %s[1+k] | \k < (4+1)-1 ]])" % name for name in "ABC"]
ZIP3_OF_SUBSEQS = r"""
    [[ (%s[i], %s[i], %s[i])
     | \i < min2!(len!%s, min2!(len!%s, len!%s)) ]]""" % (*_S3, *_S3)
SUBSEQ_OF_ZIP3 = r"""
    [[ ([[ (A[i], B[i], C[i])
         | \i < min2!(len!A, min2!(len!B, len!C)) ]])[1+k]
     | \k < (4+1)-1 ]]"""

#: reverse!(reverse!A)
_R = r"([[ A[len!A - i - 1] | \i < len!A ]])"
REVERSE_TWICE = r"[[ %s[len!%s - i - 1] | \i < len!%s ]]" % (_R, _R, _R)

#: maparr!(fn \x => x + 1, maparr!(fn \x => x * 2, A))
_DOUBLED = r"([[ (fn \x => x * 2)!(A[i]) | \i < len!A ]])"
MAP_OF_MAP = r"[[ (fn \x => x + 1)!(%s[i]) | \i < len!%s ]]" % (
    _DOUBLED, _DOUBLED)


def run(env, expr, binds=None):
    """The production engine with ``env``'s primitives."""
    return env.evaluator().run(expr, binds or {})


def tabulations(expr):
    return [t for t in ast.subterms(expr) if isinstance(t, ast.Tabulate)]


class TestTransposeRule:
    """C4: the transpose rule is derivable from β, π, β^p, δ^p + bounds
    elimination — no transpose-specific rule exists in the system."""

    def test_rule_name_absent(self, std_env):
        for phase in std_env.optimizer.phases:
            assert "transpose" not in " ".join(phase.rules.names())

    def test_derivation(self, std_env):
        body = ast.Arith("+", ast.Arith("*", V("i"), V("n")), V("j"))
        normal = aql_core(std_env, TRANSPOSE_OF_TAB, optimize=True)
        expected = ast.Tabulate(("j", "i"), (V("n"), V("m")), body)
        assert ast.alpha_equal(normal, expected)

    def test_no_redundant_checks_remain(self, std_env):
        normal = aql_core(std_env, TRANSPOSE_OF_ROWS, optimize=True)
        assert not any(isinstance(t, ast.Bottom)
                       for t in ast.subterms(normal))

    @given(nat_matrices(max_dim=3))
    @settings(max_examples=25)
    def test_semantics_preserved(self, std_env, m):
        for text in ("transpose!M", TRANSPOSE_TWICE):
            e = aql_core(std_env, text)
            assert run(std_env, aql_core(std_env, text, optimize=True),
                       {"M": m}) == run(std_env, e, {"M": m})

    def test_double_transpose_is_identity(self, std_env):
        # η^p finishes the job: transpose(transpose(M)) ⇝ M
        assert aql_core(std_env, TRANSPOSE_TWICE, optimize=True) == V("M")


class TestZipSubseqEquivalence:
    """C3: zip_3∘(subseq,subseq,subseq) and subseq∘zip_3 reduce to the
    same query, up to extra constant-time bound checks (Section 1/5)."""

    def _normal_forms(self, env):
        return (aql_core(env, ZIP_OF_SUBSEQS, optimize=True),
                aql_core(env, SUBSEQ_OF_ZIP, optimize=True))

    def test_equal_up_to_bound_checks(self, std_env):
        n1, n2 = self._normal_forms(std_env)
        assert not ast.alpha_equal(n1, n2)  # residual checks differ...
        assert ast.alpha_equal(strip_bounds_checks(n1),
                               strip_bounds_checks(n2))  # ...only

    def test_both_sides_are_single_tabulations(self, std_env):
        n1, n2 = self._normal_forms(std_env)
        assert isinstance(n1, ast.Tabulate)
        assert isinstance(n2, ast.Tabulate)
        # no nested tabulations survive: intermediates were eliminated
        for normal in (n1, n2):
            assert tabulations(normal.body) == []

    def test_three_way_zip_variant(self, std_env):
        n1 = aql_core(std_env, ZIP3_OF_SUBSEQS, optimize=True)
        n2 = aql_core(std_env, SUBSEQ_OF_ZIP3, optimize=True)
        assert ast.alpha_equal(strip_bounds_checks(n1),
                               strip_bounds_checks(n2))
        # the window starts at 1: cell 0 holds A[1], B[1], C[1]
        binds = {name: Array.from_list(list(range(10 * k, 10 * k + 10)))
                 for k, name in enumerate("ABC")}
        for normal in (n1, n2):
            assert run(std_env, normal, binds)[0] == (1, 11, 21)

    @given(st.lists(st.integers(0, 20), min_size=10, max_size=14),
           st.lists(st.integers(0, 20), min_size=10, max_size=14))
    @settings(max_examples=20)
    def test_values_agree_after_optimization(self, std_env, xs, ys):
        binds = {"A": Array.from_list(xs), "B": Array.from_list(ys)}
        want = run(std_env, aql_core(std_env, ZIP_OF_SUBSEQS), binds)
        for text in (ZIP_OF_SUBSEQS, SUBSEQ_OF_ZIP,
                     "zip!(subseq!(A, 2, 7), subseq!(B, 2, 7))",
                     "subseq!(zip!(A, B), 2, 7)"):
            got = run(std_env, aql_core(std_env, text, optimize=True),
                      binds)
            assert got == want, text


class TestEtaPipelines:
    def test_identity_map_collapses(self, std_env):
        # [[A[i] | i < len A]] ⇝ A  (η^p after β fires on map's lambda)
        e = aql_core(std_env, r"maparr!(fn \x => x, A)", optimize=True)
        assert e == V("A")

    def test_reverse_reverse_collapses(self, std_env):
        out = aql_core(std_env, REVERSE_TWICE, optimize=True)
        # needs len A - (len A - i - 1) - 1 = i: beyond pure rewriting,
        # but the result must stay a single tabulation over A
        assert len(tabulations(out)) <= 1

    def test_map_fusion(self, std_env):
        # map f (map g A) fuses into a single tabulation
        out = aql_core(std_env, MAP_OF_MAP, optimize=True)
        assert len(tabulations(out)) == 1
        arr = Array.from_list([1, 2, 3])
        assert run(std_env, out, {"A": arr}) == \
            Array.from_list([3, 5, 7])


class TestNormalFormsRunFewerNodes:
    """β^p, η^p, the derived transpose rule and map fusion save work,
    counted as node evaluations of the scalar plan.  How that work grows
    with the array under β^p and η^p is ``test_shape_claims.py``'s
    ``TestC5ArrayRules``."""

    @pytest.mark.parametrize("text, binds", [
        (r"([[ i * 2 | \i < 1000 ]])[5]", {}),
        (r"maparr!(fn \x => x, A)", {"A": Array.from_list(list(range(20)))}),
        (TRANSPOSE_OF_ROWS, {"m": 6, "n": 5}),
        (MAP_OF_MAP, {"A": Array.from_list(list(range(20)))}),
    ], ids=["beta-p", "eta-p", "transpose", "map-fusion"])
    def test_optimized_plan_evaluates_fewer_nodes(self, std_env, text,
                                                  binds):
        counted = []
        for optimize in (False, True):
            probe = EvalMetrics()
            evaluator = CompiledEvaluator(std_env._prim_impls, probe=probe,
                                          dispatch=SCALAR)
            counted.append((evaluator.run(
                aql_core(std_env, text, optimize), binds), probe.node_evals))
        (raw, raw_nodes), (optimized, optimized_nodes) = counted
        assert optimized == raw
        assert optimized_nodes < raw_nodes


#: why the stdlib spellings of the C3/C4 pipelines stop short of their
#: normal forms
_FUSION_GAP = (
    "effective_occurrences (optimizer/analysis.py) counts the parameter "
    "in dim_2!M/len!A and again in M[i,j]/A[i] inside the tabulation "
    "body, so β (rules_nrc.py) refuses a Tabulate argument and the "
    "macro application stays App(Lam …, Tabulate …)")


class TestStdlibSpellings:
    """The same claims on the macro applications users write.  They do
    not hold yet; each is a strict xfail so a fix shows up here."""

    @pytest.mark.xfail(strict=True, reason=_FUSION_GAP)
    def test_double_transpose_is_identity(self, std_env):
        assert aql_core(std_env, "transpose!(transpose!M)",
                        optimize=True) == V("M")

    @pytest.mark.xfail(strict=True, reason=_FUSION_GAP)
    def test_transpose_derivation(self, std_env):
        body = ast.Arith("+", ast.Arith("*", V("i"), V("n")), V("j"))
        normal = aql_core(
            std_env, r"transpose!([[ i*n + j | \i < m, \j < n ]])",
            optimize=True)
        expected = ast.Tabulate(("j", "i"), (V("n"), V("m")), body)
        assert ast.alpha_equal(normal, expected)

    @pytest.mark.xfail(strict=True, reason=_FUSION_GAP)
    def test_zip_of_subseqs_is_one_tabulation(self, std_env):
        normal = aql_core(
            std_env, "zip!(subseq!(A, 2, 7), subseq!(B, 2, 7))",
            optimize=True)
        assert isinstance(normal, ast.Tabulate)
        assert tabulations(normal.body) == []

    @pytest.mark.xfail(strict=True, reason=_FUSION_GAP)
    def test_map_fusion(self, std_env):
        out = aql_core(std_env,
                       r"maparr!(fn \x => x + 1, maparr!(fn \x => x * 2, A))",
                       optimize=True)
        assert len(tabulations(out)) == 1


class TestOptimizerSoundness:
    """Optimization must never change query results (or error behaviour
    of error-free queries)."""

    CASES = [
        ("hist", "hist!A", "array"),
        ("hist_fast", "hist2!A", "array"),
        ("reverse", "reverse!A", "array"),
        ("evenpos", "evenpos!A", "array"),
        ("rng", "rng!A", "array"),
        ("graph", "graph!A", "array"),
        ("dom", "dom!A", "array"),
        ("nest", "nest!R", "rel"),
        ("count", "count!S", "set"),
    ]

    @pytest.mark.parametrize("name,text,kind",
                             CASES, ids=[c[0] for c in CASES])
    @given(data=st.data())
    @settings(max_examples=15)
    def test_preserved(self, std_env, name, text, kind, data):
        if kind == "array":
            binds = {"A": data.draw(nat_arrays)}
            if name in ("hist", "hist_fast") and not binds["A"].size:
                return  # hist of an empty array is ⊥ (max of empty rng)
        elif kind == "rel":
            rel = data.draw(st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3)),
                max_size=6).map(frozenset))
            binds = {"R": rel}
        else:
            binds = {"S": data.draw(st.lists(st.integers(0, 9),
                                             max_size=6).map(frozenset))}
        before = run(std_env, aql_core(std_env, text), binds)
        after = run(std_env, aql_core(std_env, text, optimize=True), binds)
        assert before == after

    @given(nat_matrices(max_dim=3), nat_matrices(max_dim=3))
    @settings(max_examples=15)
    def test_matrix_multiply_preserved(self, std_env, m, n):
        expr = aql_core(std_env, "matmul!(M, N)")
        optimized = aql_core(std_env, "matmul!(M, N)", optimize=True)
        binds = {"M": m, "N": n}
        try:
            before = run(std_env, expr, binds)
        except BottomError:
            with pytest.raises(BottomError):
                run(std_env, optimized, binds)
            return
        assert run(std_env, optimized, binds) == before


def _suite_sessions(assume_error_free: bool):
    """``_sessions``'s corpus, then the benchmark suite's other query
    statements, per workload, over small vals of its types (a plan is
    only prepared here, never run)."""
    yield from _sessions(assume_error_free)
    pairs = frozenset((k % 7, k) for k in range(20))
    cube = Array((4, 3, 3), [float(n) for n in range(36)])
    grid = Array((3, 3), list(range(9)))
    workloads = {
        "SCALAR_STATEMENTS": {
            "T": Array.from_list([70.0] * 48),
            "RH": Array.from_list([60.0] * 48),
            "WS": Array((96, 4), [5.0] * 384), "T3": cube,
            "threshold": 96.0, "NYlat": 40.78, "NYlon": 73.97, "R": pairs,
            "S": pairs, "P": pairs, "needle": 3,
            "H": Array.from_list([3, 1, 4, 1, 5]), "C": cube},
        "DENSE_STATEMENTS": {"G": grid, "H": grid, "C": cube},
        "SHARDED_STATEMENTS": {"G": grid},
        "NETCDF_STATEMENTS": {"Y": cube, "T": cube, "threshold": 96.0},
    }
    for name, vals in workloads.items():
        session = Session()
        session.env.optimizer = default_optimizer(assume_error_free)
        session.register_co("heatindex", lambda day: 90.0, TArrow(TArray(
            TProduct((TReal(), TReal(), TReal())), 1), TReal()))
        session.register_co("june_sunset", lambda args: 20, TArrow(
            TProduct((TReal(), TReal(), TNat())), TNat()))
        for val, value in vals.items():
            session.env.set_val(val, value)
        texts = [text for text in _workload_texts(
            name, days=2, n=50, s=1, d0=1, len=24)
            if not text.startswith(("readval", "writeval"))]
        yield name, session, dict(enumerate(texts))


@pytest.mark.parametrize("assume_error_free", [True, False],
                         ids=["default", "strict"])
def test_no_kept_plan_calls_a_lambda(assume_error_free):
    """First-order normal forms: β splits a tuple holding a λ and
    substitutes any λ, so no kept plan of the plan-digest corpus or of
    the benchmark's statements defines a function for one (a join's
    match body is a ``def v<n>``, not a λ)."""
    found = {}
    for prefix, session, texts in _suite_sessions(assume_error_free):
        for key, text in texts.items():
            core = desugar_expression(parse_expression(text.rstrip(";")))
            session.prepare(core)
            kept = session.prepare(core)
            assert kept.cached
            if re.search(r"\bdef f\d+\(", kept.evaluator.source):
                found[f"{prefix}{key}"] = kept.evaluator.source
    assert not found, found
