"""Macros are compiled once: each is typed by its scheme and spliced as
its cached normal form, and the rewrite engine skips subterms it has
proven irreducible — without changing a single plan.

The corpus is every statement ``tests/parse_digests.json`` pins (the
stdlib, the benchmark and the example statements), the paper's Q1 and
Q2, and one small typed application of every stdlib macro.  Each entry
is compiled twice: by the environment (normal bodies, scheme
instantiation, memoised engine) and by the raw-body pipeline (bodies as
written, every body re-inferred, the engine without its memo).  Both
must give the same fingerprint and the same inferred type.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.core import ast
from repro.core.ast import fingerprint
from repro.core.typecheck import TypeChecker
from repro.env.environment import TopEnv
from repro.errors import TypeCheckError
from repro.objects.array import Array
from repro.optimizer.engine import Phase, Rule, RuleBase, default_optimizer
from repro.optimizer.rules_bounds import BoundsPhase
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression, parse_program
from repro.system.session import Session
from repro.types.types import TArrow, TNat, TypeScheme, fresh_tvar

from conftest import PARSE_DIGESTS
from expr_strategies import typed_exprs
from reference_bounds import reference_bounds_rules

#: one small typed use of every stdlib macro (``Av``, ``Rv``: 1-d nat
#: and real arrays, ``Mv``: a 3×3 nat matrix, bound as vals)
APPLICATIONS = {
    "append": "append!(Av, [[7, 8]])",
    "argmax": "argmax!Av",
    "argmin": "argmin!Av",
    "contains": "contains!(Av, 2)",
    "count": "count!{1, 2, 3}",
    "cross": "cross!({1, 2}, {3})",
    "diag": "diag!Mv",
    "dom": "dom!Av",
    "dot": "dot!(Av, [[1, 2, 3, 4]])",
    "drop": "drop!(Av, 1)",
    "enumerate": "enumerate!Av",
    "evenpos": "evenpos!Av",
    "exists_in": r"exists_in!(fn \x => x > 2, {1, 2, 3})",
    "filterset": r"filterset!(fn \x => x > 1, {1, 2, 3})",
    "flatten_rect": r"flatten_rect!([[ [[i, i + 1]] | \i < 3 ]])",
    "forall_in": r"forall_in!(fn \x => x < 5, {1, 2})",
    "graph": "graph!Av",
    "graph_2": "graph_2!Mv",
    "hist": "hist!Av",
    "hist2": "hist2!Av",
    "identity_mat": "identity_mat!3",
    "insert": "insert!(Av, 1, 9)",
    "is_symmetric": "is_symmetric!Mv",
    "maparr": r"maparr!(fn \x => x * 2, Av)",
    "matadd": "matadd!(Mv, Mv)",
    "matmul": "matmul!(Mv, transpose!Mv)",
    "matvec": "matvec!(Mv, [[1, 2, 3]])",
    "max2": "max2!(3, 4)",
    "min2": "min2!(3, 4)",
    "nest": "nest!{(1, 2), (1, 3), (2, 4)}",
    "oddpos": "oddpos!Av",
    "outer": "outer!(Rv, Rv)",
    "pi1set": "pi1set!{(1, 2)}",
    "pi2set": "pi2set!{(1, 2)}",
    "positions": "positions!(Av, 2)",
    "prefix_sums": "prefix_sums!Rv",
    "proj_col": "proj_col!(Mv, 1)",
    "proj_row": "proj_row!(Mv, 0)",
    "remove": "remove!(Av, 0)",
    "reshape_2": "reshape_2!(Av, 2, 2)",
    "resize": "resize!(Rv, 2)",
    "reverse": "reverse!Av",
    "rng": "rng!Av",
    "rng_2": "rng_2!Mv",
    "row_major": "row_major!Mv",
    "scale": "scale!(2, Mv)",
    "sorted_rng": "sorted_rng!Av",
    "subseq": "subseq!(Av, 1, 2)",
    "take": "take!(Av, 2)",
    "total": "total!{1.5, 2.5}",
    "trace": "trace!Mv",
    "transpose": "transpose!Mv",
    "update": "update!(Av, 0, 5)",
    "windows": "windows!(Av, 2)",
    "zip": "zip!(Av, Rv)",
    "zip_3": "zip_3!(Av, Av, Rv)",
}

#: the paper's two queries as Sections 1 and 4.2 write them
PAPER_QUERIES = [
    r"""{d | \d <- gen!30,
             \WS' == evenpos!(proj_col!(WS, 0)),
             \TRW == zip_3!(T, RH, WS'),
             \A == subseq!(TRW, d*24, d*24+23),
             heatindex!(A) > threshold};""",
    r"""{d | [(\h, _, _) : \t] <- T, \d == h/24 + 1,
             h % 24 > june_sunset!(NYlat, NYlon, d), t > 85.0};""",
]


def _environment(strict: bool) -> TopEnv:
    env = TopEnv.standard()
    if strict:
        env.optimizer = default_optimizer(assume_error_free=False)
    env.set_val("Av", Array.from_list([3, 1, 2, 2]))
    env.set_val("Rv", Array.from_list([1.5, 2.0, 0.5]))
    env.set_val("Mv", Array((3, 3), [i * 3 + j for i in range(3)
                                     for j in range(3)]))
    return env


def _corpus():
    texts = list(PARSE_DIGESTS) + PAPER_QUERIES + [
        text + ";" for text in APPLICATIONS.values()]
    cores = []
    for text in texts:
        for statement in parse_program(text):
            for field in ("expr", "args"):
                surface = getattr(statement, field, None)
                if surface is not None:
                    cores.append(desugar_expression(surface))
    return cores


CORPUS = _corpus()


def _canonical(type_text: str) -> str:
    """The type text with its type variables numbered by first use."""
    names: dict = {}
    return re.sub(r"[#']t\d+",
                  lambda m: names.setdefault(m.group(), f"{m.group()[0]}"
                                                        f"v{len(names)}"),
                  type_text)


def _free_env(expr: ast.Expr):
    """A fresh monomorphic type variable for every name left free."""
    return {name: TypeScheme.mono(fresh_tvar())
            for name in sorted(ast.free_vars(expr))}


def _typed(checker: TypeChecker, expr: ast.Expr) -> str:
    try:
        return _canonical(str(checker.check(expr, _free_env(expr))))
    except TypeCheckError:
        return "TypeCheckError"


#: the whole-tree engine's caps: bottom-up passes, and consecutive
#: firings at one node within a pass
REFERENCE_PASSES = REFERENCE_LOCAL = 64


def reference_run(phase: Phase, expr: ast.Expr):
    """The engine without its memo: whole-tree bottom-up passes to a
    fixpoint.  Returns the result and the per-rule firing counts.  For
    the bounds phase the rules are the four as rewrite rules
    (``reference_bounds.py``) followed by its normalization rules."""
    by_rule: dict = {}
    rules = list(phase.rules)
    if isinstance(phase, BoundsPhase):
        rules = reference_bounds_rules() + list(phase.normalization)

    def apply(node):
        for rule in rules:
            if rule.roots is not None and type(node) not in rule.roots:
                continue
            result = rule.apply(node)
            if result is not None and result is not node:
                by_rule[rule.name] = by_rule.get(rule.name, 0) + 1
                return result
        return None

    def walk(node):
        visited = [walk(child) for child, _ in node.parts()]
        changed = any(flag for _, flag in visited)
        if changed:
            node = node.with_parts([child for child, _ in visited])
        for _ in range(REFERENCE_LOCAL):
            rewritten = apply(node)
            if rewritten is None:
                break
            node, changed = rewritten, True
        return node, changed

    for _ in range(REFERENCE_PASSES):
        expr, changed = walk(expr)
        if not changed:
            break
    return expr, by_rule


def reference_pipeline(env: TopEnv, core: ast.Expr):
    """Raw bodies spliced, every body inferred, the memo-free engine."""
    resolved = env.resolve(core, optimize=False)
    inferred = _typed(TypeChecker(env.typechecker().prim_signatures),
                      resolved)
    for phase in env.optimizer.phases:
        resolved, _ = reference_run(phase, resolved)
    return fingerprint(resolved), inferred


def compiled_pipeline(env: TopEnv, core: ast.Expr):
    resolved = env.resolve(core)
    inferred = _typed(env.typechecker(), resolved)
    return fingerprint(env.optimizer.optimize(resolved)), inferred


class TestSamePlans:
    def test_every_stdlib_macro_is_applied(self):
        assert set(APPLICATIONS) == set(TopEnv.standard().macro_names())

    @pytest.mark.parametrize("strict", [False, True],
                             ids=["default", "strict"])
    def test_corpus_matches_the_raw_body_pipeline(self, strict):
        env = _environment(strict)
        rejected = 0
        for core in CORPUS:
            compiled = compiled_pipeline(env, core)
            assert compiled == reference_pipeline(env, core), core
            rejected += compiled[1] == "TypeCheckError"
        # only the doc example `[[ T3[h, 0, 0] | \h < dim_3!T3 ]]`,
        # whose bound is a triple, is ill-typed, in both pipelines
        assert rejected == 1

    def test_macro_uses_are_not_re_inferred(self, monkeypatch):
        env = _environment(False)
        resolved = env.resolve(desugar_expression(
            parse_expression("transpose!Mv")))
        seen = []
        infer = TypeChecker._infer

        def spy(self, expr, tenv, subst):
            seen.append(type(expr))
            return infer(self, expr, tenv, subst)

        monkeypatch.setattr(TypeChecker, "_infer", spy)
        assert str(env.typechecker().check(resolved)) == "[[nat]]_2"
        # the application, the spliced body (instantiated) and the val
        assert seen == [ast.App, ast.Lam, ast.Var]


class TestRawBodiesWithoutOptimisation:
    def test_explain_core_shows_the_raw_body(self):
        sessions = [Session(optimize=False), Session()]
        cores = []
        for session in sessions:
            session.env.set_val("Mv", Array((2, 2), [1, 2, 3, 4]))
            cores.append(session.explain("transpose!Mv;").core)
        env = sessions[0].env
        raw = env.resolve(ast.Var("transpose"), optimize=False)
        assert cores[0].fn is raw
        assert raw is not env.resolve(ast.Var("transpose"))
        assert isinstance(cores[1], ast.Tabulate)

    def test_raw_and_optimised_values_agree(self):
        for text in APPLICATIONS.values():
            values = []
            for optimize in (False, True):
                session = Session(optimize=optimize)
                env = _environment(False)
                for name in ("Av", "Rv", "Mv"):
                    session.env.set_val(name, env.get_val(name))
                values.append(session.query_value(text + ";"))
            assert values[0] == values[1], text


#: a transpose! plan that β^p reduces to one guarded cell read
TRANSPOSED_CELL = "(transpose!Mv)[1, 0];"


def _transpose_core(session: Session):
    return fingerprint(session.explain(TRANSPOSED_CELL).core)


def _wrap_rule() -> Rule:
    """Wrap each tabulation body once in the identity primitive ``ident``
    — a visible, terminating change to ``transpose``'s normal form."""
    def wrap(expr):
        if isinstance(expr, ast.Tabulate) and not (
                isinstance(expr.body, ast.App)
                and expr.body.fn == ast.Prim("ident")):
            return ast.Tabulate(expr.vars, expr.bounds,
                                ast.App(ast.Prim("ident"), expr.body))
        return None
    return Rule("wrap-body", wrap, roots=(ast.Tabulate,))


def _session() -> Session:
    session = Session()
    session.env.set_val("Mv", Array((2, 3), [1, 2, 3, 4, 5, 6]))
    session.register_co("ident", lambda value: value,
                        TArrow(TNat(), TNat()))
    return session


class TestRuleChangesReachMacros:
    def test_register_rule(self):
        session = _session()
        before = _transpose_core(session)
        session.env.register_rule("normalize", _wrap_rule())
        fresh = _session()
        fresh.env.register_rule("normalize", _wrap_rule())
        after = _transpose_core(session)
        assert after == _transpose_core(fresh) != before
        assert session.query_value(TRANSPOSED_CELL) \
            == fresh.query_value(TRANSPOSED_CELL) == 2

    def test_register_rewrite_rule_into_bounds(self):
        """A rewrite rule beside the fact sources runs as one."""
        session, text = _session(), "transpose!Mv;"
        want = session.query_value(text)
        session.env.register_rule("bounds", _wrap_rule())
        report = session.explain(text)
        assert ast.Prim("ident") in ast.subterms(report.core)
        assert report.phase_stats["bounds"].by_rule == {"wrap-body": 1}
        assert session.query_value(text) == want

    def test_direct_rule_removal(self):
        session = _session()
        before = _transpose_core(session)
        session.env.optimizer.phase("normalize").rules.remove("beta-p")
        fresh = _session()
        fresh.env.optimizer.phase("normalize").rules.remove("beta-p")
        after = _transpose_core(session)
        assert after == _transpose_core(fresh) != before
        # one rule base: the bounds walk folds without β^p too
        optimizer = session.env.optimizer
        assert optimizer.phase("bounds").normalization \
            is optimizer.phase("normalize").rules

    def test_direct_removal_stales_a_cached_plan(self):
        """The ablation API never passes through the environment, so the
        plan cache must notice the rule-base versions itself."""
        text = r"(fn \x => x * 2)!(21);"
        session = Session()
        session.run(text)
        fresh = Session()
        for each in (session, fresh):
            each.env.optimizer.phase("normalize").rules.remove("beta")
        core = session.explain(text).core
        assert isinstance(core, ast.App)
        assert fingerprint(core) == fingerprint(fresh.explain(text).core)
        assert session.plan_cache.stats.invalidations == 1


class TestTypeErrors:
    @pytest.mark.parametrize("text", ["matmul!(1, 2);",
                                      "transpose!({1});"])
    def test_ill_typed_macro_uses_are_rejected(self, text):
        with pytest.raises(TypeCheckError):
            Session().run(text)


def _assert_fires_within(phase: Phase, by_rule: dict) -> None:
    """No rule fired more often in ``phase``'s last run than in the
    reference's ``by_rule``."""
    for name, count in phase.stats.by_rule.items():
        assert count <= by_rule.get(name, 0), (phase.name, name)


_T, _N, _V = ast.BoolLit(True), ast.NatLit, ast.Var


def _subscript_empty(index: ast.Expr) -> ast.Expr:
    r"""``[[6 | \i < 0]][index]``: β^p rewrites it to a guarded body."""
    return ast.Subscript(
        ast.Tabulate(("i",), (_N(0),), _N(6)), (index,))


#: random cores on which an eager innermost walk (one that normalises a
#: rewrite's result before its parent sees it) fired a rule more often
#: than the reference, or ended in another normal form
_EAGER_WALK_DIVERGES = [
    # ext-empty-body drops the source the inner ⋃ was distributed into
    ast.Ext("x", ast.EmptySet(), ast.Ext(
        "y", _V("sn"), ast.If(_V("b0"), _V("sn"), ast.EmptySet()))),
    # if-literal-cond drops the branch β^p just rewrote
    ast.If(_T, _N(6), _subscript_empty(ast.If(_T, _N(6), _V("n1")))),
    # horizontal fusion at the root of ext-union-source's result
    ast.Union(
        ast.Ext("x", ast.Union(ast.EmptySet(), ast.EmptySet()),
                ast.EmptySet()),
        ast.Ext("y", ast.Singleton(_V("y")),
                ast.Union(_V("sn"), _V("sn")))),
    ast.Ext("x", ast.Union(ast.Singleton(_V("x")), ast.EmptySet()),
            ast.Ext("y", ast.Union(ast.EmptySet(), _V("sn")),
                    ast.Union(_V("sn"), _V("sn")))),
    ast.Ext("x", ast.Singleton(_V("r0")),
            ast.Ext("y", ast.If(_V("b0"), ast.EmptySet(), _V("sn")),
                    ast.Union(_V("sn"), _V("sn")))),
]


#: random cores on which a walk that decides every fact in one top-down
#: pass and then folds fires other rules than the reference (each rule
#: firing at its own binder, inner binders first, whole-tree passes), or
#: ends elsewhere; the bounds phase decides through the rules as rewrites
_FACT_WALK_DIVERGES = [
    # an outer fact decided first: ``b0`` is false in the else branch,
    # but the reference's inner ``if`` learns ``b0`` in its then branch
    # first and folds as ``if b0 then true else true``
    ast.If(_V("b0"), _V("sr"),
           ast.If(ast.If(_V("b0"), _V("b0"), _T), _V("sr"), ast.EmptySet())),
    # a residue folded early: the reference's outer ``if`` decides the
    # inner one's ``b0`` before that one's decided else branch folds
    ast.If(_V("b0"), ast.If(ast.If(_V("b0"), _V("b0"), ast.BoolLit(False)),
                            ast.If(_V("b0"), ast.EmptySet(), _V("sr")),
                            ast.EmptySet()), ast.EmptySet()),
    # a fold that makes a fact: ``if b0 then b0 else false`` folds to
    # ``b0``, which the reference's next pass finds in the then branch
    ast.If(ast.If(_V("b0"), _V("b0"), ast.BoolLit(False)), _V("b0"),
           ast.BoolLit(False)),
]


class TestEngineMemo:
    """The one-walk engine against the whole-tree reference: the same
    normal form, and no rule firing more often."""

    def test_standalone_phase_runs_fire_as_without_the_memo(self):
        """On the corpus no rule fires more often than in the reference
        (innermost order rewrites an argument once, before β copies
        it).  ``bounds`` gets ``normalize``'s output, the only input
        the pipeline gives it: it folds only around what it decides."""
        env = _environment(False)
        for optimizer in (default_optimizer(), default_optimizer(False)):
            for core in CORPUS:
                resolved = env.resolve(core, optimize=False)
                normalized = optimizer.phase("normalize").run(resolved)
                for phase in optimizer.phases:
                    given = normalized if isinstance(phase, BoundsPhase) \
                        else resolved
                    want, by_rule = reference_run(phase, given)
                    got = phase.run(given)
                    _assert_fires_within(phase, by_rule)
                    assert fingerprint(got) == fingerprint(want)

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(pair=typed_exprs())
    @example(pair=(_EAGER_WALK_DIVERGES[0], None))
    @example(pair=(_EAGER_WALK_DIVERGES[1], None))
    @example(pair=(_EAGER_WALK_DIVERGES[2], None))
    @example(pair=(_EAGER_WALK_DIVERGES[3], None))
    @example(pair=(_EAGER_WALK_DIVERGES[4], None))
    @example(pair=(_FACT_WALK_DIVERGES[0], None))
    @example(pair=(_FACT_WALK_DIVERGES[1], None))
    @example(pair=(_FACT_WALK_DIVERGES[2], None))
    def test_optimize_fires_as_without_the_memo(self, pair):
        """Over random well-typed cores, every phase of the pipeline
        ends where the memo-free engine ends, and no rule fires more
        often than there."""
        expr, _ = pair
        for optimizer in (default_optimizer(), default_optimizer(False)):
            got = optimizer.optimize(expr)
            want = expr
            for phase in optimizer.phases:
                want, by_rule = reference_run(phase, want)
                _assert_fires_within(phase, by_rule)
            assert fingerprint(got) == fingerprint(want)

    @pytest.mark.xfail(strict=True, reason=(
        "normalize's firing count: the walk fires if-literal-cond 3 times "
        "and cmp-fold once where the reference fires them 2 and 0 times "
        "(the normal forms agree)"))
    def test_a_rule_two_levels_up_drops_a_rewritten_subterm(self):
        r"""``if true then 6 else [[6 | \i < 0]][if true then 6 else n1]
        + n0``: β^p rewrites the subscript to ``if 6 < 0 then 6 else ⊥``;
        ``+`` does not fire on it, so the walk normalises it there
        (``cmp-fold``, then ``if-literal-cond``) before the root's
        ``if-literal-cond`` drops the whole branch.  The reference's
        first pass drops it first.  Both end in ``6``; what fails is
        :func:`_assert_fires_within` for ``normalize``.  ``bounds`` gets
        ``normalize``'s output, as in the pipeline and the corpus test."""
        expr = ast.If(_T, _N(6), ast.Arith(
            "+", _subscript_empty(ast.If(_T, _N(6), _V("n1"))), _V("n0")))
        for optimizer in (default_optimizer(), default_optimizer(False)):
            normalized = optimizer.phase("normalize").run(expr)
            for phase in optimizer.phases:
                given = normalized if isinstance(phase, BoundsPhase) \
                    else expr
                want, by_rule = reference_run(phase, given)
                assert fingerprint(phase.run(given)) == fingerprint(want)
                _assert_fires_within(phase, by_rule)

    def test_size_cap_stops_a_node_doubling_rule(self):
        def double(expr):
            if isinstance(expr, ast.Var):
                return ast.Union(expr, expr)
            return None

        phase = Phase("grow", RuleBase([Rule("double", double)]))
        phase.MAX_NODES = 1_000
        grown = phase.run(ast.Var("a"))
        assert phase.MAX_NODES < ast.node_count(grown) \
            <= 4 * phase.MAX_NODES

    def test_firing_cap_stops_a_divergent_rule(self):
        def flip(expr):
            if isinstance(expr, ast.Var):
                return ast.Var("b" if expr.name == "a" else "a")
            return None

        phase = Phase("flip", RuleBase([Rule("flip", flip)]))
        phase.MAX_NODES = 1_000
        out = phase.run(ast.TupleE((ast.Var("a"), ast.Var("a"))))
        assert isinstance(out, ast.TupleE)
        assert phase.stats.applications == phase.MAX_NODES + 1


class TestSubstitutionSharing:
    def test_untouched_subterms_keep_their_identity(self):
        untouched = ast.Tabulate(("i",), (ast.NatLit(3),), ast.Var("i"))
        expr = ast.TupleE((untouched, ast.Var("x")))
        out = ast.substitute(expr, {"x": ast.NatLit(1)})
        assert out.items[0] is untouched
        assert ast.substitute(untouched, {"x": ast.NatLit(1)}) is untouched
        assert ast.substitute(expr, {"y": ast.NatLit(1)}) is expr
