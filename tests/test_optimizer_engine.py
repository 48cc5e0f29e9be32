"""Tests for the rewrite engine: rules, phases, strategies, registration."""

import pytest

from repro.core import ast
from repro.errors import RegistrationError
from repro.optimizer.engine import (
    Optimizer,
    Phase,
    Rule,
    RuleBase,
    default_optimizer,
)
from repro.system.session import Session

N = ast.NatLit


def fold_add(expr):
    if isinstance(expr, ast.Arith) and expr.op == "+" \
            and isinstance(expr.left, N) and isinstance(expr.right, N):
        return N(expr.left.value + expr.right.value)
    return None


class TestRuleBase:
    def test_add_and_iterate(self):
        base = RuleBase()
        base.add(Rule("fold", fold_add))
        assert base.names() == ["fold"]
        assert len(base) == 1

    def test_duplicate_rejected(self):
        base = RuleBase([Rule("fold", fold_add)])
        with pytest.raises(RegistrationError):
            base.add(Rule("fold", fold_add))

    def test_remove(self):
        base = RuleBase([Rule("fold", fold_add)])
        base.remove("fold")
        assert len(base) == 0

    def test_remove_missing(self):
        with pytest.raises(RegistrationError):
            RuleBase().remove("nope")


class TestPhase:
    def test_exhaustive_reaches_fixpoint(self):
        phase = Phase("p", RuleBase([Rule("fold", fold_add)]))
        e = ast.Arith("+", ast.Arith("+", N(1), N(2)), N(3))
        assert phase.run(e) == N(6)

    def test_once_strategy_single_pass(self):
        # a strategy that tries the rules at the root only, once
        class RootOnce(Phase):
            def walk(self, expr):
                return self._apply_first(expr) or expr

        def bump(expr):
            if isinstance(expr, N) and expr.value < 3:
                return N(expr.value + 1)
            return None

        opt = Optimizer([Phase("z", RuleBase())])
        opt.add_phase(RootOnce("once", RuleBase([Rule("bump", bump)])),
                      before="z")
        assert opt.optimize(N(0)) == N(1)
        assert opt.report()["once"].applications == 1
        assert opt.optimize(ast.Arith("+", N(0), N(0))) \
            == ast.Arith("+", N(0), N(0))
        assert opt.report()["once"].applications == 0
        # the stock walk rewrites to the normal form
        assert Phase("p", RuleBase([Rule("bump", bump)])).run(N(0)) == N(3)

    def test_stats_recorded(self):
        phase = Phase("p", RuleBase([Rule("fold", fold_add)]))
        phase.run(ast.Arith("+", N(1), N(2)))
        assert phase.stats.applications == 1
        assert phase.stats.by_rule == {"fold": 1}

    def test_empty_rulebase_identity(self):
        phase = Phase("p", RuleBase())
        e = ast.Arith("+", N(1), N(2))
        assert phase.run(e) is e

    def test_divergent_rule_is_cut_off(self):
        # a rule that flips between two forms must not hang
        def flip(expr):
            if isinstance(expr, ast.Arith) and expr.op == "+":
                return ast.Arith("+", expr.right, expr.left)
            return None

        phase = Phase("p", RuleBase([Rule("flip", flip)]))
        e = ast.Arith("+", ast.Var("a"), ast.Var("b"))
        out = phase.run(e)  # terminates
        assert isinstance(out, ast.Arith)


class TestOptimizer:
    def test_phases_run_in_order(self):
        log = []

        def spy(name):
            def rule(expr):
                log.append(name)
                return None
            return rule

        opt = Optimizer([
            Phase("one", RuleBase([Rule("a", spy("one"))])),
            Phase("two", RuleBase([Rule("b", spy("two"))])),
        ])
        opt.optimize(N(1))
        assert log == ["one", "two"]

    def test_phase_lookup(self):
        opt = default_optimizer()
        assert opt.phase("normalize").name == "normalize"
        with pytest.raises(RegistrationError):
            opt.phase("nope")

    def test_add_phase_before(self):
        opt = Optimizer([Phase("z", RuleBase())])
        opt.add_phase(Phase("a", RuleBase()), before="z")
        assert [p.name for p in opt.phases] == ["a", "z"]

    def test_register_rule_dynamically(self):
        # Section 4.1: users can inject optimization rules at run time
        opt = default_optimizer()

        def double_to_shift(expr):
            if isinstance(expr, ast.Arith) and expr.op == "*" \
                    and expr.right == N(2):
                return ast.Arith("+", expr.left, expr.left)
            return None

        opt.register_rule("normalize", Rule("strength-reduce",
                                            double_to_shift))
        out = opt.optimize(ast.Arith("*", ast.Var("x"), N(2)))
        assert out == ast.Arith("+", ast.Var("x"), ast.Var("x"))

    def test_report(self):
        opt = default_optimizer()
        opt.optimize(ast.Arith("+", N(1), N(2)))
        report = opt.report()
        assert report["normalize"].applications >= 1


class TestDefaultPipeline:
    def test_has_paper_phases(self):
        opt = default_optimizer()
        names = [p.name for p in opt.phases]
        assert names[:2] == ["normalize", "bounds"]

    def test_default_rules_present(self):
        opt = default_optimizer()
        names = set(opt.phase("normalize").rules.names())
        for expected in ("beta", "beta-p", "eta-p", "delta-p",
                         "proj-tuple", "ext-ext-fusion"):
            assert expected in names

    def test_bounds_phase_rules(self):
        opt = default_optimizer()
        names = set(opt.phase("bounds").rules.names())
        assert "tabulate-bound-elim" in names
        assert "if-branch-elim" in names

    def test_ablation_by_rule_removal(self):
        opt = default_optimizer()
        opt.phase("normalize").rules.remove("beta-p")
        e = ast.Subscript(
            ast.Tabulate(("i",), (N(3),), ast.Var("i")), (N(1),)
        )
        # without β^p the subscript of a tabulation survives normalization
        out = opt.phase("normalize").run(e)
        assert isinstance(out, ast.Subscript)


class TestRulePruning:
    """Rules declare the root classes they can fire on (``Rule.roots``);
    a phase consults only the candidates for each node's class."""

    def test_candidates_preserve_registration_order(self):
        base = RuleBase()
        base.add(Rule("everywhere", lambda e: None, "", roots=None))
        base.add(Rule("if-only", lambda e: None, "", roots=(ast.If,)))
        base.add(Rule("also-everywhere", lambda e: None, ""))
        names = [rule.name for rule in base.candidates(ast.If)]
        assert names == ["everywhere", "if-only", "also-everywhere"]
        names = [rule.name for rule in base.candidates(ast.NatLit)]
        assert names == ["everywhere", "also-everywhere"]

    def test_candidates_cache_invalidated_on_mutation(self):
        base = RuleBase()
        base.add(Rule("a", lambda e: None, "", roots=(ast.If,)))
        assert len(base.candidates(ast.If)) == 1
        base.add(Rule("b", lambda e: None, "", roots=(ast.If,)))
        assert len(base.candidates(ast.If)) == 2
        base.remove("a")
        assert len(base.candidates(ast.If)) == 1

    def test_pruning_does_not_change_optimized_output(self):
        """Stripping every ``roots`` annotation (pruning off) must give
        the same optimized core as the stock pruned pipeline."""
        from dataclasses import replace
        from repro.surface.desugar import Desugarer
        from repro.surface.parser import parse_program

        source = ("summap(fn \\e => e + 1)!"
                  "({ x * 2 | \\x <- gen!7 });")
        (stmt,) = parse_program(source)
        core = Desugarer().desugar(stmt.expr)

        pruned_opt = default_optimizer()
        unpruned_opt = default_optimizer()
        for phase in unpruned_opt.phases:
            stripped = [replace(rule, roots=None)
                        for rule in phase.rules]
            phase.rules._rules = stripped
            phase.rules._candidates.clear()
        assert pruned_opt.optimize(core) == unpruned_opt.optimize(core)

    def test_attempts_stay_truthful(self):
        """``attempts`` counts actual fn calls; ``pruned`` the skipped
        ones; their sum is the unpruned attempt count."""
        from repro.obs.trace import Tracer

        expr = ast.Arith("+", ast.NatLit(1), ast.NatLit(2))
        optimizer = default_optimizer()
        optimizer.optimize(expr, Tracer())
        stats = optimizer.phase("normalize").stats
        assert stats.pruned > 0
        assert stats.attempts > 0
        assert stats.to_dict()["pruned"] == stats.pruned

        # on a node where nothing fires, one visit consults the whole
        # rule base exactly once: attempts + pruned == len(rules).  The
        # phase is run directly: ``optimize`` would prove it cannot fire
        # on a lone variable and skip it
        optimizer = default_optimizer()
        optimizer.phase("normalize").run(ast.Var("x"), instrument=True)
        stats = optimizer.phase("normalize").stats
        assert stats.applications == 0
        assert stats.attempts + stats.pruned == \
            len(optimizer.phase("normalize").rules)

    def test_profile_reports_pruned(self):
        from repro.system.session import Session

        outputs = Session().run(":profile [[ x + 1 | \\x < 10 ]];")
        phases = outputs[-1].explain.to_dict()["phases"]
        assert any(stats["pruned"] > 0 for stats in phases.values())
        assert "pruned" in outputs[-1].explain.render()


#: every phase's rules as ``(name, roots)`` in registration order: the
#: order first-match rewriting and the ablation API (``remove`` by name)
#: depend on, the same in the default and the strict pipeline
RULE_SURFACE = {
    "normalize": [
        ("beta", (ast.App,)),
        ("proj-tuple", (ast.Proj,)),
        ("if-literal-cond", (ast.If,)),
        ("if-bool-branches", (ast.If,)),
        ("if-nested-same-cond", (ast.If,)),
        ("if-same-branches", (ast.If,)),
        ("cmp-fold", (ast.Cmp,)),
        ("ext-empty-source", (ast.Ext,)),
        ("ext-empty-body", (ast.Ext,)),
        ("ext-singleton-source", (ast.Ext,)),
        ("ext-union-source", (ast.Ext,)),
        ("ext-if-source", (ast.Ext,)),
        ("ext-ext-fusion", (ast.Ext,)),
        ("ext-eta", (ast.Ext,)),
        ("union-empty", (ast.Union,)),
        ("horizontal-fusion", (ast.Union,)),
        ("get-singleton", (ast.Get,)),
        ("bag-ext-empty-source", (ast.BagExt,)),
        ("bag-ext-singleton-source", (ast.BagExt,)),
        ("bag-ext-union-source", (ast.BagExt,)),
        ("bag-union-empty", (ast.BagUnion,)),
        ("beta-p", (ast.Subscript,)),
        ("eta-p", (ast.Tabulate,)),
        ("delta-p", (ast.Dim,)),
        ("dim-mkarray", (ast.Dim,)),
        ("subscript-mkarray", (ast.Subscript,)),
        ("subscript-if", (ast.Subscript,)),
        ("dim-if", (ast.Dim,)),
        ("arith-fold", (ast.Arith,)),
        ("arith-identity", (ast.Arith,)),
        ("sum-empty-source", (ast.Sum,)),
        ("sum-singleton-source", (ast.Sum,)),
        ("sum-if-source", (ast.Sum,)),
        ("sum-zero-body", (ast.Sum,)),
        ("gen-zero", (ast.Gen,)),
    ],
    "bounds": [
        ("tabulate-bound-elim", (ast.Tabulate,)),
        ("gen-bound-elim", (ast.Ext, ast.Sum)),
        ("if-branch-elim", (ast.If,)),
        ("monus-bound-elim", (ast.Tabulate,)),
    ],
    "motion": [
        ("hoist-loop-invariant", (ast.Tabulate, ast.Ext, ast.Sum,
                                  ast.BagExt)),
        ("let-float", (ast.Ext, ast.Sum, ast.BagExt)),
    ],
}


@pytest.mark.parametrize("assume_error_free", [True, False])
def test_rule_surface(assume_error_free):
    optimizer = default_optimizer(assume_error_free)
    assert {phase.name: [(rule.name, rule.roots) for rule in phase.rules]
            for phase in optimizer.phases} == RULE_SURFACE
    assert [phase.name for phase in optimizer.phases] == list(RULE_SURFACE)


class TestPhaseSkipping:
    """A phase none of whose rule roots occur is provably the identity,
    and the optimizer skips it."""

    ARITH = ast.Arith("+", N(1), ast.Arith("*", N(2), N(3)))

    def test_absent_roots_skips_loop_phases(self):
        optimizer = default_optimizer()
        assert optimizer.optimize(self.ARITH) == N(7)
        stats = optimizer.report()
        assert stats["motion"].skipped == "absent-roots"
        assert stats["bounds"].skipped == "absent-roots"
        assert stats["normalize"].skipped == ""
        # profiles still show every phase: spans are emitted regardless
        report = Session().explain("1 + 2 * 3;")
        for name in ("normalize", "bounds", "motion"):
            assert report.span(f"phase:{name}") is not None
        assert report.phase_stats["motion"].skipped == "absent-roots"

    def test_skipping_preserves_values(self):
        query = "summap(fn \\x => x + 1)!(gen!30);"
        assert Session().query_value(query) \
            == Session(optimize=False).query_value(query)

    def test_skipped_stats_serialize(self):
        optimizer = default_optimizer()
        optimizer.optimize(self.ARITH)
        payload = optimizer.report()["motion"].to_dict()
        assert payload["skipped"] == "absent-roots"
        assert payload["passes"] == 0
