"""F2 — Figure 2 conformance: the comprehension and pattern translations.

Each row of the two Figure 2 tables is checked by desugaring the surface
form and comparing (up to α-equivalence, since fresh binders are minted)
against the hand-built calculus expression the table specifies.
"""

from repro.core import ast as C
from repro.core import evaluate
from repro.surface.desugar import desugar_expression
from repro.surface.parser import parse_expression


def ds(source):
    return desugar_expression(parse_expression(source))


def run(source, **binds):
    return evaluate(ds(source), binds)


class TestComprehensionTable:
    """First table: { e1 | GF } rows."""

    def test_generator_row(self):
        # {e1 | \x <- e2, GF}  =  ⋃{ {e1 | GF} | x ∈ e2 }
        got = ds("{x + 1 | \\x <- S}")
        expected = C.Ext(
            "x", C.Singleton(C.Arith("+", C.Var("x"), C.NatLit(1))),
            C.Var("S"),
        )
        assert C.alpha_equal(got, expected)

    def test_filter_row(self):
        # {e1 | e2, GF}  =  if e2 then {e1 | GF} else {}
        got = ds("{1 | b}")
        expected = C.If(C.Var("b"), C.Singleton(C.NatLit(1)), C.EmptySet())
        assert C.alpha_equal(got, expected)

    def test_empty_qualifier_row(self):
        # {e | }  =  {e}  — no qualifier syntax means a set literal
        got = ds("{7}")
        assert C.alpha_equal(got, C.Singleton(C.NatLit(7)))

    def test_qualifiers_process_left_to_right(self):
        got = ds("{x | \\x <- S, x > 1, \\y <- T}")
        # outermost is the S generator; the filter guards the T loop
        assert isinstance(got, C.Ext)
        assert got.source == C.Var("S")
        assert isinstance(got.body, C.If)
        assert isinstance(got.body.then, C.Ext)


class TestLambdaPatternTable:
    """Second table: λ-pattern rows."""

    def test_wildcard_lambda(self):
        # λ_.e  =  λ\z.e
        got = ds("fn _ => 1")
        assert isinstance(got, C.Lam)
        assert C.alpha_equal(got, C.Lam("z", C.NatLit(1)))

    def test_tuple_lambda_projections(self):
        # λ(\x,\y).x  =  λ\z. π1 z
        got = ds("fn (\\x, \\y) => x")
        expected = C.Lam("z", C.Proj(1, 2, C.Var("z")))
        assert C.alpha_equal(got, expected)

    def test_nested_tuple_lambda(self):
        got = ds("fn ((\\a, \\b), \\c) => b")
        expected = C.Lam("z", C.Proj(2, 2, C.Proj(1, 2, C.Var("z"))))
        assert C.alpha_equal(got, expected)

    def test_pattern_generator_with_constant(self):
        # ⋃{e1 | P <- e2} with constant: equality filter on fresh binder
        got = ds("{x | (0, \\x) <- R}")
        assert isinstance(got, C.Ext)
        body = got.body
        assert isinstance(body, C.If)
        assert isinstance(body.cond, C.Cmp)
        assert body.cond.op == "="

    def test_pattern_generator_with_bound_variable(self):
        # (y, \z) <- S matches only tuples whose first component equals y
        got = run("{(x, z) | (\\x, \\y) <- R, (y, \\z) <- S}",
                  R=frozenset({(1, "a"), (2, "b")}),
                  S=frozenset({("a", 10), ("b", 20), ("c", 30)}))
        assert got == frozenset({(1, 10), (2, 20)})

    def test_binding_shorthand_row(self):
        # P :== e  is  P <- {e}
        got = ds("{y | \\y :== 1 + 2}")
        expected = C.Ext("y", C.Singleton(C.Var("y")),
                         C.Singleton(C.Arith("+", C.NatLit(1), C.NatLit(2))))
        assert C.alpha_equal(got, expected)


class TestBlocks:
    def test_let_is_beta_redex(self):
        # let val P' = e1 in e2 end  =  (λP'.e2)(e1)
        got = ds("let val \\x = 5 in x + 1 end")
        expected = C.App(
            C.Lam("x", C.Arith("+", C.Var("x"), C.NatLit(1))), C.NatLit(5)
        )
        assert C.alpha_equal(got, expected)

    def test_multi_val_nests(self):
        got = ds("let val \\x = 1 val \\y = x in y end")
        assert isinstance(got, C.App)
        assert isinstance(got.fn.body, C.App)

    def test_let_tuple_pattern(self):
        assert run("let val (\\m, \\n) = (2, 3) in m * n end") == 6

    def test_let_scoping_sequential(self):
        assert run("let val \\x = 1 val \\x = x + 1 in x end") == 2


class TestArrayGenerators:
    def test_array_generator_definition(self):
        # [\i : \x] <- A  is  \i <- dom(A), \x <- {A[i]}
        from repro.objects.array import Array
        got = run("{(i, x) | [\\i : \\x] <- A}",
                  A=Array.from_list(["p", "q"]))
        assert got == frozenset({(0, "p"), (1, "q")})

    def test_paper_position_picker(self):
        # {i | [\i : \x] <- A, x > 90} picks positions exceeding 90
        from repro.objects.array import Array
        got = run("{i | [\\i : \\x] <- A, x > 90}",
                  A=Array.from_list([10, 95, 20, 99]))
        assert got == frozenset({1, 3})

    def test_three_dim_index_pattern(self):
        from repro.objects.array import Array
        got = run("{(h, t) | [(\\h, _, _) : \\t] <- T}",
                  T=Array((2, 1, 1), [5.0, 6.0]))
        assert got == frozenset({(0, 5.0), (1, 6.0)})

    def test_wildcard_value_pattern(self):
        from repro.objects.array import Array
        got = run("{i | [\\i : _] <- A}", A=Array.from_list([7, 7, 7]))
        assert got == frozenset({0, 1, 2})

    def test_source_evaluated_once(self):
        # the generator binds A to a fresh variable before looping
        got = ds("{x | [\\i : \\x] <- A}")
        assert isinstance(got, C.App)  # (λ a. ...)(A)


class TestSpecialForms:
    def test_gen_applied(self):
        assert isinstance(ds("gen!5"), C.Gen)

    def test_get_applied(self):
        assert isinstance(ds("get!{1}"), C.Get)

    def test_len_and_dim(self):
        assert ds("len!A") == C.Dim(C.Var("A"), 1)
        assert ds("dim_3!A") == C.Dim(C.Var("A"), 3)

    def test_index_forms(self):
        assert ds("index!S") == C.IndexSet(C.Var("S"), 1)
        assert ds("index_2!S") == C.IndexSet(C.Var("S"), 2)

    def test_summap_becomes_sum(self):
        got = ds("summap(fn \\x => x * 2)!(gen!4)")
        assert isinstance(got, C.Sum)
        assert evaluate(got) == 12

    def test_bare_gen_eta_expands(self):
        got = ds("gen")
        assert isinstance(got, C.Lam)
        assert isinstance(got.body, C.Gen)

    def test_eta_expanded_gen_is_applicable(self):
        got = run("maparr!(gen, [[1, 2]])",
                  maparr=None) if False else None
        # applied through the evaluator instead:
        expr = C.App(ds("gen"), C.NatLit(2))
        assert evaluate(expr) == frozenset({0, 1})


class TestOperatorDesugaring:
    def test_and_or_not_are_conditionals(self):
        assert isinstance(ds("a and b"), C.If)
        assert isinstance(ds("a or b"), C.If)
        assert isinstance(ds("not a"), C.If)

    def test_and_short_circuits(self):
        # false and ⊥  must not error
        assert run("false and (1 / 0 = 1)") is False

    def test_or_short_circuits(self):
        assert run("true or (1 / 0 = 1)") is True

    def test_membership_is_sigma(self):
        got = ds("1 in S")
        assert any(isinstance(t, C.Sum) for t in C.subterms(got))

    def test_set_literal_is_union_of_singletons(self):
        got = ds("{1, 2}")
        assert isinstance(got, C.Union)

    def test_array_literal_is_mkarray(self):
        got = ds("[[1, 2, 3]]")
        assert got == C.MkArray(
            (C.NatLit(3),), (C.NatLit(1), C.NatLit(2), C.NatLit(3))
        )
