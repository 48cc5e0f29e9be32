"""Tests for the core-expression pretty printer."""

from repro.core import ast
from repro.core.ast import fingerprint
from repro.core.printer import CONST_CELL_LIMIT, pprint
from repro.objects import exchange
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.system.session import Session

from conftest import aql_core

N = ast.NatLit
V = ast.Var


class TestScalars:
    def test_literals(self):
        assert pprint(N(3)) == "3"
        assert pprint(ast.BoolLit(True)) == "true"
        assert pprint(ast.RealLit(2.5)) == "2.5"
        assert pprint(ast.StrLit("hi")) == '"hi"'
        assert pprint(ast.Bottom()) == "bottom"

    def test_vars_and_prims(self):
        assert pprint(V("x")) == "x"
        assert pprint(ast.Prim("min")) == "min"


class TestCompound:
    def test_lambda_and_app(self):
        e = ast.App(ast.Lam("x", V("x")), N(1))
        assert pprint(e) == "(fn \\x => x)!(1)"

    def test_arith_parenthesization(self):
        e = ast.Arith("*", ast.Arith("+", V("a"), V("b")), V("c"))
        assert pprint(e) == "(a + b) * c"

    def test_tabulate(self):
        e = ast.Tabulate(("i",), (V("n"),), V("i"))
        assert pprint(e) == "[[i | \\i < n]]"

    def test_subscript(self):
        e = ast.Subscript(V("A"), (N(0), N(1)))
        assert pprint(e) == "A[0, 1]"

    def test_subscript_of_complex_base_parenthesized(self):
        e = ast.Subscript(ast.Tabulate(("i",), (N(2),), V("i")), (N(0),))
        assert pprint(e).startswith("([[")

    def test_comprehension_like_forms(self):
        e = ast.Ext("x", ast.Singleton(V("x")), V("S"))
        assert pprint(e) == "bigunion{{x} | \\x <- S}"

    def test_sum(self):
        e = ast.Sum("x", V("x"), ast.Gen(N(3)))
        assert pprint(e) == "sum{x | \\x <- gen!(3)}"

    def test_if_and_cmp(self):
        e = ast.If(ast.Cmp("<", V("i"), V("n")), N(1), N(0))
        assert pprint(e) == "if i < n then 1 else 0"

    def test_mkarray(self):
        e = ast.MkArray((N(2),), (N(7), N(8)))
        assert pprint(e) == "[[2; 7, 8]]"

    def test_const_uses_exchange_format(self):
        assert pprint(ast.Const(frozenset({2, 1}))) == "{1, 2}"

    def test_dim_index_get(self):
        assert pprint(ast.Dim(V("A"), 2)) == "dim_2(A)"
        assert pprint(ast.IndexSet(V("S"), 1)) == "index_1(S)"
        assert pprint(ast.Get(V("s"))) == "get(s)"

    def test_bags_and_ranked(self):
        assert pprint(ast.EmptyBag()) == "{||}"
        assert "bigbunion" in pprint(
            ast.BagExt("x", ast.SingletonBag(V("x")), V("B")))
        assert "bigunion_r" in pprint(
            ast.ExtRank("x", "i", ast.Singleton(V("x")), V("S")))


class TestLargeConstants:
    """ROADMAP 0b: a resolved ``val`` is spliced into the core as a
    ``Const``; printing the plan must not print the data."""

    def test_collections_past_the_limit_are_summarised(self):
        cells = CONST_CELL_LIMIT + 1
        assert pprint(ast.Const(Array((cells,), range(cells)))) \
            == f"<array {cells} of nat>"
        assert pprint(ast.Const(Array((3, cells), [0.5] * 3 * cells))) \
            == f"<array 3×{cells} of real>"
        assert pprint(ast.Const(frozenset(range(cells)))) \
            == f"<set of {cells} nat>"
        assert pprint(ast.Const(Bag(["a"] * cells))) \
            == f"<bag of {cells} string>"
        at_limit = Array((CONST_CELL_LIMIT,), range(CONST_CELL_LIMIT))
        assert pprint(ast.Const(at_limit)) == exchange.dumps(at_limit)

    @staticmethod
    def _record_dumps(monkeypatch):
        """Sizes (``None`` for scalars) of the values ``dumps`` is
        called on from here on."""
        dumped = []
        dumps = exchange.dumps

        def counting(value):
            dumped.append(getattr(value, "size", None))
            return dumps(value)

        monkeypatch.setattr(exchange, "dumps", counting)
        return dumped

    def test_explain_never_dumps_a_large_constant(self, monkeypatch):
        dumped = self._record_dumps(monkeypatch)
        session = Session()
        session.run(r"val \G = [[ i * j | \i < 300, \j < 300 ]];")
        # a query names the val; a macro captures its value as a constant
        session.run(r"macro \tG = transpose!G;")
        named = session.explain("transpose!G;")
        captured = session.explain("tG;")
        for report in (named, captured):
            assert len(report.to_dict()["core"]) < 2048
        assert "G[" in named.core_text and "<array" not in named.core_text
        assert "<array 300×300 of nat>" in captured.core_text
        assert all(size is None or size <= CONST_CELL_LIMIT
                   for size in dumped)

    def test_fingerprint_does_not_go_through_the_printer(self, monkeypatch):
        # two large constants the printer renders alike must still key
        # different plans
        left = ast.Const(Array((100,), range(100)))
        right = ast.Const(Array((100,), range(1, 101)))
        assert pprint(left) == pprint(right)
        dumped = self._record_dumps(monkeypatch)
        assert fingerprint(left) != fingerprint(right)
        assert fingerprint(left) == fingerprint(
            ast.Const(Array((100,), range(100))))
        assert not dumped


class TestRealistic:
    def test_derived_operators_printable(self, std_env):
        for text in ("zip!(A, B)", "transpose!M"):
            assert isinstance(pprint(aql_core(std_env, text)), str)

    def test_total_on_all_node_kinds(self):
        nodes = [
            ast.EmptySet(), ast.Union(V("a"), V("b")),
            ast.Proj(1, 2, V("p")), ast.TupleE((N(1), N(2))),
            ast.BagUnion(ast.EmptyBag(), ast.EmptyBag()),
            ast.BagExtRank("x", "i", ast.SingletonBag(V("x")), V("B")),
        ]
        for node in nodes:
            assert pprint(node)
