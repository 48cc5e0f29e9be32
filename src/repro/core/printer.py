"""Pretty-printer for core NRCA expressions.

Renders the abstract syntax back into a readable AQL-flavoured notation —
used by the REPL to echo optimized queries, by tests for readable failure
messages, and by the documentation examples.
"""

from __future__ import annotations

from repro.core import ast
from repro.objects.array import Array
from repro.objects.bag import Bag
from repro.objects.values import value_kind

#: array/set/bag constants with more cells than this print as a one-line
#: summary: the text is for reading a plan, not for carrying its data (a
#: resolved ``val`` is spliced in as a ``Const``, so the optimized core
#: of a query over a 1000×1000 array would otherwise print a million
#: cells)
CONST_CELL_LIMIT = 64

#: element names of dense blocks, by dtype tag
_BLOCK_ELEMENTS = {"int": "nat", "real": "real", "bool": "bool"}


def pprint(expr: ast.Expr) -> str:
    """Render a core expression as text."""
    return _pp(expr, 0)


def _pp(expr: ast.Expr, depth: int) -> str:
    if depth > 200:
        return "..."
    method = _PRINTERS.get(type(expr))
    if method is None:
        return f"<{type(expr).__name__}>"
    return method(expr, depth + 1)


def _paren(text: str) -> str:
    if text and (text[0].isalnum() or text[0] in "([{\\\"" or text in
                 ("true", "false", "bottom")):
        return text
    return f"({text})"


def _var(e: ast.Var, d):
    return e.name


def _lam(e: ast.Lam, d):
    return f"fn \\{e.param} => {_pp(e.body, d)}"


def _app(e: ast.App, d):
    fn = _pp(e.fn, d)
    if isinstance(e.fn, (ast.Lam,)):
        fn = f"({fn})"
    return f"{fn}!({_pp(e.arg, d)})"


def _tuple(e: ast.TupleE, d):
    return "(" + ", ".join(_pp(i, d) for i in e.items) + ")"


def _proj(e: ast.Proj, d):
    return f"pi_{e.index},{e.arity}({_pp(e.expr, d)})"


def _empty_set(e: ast.EmptySet, d):
    return "{}"


def _singleton(e: ast.Singleton, d):
    return "{" + _pp(e.expr, d) + "}"


def _union(e: ast.Union, d):
    return f"{_pp(e.left, d)} union {_pp(e.right, d)}"


def _ext(e: ast.Ext, d):
    return (f"bigunion{{{_pp(e.body, d)} | \\{e.var} <- "
            f"{_pp(e.source, d)}}}")


def _bool(e: ast.BoolLit, d):
    return "true" if e.value else "false"


def _if(e: ast.If, d):
    return (f"if {_pp(e.cond, d)} then {_pp(e.then, d)} "
            f"else {_pp(e.orelse, d)}")


def _cmp(e: ast.Cmp, d):
    return f"{_pp(e.left, d)} {e.op} {_pp(e.right, d)}"


def _nat(e: ast.NatLit, d):
    return str(e.value)


def _real(e: ast.RealLit, d):
    return repr(e.value)


def _str(e: ast.StrLit, d):
    return f'"{e.value}"'


def _arith(e: ast.Arith, d):
    left = _pp(e.left, d)
    right = _pp(e.right, d)
    if isinstance(e.left, (ast.Arith, ast.If, ast.Cmp)):
        left = f"({left})"
    if isinstance(e.right, (ast.Arith, ast.If, ast.Cmp)):
        right = f"({right})"
    return f"{left} {e.op} {right}"


def _gen(e: ast.Gen, d):
    return f"gen!({_pp(e.expr, d)})"


def _sum(e: ast.Sum, d):
    return f"sum{{{_pp(e.body, d)} | \\{e.var} <- {_pp(e.source, d)}}}"


def _tabulate(e: ast.Tabulate, d):
    binders = ", ".join(
        f"\\{var} < {_pp(bound, d)}" for var, bound in zip(e.vars, e.bounds)
    )
    return f"[[{_pp(e.body, d)} | {binders}]]"


def _subscript(e: ast.Subscript, d):
    target = _pp(e.array, d)
    if not isinstance(e.array, (ast.Var, ast.Const, ast.Prim, ast.Subscript)):
        target = f"({target})"
    return target + "[" + ", ".join(_pp(i, d) for i in e.indices) + "]"


def _dim(e: ast.Dim, d):
    return f"dim_{e.rank}({_pp(e.expr, d)})"


def _index(e: ast.IndexSet, d):
    return f"index_{e.rank}({_pp(e.expr, d)})"


def _get(e: ast.Get, d):
    return f"get({_pp(e.expr, d)})"


def _bottom(e: ast.Bottom, d):
    return "bottom"


def _mk_array(e: ast.MkArray, d):
    dims = ", ".join(_pp(x, d) for x in e.dims)
    items = ", ".join(_pp(x, d) for x in e.items)
    return f"[[{dims}; {items}]]"


def _prim(e: ast.Prim, d):
    return e.name


def _const(e: ast.Const, d):
    from repro.objects.exchange import dumps

    value = e.value
    try:
        return _summary(value) or dumps(value)
    except Exception:
        return repr(value)


def _summary(value) -> str:
    """``<array 1000×1000 of nat>`` for a collection constant past
    :data:`CONST_CELL_LIMIT`, else ``""``.  Never boxes a dense array."""
    if isinstance(value, Array):
        if value.size <= CONST_CELL_LIMIT:
            return ""
        block = value.block
        element = _BLOCK_ELEMENTS[block.tag] if block is not None \
            else value_kind(value.flat[0])
        dims = "×".join(str(dim) for dim in value.dims)
        return f"<array {dims} of {element}>"
    if isinstance(value, (frozenset, Bag)):
        if len(value) <= CONST_CELL_LIMIT:
            return ""
        kind = "set" if isinstance(value, frozenset) else "bag"
        return f"<{kind} of {len(value)} {value_kind(next(iter(value)))}>"
    return ""


def _empty_bag(e: ast.EmptyBag, d):
    return "{||}"


def _singleton_bag(e: ast.SingletonBag, d):
    return "{|" + _pp(e.expr, d) + "|}"


def _bag_union(e: ast.BagUnion, d):
    return f"{_pp(e.left, d)} bunion {_pp(e.right, d)}"


def _bag_ext(e: ast.BagExt, d):
    return (f"bigbunion{{|{_pp(e.body, d)} | \\{e.var} <- "
            f"{_pp(e.source, d)}|}}")


def _ext_rank(e: ast.ExtRank, d):
    return (f"bigunion_r{{{_pp(e.body, d)} | \\{e.var}_{e.idx} <- "
            f"{_pp(e.source, d)}}}")


def _bag_ext_rank(e: ast.BagExtRank, d):
    return (f"bigbunion_r{{|{_pp(e.body, d)} | \\{e.var}_{e.idx} <- "
            f"{_pp(e.source, d)}|}}")


_PRINTERS = {
    ast.Var: _var,
    ast.Lam: _lam,
    ast.App: _app,
    ast.TupleE: _tuple,
    ast.Proj: _proj,
    ast.EmptySet: _empty_set,
    ast.Singleton: _singleton,
    ast.Union: _union,
    ast.Ext: _ext,
    ast.BoolLit: _bool,
    ast.If: _if,
    ast.Cmp: _cmp,
    ast.NatLit: _nat,
    ast.RealLit: _real,
    ast.StrLit: _str,
    ast.Arith: _arith,
    ast.Gen: _gen,
    ast.Sum: _sum,
    ast.Tabulate: _tabulate,
    ast.Subscript: _subscript,
    ast.Dim: _dim,
    ast.IndexSet: _index,
    ast.Get: _get,
    ast.Bottom: _bottom,
    ast.MkArray: _mk_array,
    ast.Prim: _prim,
    ast.Const: _const,
    ast.EmptyBag: _empty_bag,
    ast.SingletonBag: _singleton_bag,
    ast.BagUnion: _bag_union,
    ast.BagExt: _bag_ext,
    ast.ExtRank: _ext_rank,
    ast.BagExtRank: _bag_ext_rank,
}

__all__ = ["pprint"]
