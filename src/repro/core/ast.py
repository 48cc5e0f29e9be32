"""Abstract syntax for the NRCA core calculus (Figure 1).

Every construct of the paper's Figure 1 is a node class here, plus the
Section 6 extension constructs (bags and ranked unions) used by the
expressiveness results.  The surface language (comprehensions, patterns,
blocks — Figure 2) is *desugared into* this AST; the optimizer (Section 5)
rewrites it; the evaluator interprets it.

Design notes
------------

* Nodes are frozen dataclasses: structural equality is exact syntactic
  equality (α-equivalence is :func:`alpha_equal`).
* Binding structure is exposed uniformly through :meth:`Expr.parts`, which
  yields ``(child, bound_names)`` pairs, and ``BINDER_FIELDS``, naming the
  dataclass fields that hold binder names.  All generic operations —
  :func:`free_vars`, :func:`substitute`, :func:`transform_bottom_up`,
  :func:`alpha_equal` — are written once against that interface.
* Substitution is capture-avoiding: binders are freshened on demand via
  :func:`fresh_var`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Tuple

# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

#: comparison operators of Figure 1 (available at every object type — the
#: paper notes = and <= lift definably, so we take the full family primitive)
CMP_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: arithmetic operators of Figure 1; ``-`` is *monus* on naturals (the
#: paper writes it ÷̇), ordinary subtraction on reals
ARITH_OPS = ("+", "-", "*", "/", "%")

_fresh_counter = itertools.count(1)


def fresh_var(hint: str = "x") -> str:
    """Mint a variable name that cannot collide with user variables.

    User variables never contain ``%``; every freshened binder does.
    """
    base = hint.split("%")[0] or "x"
    return f"{base}%{next(_fresh_counter)}"


# ---------------------------------------------------------------------------
# node classes
# ---------------------------------------------------------------------------

class Expr:
    """Base class of all core-calculus expressions."""

    #: dataclass fields holding binder names (a str or a tuple of strs)
    BINDER_FIELDS: Tuple[str, ...] = ()

    def parts(self) -> List[Tuple["Expr", Tuple[str, ...]]]:
        """Children with the variables bound around each child."""
        raise NotImplementedError

    def with_parts(self, children: List["Expr"]) -> "Expr":
        """Rebuild this node with replacement children (same order/shape)."""
        raise NotImplementedError

    # convenience
    def children(self) -> List["Expr"]:
        """Child expressions without binding information."""
        return [child for child, _ in self.parts()]


def _no_parts(self: Expr) -> List[Tuple[Expr, Tuple[str, ...]]]:
    return []


def _identity_with_parts(self: Expr, children: List[Expr]) -> Expr:
    assert not children
    return self


@dataclass(frozen=True)
class Var(Expr):
    """A variable occurrence."""

    name: str

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class Lam(Expr):
    """Lambda abstraction ``λ param. body`` (object function types only)."""

    param: str
    body: Expr

    BINDER_FIELDS = ("param",)

    def parts(self):
        return [(self.body, (self.param,))]

    def with_parts(self, children):
        (body,) = children
        return Lam(self.param, body)


@dataclass(frozen=True)
class App(Expr):
    """Function application ``e1(e2)``."""

    fn: Expr
    arg: Expr

    def parts(self):
        return [(self.fn, ()), (self.arg, ())]

    def with_parts(self, children):
        fn, arg = children
        return App(fn, arg)


@dataclass(frozen=True)
class TupleE(Expr):
    """k-tuple formation ``(e1, ..., ek)``, k >= 2."""

    items: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuples have arity >= 2")

    def parts(self):
        return [(item, ()) for item in self.items]

    def with_parts(self, children):
        return TupleE(tuple(children))


@dataclass(frozen=True)
class Proj(Expr):
    """Projection ``π_{index,arity}(expr)`` (1-based index)."""

    index: int
    arity: int
    expr: Expr

    def __post_init__(self):
        if not (1 <= self.index <= self.arity) or self.arity < 2:
            raise ValueError(f"bad projection π_{self.index},{self.arity}")

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return Proj(self.index, self.arity, expr)


@dataclass(frozen=True)
class EmptySet(Expr):
    """The empty set ``{}``."""

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class Singleton(Expr):
    """Singleton set ``{e}``."""

    expr: Expr

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return Singleton(expr)


@dataclass(frozen=True)
class Union(Expr):
    """Set union ``e1 ∪ e2``."""

    left: Expr
    right: Expr

    def parts(self):
        return [(self.left, ()), (self.right, ())]

    def with_parts(self, children):
        left, right = children
        return Union(left, right)


@dataclass(frozen=True)
class Ext(Expr):
    """The big-union ``⋃{ body | var ∈ source }`` (monad extension)."""

    var: str
    body: Expr
    source: Expr

    BINDER_FIELDS = ("var",)

    def parts(self):
        return [(self.source, ()), (self.body, (self.var,))]

    def with_parts(self, children):
        source, body = children
        return Ext(self.var, body, source)


@dataclass(frozen=True)
class BoolLit(Expr):
    """``true`` / ``false``."""

    value: bool

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class If(Expr):
    """Conditional ``if cond then then else orelse``."""

    cond: Expr
    then: Expr
    orelse: Expr

    def parts(self):
        return [(self.cond, ()), (self.then, ()), (self.orelse, ())]

    def with_parts(self, children):
        cond, then, orelse = children
        return If(cond, then, orelse)


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison ``e1 op e2`` at any object type (canonical order)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")

    def parts(self):
        return [(self.left, ()), (self.right, ())]

    def with_parts(self, children):
        left, right = children
        return Cmp(self.op, left, right)


@dataclass(frozen=True)
class NatLit(Expr):
    """A natural-number constant."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("naturals are non-negative")

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class RealLit(Expr):
    """A real constant (interpreted base type)."""

    value: float

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class StrLit(Expr):
    """A string constant (interpreted base type)."""

    value: str

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class Arith(Expr):
    """Arithmetic ``e1 op e2``, overloaded over nat and real.

    On naturals ``-`` is monus and ``/`` integer division, per Figure 1.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"bad arithmetic operator {self.op!r}")

    def parts(self):
        return [(self.left, ()), (self.right, ())]

    def with_parts(self, children):
        left, right = children
        return Arith(self.op, left, right)


@dataclass(frozen=True)
class Gen(Expr):
    """``gen(e) = {0, ..., e-1}`` — initial segments of the naturals."""

    expr: Expr

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return Gen(expr)


@dataclass(frozen=True)
class Sum(Expr):
    """Summation ``Σ{ body | var ∈ source }``."""

    var: str
    body: Expr
    source: Expr

    BINDER_FIELDS = ("var",)

    def parts(self):
        return [(self.source, ()), (self.body, (self.var,))]

    def with_parts(self, children):
        source, body = children
        return Sum(self.var, body, source)


@dataclass(frozen=True)
class Tabulate(Expr):
    """Array tabulation ``[[ body | i1 < bound1, ..., ik < boundk ]]``.

    The defining function is ``λ(i1,...,ik). body``; bounds may not
    mention the index variables (they are evaluated first).
    """

    vars: Tuple[str, ...]
    bounds: Tuple[Expr, ...]
    body: Expr

    BINDER_FIELDS = ("vars",)

    def __post_init__(self):
        if not self.vars or len(self.vars) != len(self.bounds):
            raise ValueError("tabulation needs one bound per index variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("tabulation index variables must be distinct")

    @property
    def rank(self) -> int:
        return len(self.vars)

    def parts(self):
        out = [(bound, ()) for bound in self.bounds]
        out.append((self.body, self.vars))
        return out

    def with_parts(self, children):
        *bounds, body = children
        return Tabulate(self.vars, tuple(bounds), body)


@dataclass(frozen=True)
class Subscript(Expr):
    """Array subscripting ``array[i1, ..., ik]`` (⊥ when out of bounds)."""

    array: Expr
    indices: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.indices:
            raise ValueError("subscript needs at least one index")

    @property
    def rank(self) -> int:
        return len(self.indices)

    def parts(self):
        return [(self.array, ())] + [(i, ()) for i in self.indices]

    def with_parts(self, children):
        array, *indices = children
        return Subscript(array, tuple(indices))


@dataclass(frozen=True)
class Dim(Expr):
    """``dim_k(e)``: the length (k=1) or k-tuple of lengths (k>=2)."""

    expr: Expr
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("dim rank must be >= 1")

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return Dim(expr, self.rank)


@dataclass(frozen=True)
class IndexSet(Expr):
    """``index_k(e) : {N^k × t} -> [[{t}]]_k`` — the implicit group-by.

    Holes become ``{}``; duplicate keys group all their values (Section 2).
    """

    expr: Expr
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("index rank must be >= 1")

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return IndexSet(expr, self.rank)


@dataclass(frozen=True)
class Get(Expr):
    """``get(e)``: the unique element of a singleton set, else ⊥."""

    expr: Expr

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return Get(expr)


@dataclass(frozen=True)
class Bottom(Expr):
    """The explicit error value ⊥ (Figure 1, Errors)."""

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class MkArray(Expr):
    """The efficient literal ``[[n1,...,nk; e0,...,e_{N-1}]]`` of Section 3.

    Dimensions are given by expressions; the number of value expressions
    must equal the product of the evaluated dimensions, else ⊥.
    """

    dims: Tuple[Expr, ...]
    items: Tuple[Expr, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("MkArray needs at least one dimension")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def parts(self):
        return [(d, ()) for d in self.dims] + [(i, ()) for i in self.items]

    def with_parts(self, children):
        dims = tuple(children[: len(self.dims)])
        items = tuple(children[len(self.dims):])
        return MkArray(dims, items)


@dataclass(frozen=True)
class Prim(Expr):
    """A named primitive: builtin or dynamically registered (Section 4.1)."""

    name: str

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class Const(Expr):
    """An embedded complex-object constant (e.g. a value read by readval)."""

    value: Any

    parts = _no_parts
    with_parts = _identity_with_parts

    def __hash__(self):
        return hash(("Const", _hashable(self.value)))


def _hashable(value: Any) -> Any:
    try:
        hash(value)
        return value
    except TypeError:  # pragma: no cover - values are hashable by design
        return repr(value)


# -- Section 6 extension constructs -----------------------------------------

@dataclass(frozen=True)
class EmptyBag(Expr):
    """The empty bag ``{||}`` (NBC)."""

    parts = _no_parts
    with_parts = _identity_with_parts


@dataclass(frozen=True)
class SingletonBag(Expr):
    """Singleton bag ``{|e|}`` (NBC)."""

    expr: Expr

    def parts(self):
        return [(self.expr, ())]

    def with_parts(self, children):
        (expr,) = children
        return SingletonBag(expr)


@dataclass(frozen=True)
class BagUnion(Expr):
    """Additive bag union ``e1 ⊎ e2`` (NBC)."""

    left: Expr
    right: Expr

    def parts(self):
        return [(self.left, ()), (self.right, ())]

    def with_parts(self, children):
        left, right = children
        return BagUnion(left, right)


@dataclass(frozen=True)
class BagExt(Expr):
    """``⊎{| body | var ∈ source |}`` (NBC monad extension)."""

    var: str
    body: Expr
    source: Expr

    BINDER_FIELDS = ("var",)

    def parts(self):
        return [(self.source, ()), (self.body, (self.var,))]

    def with_parts(self, children):
        source, body = children
        return BagExt(self.var, body, source)


@dataclass(frozen=True)
class ExtRank(Expr):
    """Ranked union ``⋃_r{ body | var_idx ∈ source }`` (Section 6).

    ``source`` is enumerated in the canonical order ``<_s``; ``body`` sees
    both the element (``var``) and its 1-based rank (``idx``).
    """

    var: str
    idx: str
    body: Expr
    source: Expr

    BINDER_FIELDS = ("var", "idx")

    def parts(self):
        return [(self.source, ()), (self.body, (self.var, self.idx))]

    def with_parts(self, children):
        source, body = children
        return ExtRank(self.var, self.idx, body, source)


@dataclass(frozen=True)
class BagExtRank(Expr):
    """Ranked bag union ``⊎_r`` — equal values get consecutive ranks."""

    var: str
    idx: str
    body: Expr
    source: Expr

    BINDER_FIELDS = ("var", "idx")

    def parts(self):
        return [(self.source, ()), (self.body, (self.var, self.idx))]

    def with_parts(self, children):
        source, body = children
        return BagExtRank(self.var, self.idx, body, source)


# ---------------------------------------------------------------------------
# generic operations
# ---------------------------------------------------------------------------

def free_vars(expr: Expr) -> FrozenSet[str]:
    """The free variables of ``expr``."""
    if isinstance(expr, Var):
        return frozenset((expr.name,))
    out: set = set()
    for child, bound in expr.parts():
        out |= free_vars(child) - set(bound)
    return frozenset(out)


def _binder_names(expr: Expr) -> List[str]:
    names: List[str] = []
    for field_name in expr.BINDER_FIELDS:
        value = getattr(expr, field_name)
        if isinstance(value, tuple):
            names.extend(value)
        else:
            names.append(value)
    return names


def _rename_binders(expr: Expr, renaming: Dict[str, str]) -> Expr:
    """Return ``expr`` with binder fields renamed and bodies adjusted."""
    replacements: Dict[str, Any] = {}
    for field_name in expr.BINDER_FIELDS:
        value = getattr(expr, field_name)
        if isinstance(value, tuple):
            replacements[field_name] = tuple(renaming.get(v, v) for v in value)
        else:
            replacements[field_name] = renaming.get(value, value)
    renamed = dataclasses.replace(expr, **replacements)
    # adjust children that the binders scope over
    substitutions = {old: Var(new) for old, new in renaming.items()}
    new_children: List[Expr] = []
    for child, bound in expr.parts():
        if any(b in renaming for b in bound):
            new_children.append(substitute(child, substitutions))
        else:
            new_children.append(child)
    return renamed.with_parts(new_children)


def substitute(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Capture-avoiding simultaneous substitution ``expr{x := e, ...}``.

    A subterm in which nothing is replaced comes back as the same
    object, so identity-keyed memos (the rewrite engine's) survive it.
    """
    if not mapping:
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    binders = _binder_names(expr)
    parts = expr.parts()
    if binders:
        # drop shadowed substitutions; freshen binders that would capture
        live = {k: v for k, v in mapping.items() if k not in binders}
        if not live:
            return expr
        replacement_fvs: set = set()
        for value in live.values():
            replacement_fvs |= free_vars(value)
        capturing = [b for b in binders if b in replacement_fvs]
        if capturing:
            expr = _rename_binders(
                expr, {b: fresh_var(b) for b in capturing}
            )
            parts = expr.parts()
        new_children = []
        for child, bound in parts:
            child_map = {k: v for k, v in live.items() if k not in bound}
            new_children.append(
                substitute(child, child_map) if child_map else child
            )
    else:
        new_children = [substitute(child, mapping) for child, _ in parts]
    if all(new is old for new, (old, _) in zip(new_children, parts)):
        return expr
    return expr.with_parts(new_children)


def count_free_occurrences(expr: Expr, name: str) -> int:
    """Number of free occurrences of ``name`` in ``expr``."""
    if isinstance(expr, Var):
        return 1 if expr.name == name else 0
    total = 0
    for child, bound in expr.parts():
        if name not in bound:
            total += count_free_occurrences(child, name)
    return total


def transform_bottom_up(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` at every node."""
    children = [transform_bottom_up(child, fn) for child, _ in expr.parts()]
    return fn(expr.with_parts(children))


def subterms(expr: Expr) -> Iterator[Expr]:
    """Iterate over all subterms of ``expr`` (including itself), pre-order."""
    yield expr
    for child, _ in expr.parts():
        yield from subterms(child)


def node_count(expr: Expr) -> int:
    """Number of AST nodes — the optimizer's size metric."""
    return sum(1 for _ in subterms(expr))


def alpha_equal(a: Expr, b: Expr) -> bool:
    """α-equivalence: equality up to consistent renaming of bound variables.

    Used to verify the paper's normal-form claims (e.g. that
    ``zip ∘ (subseq, subseq)`` and ``subseq ∘ zip`` normalize to the same
    query, Section 5).
    """
    return _alpha(a, b, {}, {}, [0])


def _alpha(a: Expr, b: Expr, env_a: Dict[str, int], env_b: Dict[str, int],
           counter: List[int]) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Var):
        assert isinstance(b, Var)
        level_a = env_a.get(a.name)
        level_b = env_b.get(b.name)
        if level_a is None and level_b is None:
            return a.name == b.name
        return level_a is not None and level_a == level_b
    # non-binder dataclass fields must match exactly
    parts_a = a.parts()
    parts_b = b.parts()
    if len(parts_a) != len(parts_b):
        return False
    if not _same_shape(a, b):
        return False
    for (child_a, bound_a), (child_b, bound_b) in zip(parts_a, parts_b):
        if len(bound_a) != len(bound_b):
            return False
        if bound_a:
            child_env_a = dict(env_a)
            child_env_b = dict(env_b)
            for name_a, name_b in zip(bound_a, bound_b):
                counter[0] += 1
                child_env_a[name_a] = counter[0]
                child_env_b[name_b] = counter[0]
            if not _alpha(child_a, child_b, child_env_a, child_env_b, counter):
                return False
        elif not _alpha(child_a, child_b, env_a, env_b, counter):
            return False
    return True


def _same_shape(a: Expr, b: Expr) -> bool:
    """Compare the non-expression, non-binder fields of two same-class nodes."""
    for field in dataclasses.fields(a):  # type: ignore[arg-type]
        if field.name in a.BINDER_FIELDS:
            continue
        value_a = getattr(a, field.name)
        value_b = getattr(b, field.name)
        if isinstance(value_a, Expr):
            continue  # handled via parts()
        if isinstance(value_a, tuple) and value_a and isinstance(value_a[0], Expr):
            continue
        if value_a != value_b:
            return False
    return True


#: constructs allowed in plain NRC (no naturals, no arrays) — used by the
#: expressiveness module to delimit language fragments
NRC_NODES = (
    Var, Lam, App, TupleE, Proj, EmptySet, Singleton, Union, Ext,
    BoolLit, If, Cmp, Get, Bottom, StrLit, RealLit, Const, Prim,
)

#: the extra constructs NRC^aggr adds (arithmetic + summation, Section 6)
AGGR_NODES = NRC_NODES + (NatLit, Arith, Sum)

#: full NRCA (Figure 1)
NRCA_NODES = AGGR_NODES + (Gen, Tabulate, Subscript, Dim, IndexSet, MkArray)


__all__ = [
    "Expr", "Var", "Lam", "App", "TupleE", "Proj", "EmptySet", "Singleton",
    "Union", "Ext", "BoolLit", "If", "Cmp", "NatLit", "RealLit", "StrLit",
    "Arith", "Gen", "Sum", "Tabulate", "Subscript", "Dim", "IndexSet",
    "Get", "Bottom", "MkArray", "Prim", "Const",
    "EmptyBag", "SingletonBag", "BagUnion", "BagExt", "ExtRank", "BagExtRank",
    "CMP_OPS", "ARITH_OPS", "fresh_var", "free_vars", "substitute",
    "count_free_occurrences",
    "transform_bottom_up", "subterms", "node_count", "alpha_equal",
    "NRC_NODES", "AGGR_NODES", "NRCA_NODES",
]
