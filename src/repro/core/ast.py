"""Abstract syntax for the NRCA core calculus (Figure 1).

Every construct of the paper's Figure 1 is a node class here, plus the
Section 6 extension constructs (bags and ranked unions) used by the
expressiveness results.  The surface language (comprehensions, patterns,
blocks — Figure 2) is *desugared into* this AST; the optimizer (Section 5)
rewrites it; the evaluator interprets it.

Design notes
------------

* Nodes are frozen dataclasses: structural equality is exact syntactic
  equality (α-equivalence is :func:`alpha_equal`, by :func:`fingerprint`).
* A node class states its shape once, beside its fields: ``CHILDREN``
  names the fields holding sub-expressions in evaluation order (``*name``
  for a tuple of them), ``BINDER_FIELDS`` those holding binder names, and
  the binders scope over ``body`` alone.  From these :func:`_declare`
  generates ``parts()`` (``(child, bound_names)`` pairs), ``with_parts(
  children)`` (the node rebuilt in the same shape) and ``LABEL_FIELDS``;
  every generic operation — :func:`free_vars`, :func:`substitute`,
  :func:`fingerprint`, the rewrite engine — is written against these.
* The generated methods are closures over ``operator.attrgetter``, one
  per shape (leaf; one, two or more children; λ; loops; each tuple-child
  pattern), not generated text: turning text into code is the code
  generator's alone.  ``parts`` reads the fields in one C call; a node
  with a tuple child is rebuilt by its constructor, any other by setting
  its fields, as its checks cannot fail again.
* Substitution is capture-avoiding: binders are freshened on demand via
  :func:`fresh_var`.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from operator import attrgetter
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
    """Base class of all core-calculus expressions (see the design notes)."""

    #: the fields holding sub-expressions, in evaluation order; ``*name``
    #: marks a field holding a tuple of them
    CHILDREN: Tuple[str, ...] = ()
    #: the fields holding the names bound around ``body``: one name each,
    #: but a tabulation's one field holds a tuple, a name per bound
    BINDER_FIELDS: Tuple[str, ...] = ()
    #: generated: the fields a fingerprint labels with, in field order, as
    #: ``(name, is a tuple child)``: a value always, a tuple child if empty
    LABEL_FIELDS: Tuple[Tuple[str, bool], ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _declare(cls)

    def children(self) -> List["Expr"]:
        """Child expressions without binding information."""
        return [child for child, _ in self.parts()]


#: the bound names of every child that no binder scopes over
_UNBOUND = itertools.repeat(())
_new, _set = object.__new__, object.__setattr__


def _declare(cls: type) -> None:
    """Generate ``parts``, ``with_parts`` and ``LABEL_FIELDS`` for
    ``cls`` from its ``CHILDREN`` and ``BINDER_FIELDS``."""
    declared, binder_fields = cls.CHILDREN, cls.BINDER_FIELDS
    names = tuple(name.lstrip("*") for name in declared)
    shape = "".join("*" if name[0] == "*" else "1" for name in declared)
    shape += "λ" * len(binder_fields)  # one per name bound around body
    fields = tuple(vars(cls).get("__annotations__", {}))
    kept = tuple(name for name in fields if name not in names)
    assert not binder_fields or names[-1] == "body", cls.__name__
    # a node with a tuple child is rebuilt by its positional constructor
    assert "*" not in shape or fields == binder_fields + names, cls.__name__
    cls.LABEL_FIELDS = tuple((name, "*" + name in declared) for name in fields
                             if name not in binder_fields + declared)
    get = attrgetter(*names, *binder_fields) if names else None
    if not names:
        def parts(self):
            return []

        def with_parts(self, children):
            assert not children
            return self
    elif shape == "*":
        def parts(self):
            return [*zip(get(self), _UNBOUND)]

        def with_parts(self, children):
            return cls(tuple(children))
    elif shape == "1*":
        def parts(self):
            first, rest = get(self)
            return [(first, ()), *zip(rest, _UNBOUND)]

        def with_parts(self, children):
            first, *rest = children
            return cls(first, tuple(rest))
    elif shape == "**":
        def parts(self):
            first, rest = get(self)
            return [*zip(first, _UNBOUND), *zip(rest, _UNBOUND)]

        def with_parts(self, children):  # the first keeps its length
            size = len(get(self)[0])
            return cls(tuple(children[:size]), tuple(children[size:]))
    elif shape == "*1λ":  # a tabulation: one bound per name it binds
        def parts(self):
            bounds, body, bound = get(self)
            return [*zip(bounds, _UNBOUND), (body, bound)]

        def with_parts(self, children):
            *bounds, body = children
            return cls(get(self)[2], tuple(bounds), body)
    elif "*" in shape or "λ" in shape and len(names) > 2:
        raise TypeError(f"{cls.__name__}: no shape for {declared}")
    # below, the shape cannot change: ``with_parts`` copies the node's
    # other fields and runs no check
    elif len(names) == 1:
        (name,) = names
        if shape == "1":
            def parts(self):
                return [(get(self), ())]
        else:  # λ
            def parts(self):
                body, *bound = get(self)
                return [(body, tuple(bound))]

        def with_parts(self, children):
            (child,) = children
            new = _new(cls)
            for field in kept:
                _set(new, field, getattr(self, field))
            _set(new, name, child)
            return new
    elif len(names) == 2:
        first, second = names
        if shape == "11":
            def parts(self):
                one, two = get(self)
                return [(one, ()), (two, ())]
        else:  # a loop
            def parts(self):
                source, body, *bound = get(self)
                return [(source, ()), (body, tuple(bound))]

        def with_parts(self, children):
            one, two = children
            new = _new(cls)
            for field in kept:
                _set(new, field, getattr(self, field))
            _set(new, first, one)
            _set(new, second, two)
            return new
    else:
        def parts(self):
            return [*zip(get(self), _UNBOUND)]

        def with_parts(self, children):
            new = _new(cls)
            for field in kept:
                _set(new, field, getattr(self, field))
            for field, child in zip(names, children, strict=True):
                _set(new, field, child)
            return new
    cls.parts, cls.with_parts = parts, with_parts


@dataclass(frozen=True)
class Var(Expr):
    """A variable occurrence."""

    name: str


@dataclass(frozen=True)
class Lam(Expr):
    """Lambda abstraction ``λ param. body`` (object function types only)."""

    param: str
    body: Expr
    CHILDREN = ("body",)
    BINDER_FIELDS = ("param",)


@dataclass(frozen=True)
class App(Expr):
    """Function application ``e1(e2)``."""

    fn: Expr
    arg: Expr
    CHILDREN = ("fn", "arg")


@dataclass(frozen=True)
class TupleE(Expr):
    """k-tuple formation ``(e1, ..., ek)``, k >= 2."""

    items: Tuple[Expr, ...]
    CHILDREN = ("*items",)

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuples have arity >= 2")


@dataclass(frozen=True)
class Proj(Expr):
    """Projection ``π_{index,arity}(expr)`` (1-based index)."""

    index: int
    arity: int
    expr: Expr
    CHILDREN = ("expr",)

    def __post_init__(self):
        if not (1 <= self.index <= self.arity) or self.arity < 2:
            raise ValueError(f"bad projection π_{self.index},{self.arity}")


@dataclass(frozen=True)
class EmptySet(Expr):
    """The empty set ``{}``."""


@dataclass(frozen=True)
class Singleton(Expr):
    """Singleton set ``{e}``."""

    expr: Expr
    CHILDREN = ("expr",)


@dataclass(frozen=True)
class Union(Expr):
    """Set union ``e1 ∪ e2``."""

    left: Expr
    right: Expr
    CHILDREN = ("left", "right")


@dataclass(frozen=True)
class Ext(Expr):
    """The big-union ``⋃{ body | var ∈ source }`` (monad extension)."""

    var: str
    body: Expr
    source: Expr
    CHILDREN = ("source", "body")
    BINDER_FIELDS = ("var",)


@dataclass(frozen=True)
class BoolLit(Expr):
    """``true`` / ``false``."""

    value: bool


@dataclass(frozen=True)
class If(Expr):
    """Conditional ``if cond then then else orelse``."""

    cond: Expr
    then: Expr
    orelse: Expr
    CHILDREN = ("cond", "then", "orelse")


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison ``e1 op e2`` at any object type (canonical order)."""

    op: str
    left: Expr
    right: Expr
    CHILDREN = ("left", "right")

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class NatLit(Expr):
    """A natural-number constant."""

    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("naturals are non-negative")


@dataclass(frozen=True)
class RealLit(Expr):
    """A real constant (interpreted base type)."""

    value: float


@dataclass(frozen=True)
class StrLit(Expr):
    """A string constant (interpreted base type)."""

    value: str


@dataclass(frozen=True)
class Arith(Expr):
    """Arithmetic ``e1 op e2``, overloaded over nat and real.

    On naturals ``-`` is monus and ``/`` integer division, per Figure 1.
    """

    op: str
    left: Expr
    right: Expr
    CHILDREN = ("left", "right")

    def __post_init__(self):
        if self.op not in ARITH_OPS:
            raise ValueError(f"bad arithmetic operator {self.op!r}")


@dataclass(frozen=True)
class Gen(Expr):
    """``gen(e) = {0, ..., e-1}`` — initial segments of the naturals."""

    expr: Expr
    CHILDREN = ("expr",)


@dataclass(frozen=True)
class Sum(Expr):
    """Summation ``Σ{ body | var ∈ source }``."""

    var: str
    body: Expr
    source: Expr
    CHILDREN = ("source", "body")
    BINDER_FIELDS = ("var",)


@dataclass(frozen=True)
class Tabulate(Expr):
    """Array tabulation ``[[ body | i1 < bound1, ..., ik < boundk ]]``.

    The defining function is ``λ(i1,...,ik). body``; bounds may not
    mention the index variables (they are evaluated first).
    """

    vars: Tuple[str, ...]
    bounds: Tuple[Expr, ...]
    body: Expr
    CHILDREN = ("*bounds", "body")
    BINDER_FIELDS = ("vars",)

    def __post_init__(self):
        if not self.vars or len(self.vars) != len(self.bounds):
            raise ValueError("tabulation needs one bound per index variable")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("tabulation index variables must be distinct")

    @property
    def rank(self) -> int:
        return len(self.vars)


@dataclass(frozen=True)
class Subscript(Expr):
    """Array subscripting ``array[i1, ..., ik]`` (⊥ when out of bounds)."""

    array: Expr
    indices: Tuple[Expr, ...]
    CHILDREN = ("array", "*indices")

    def __post_init__(self):
        if not self.indices:
            raise ValueError("subscript needs at least one index")

    @property
    def rank(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class Dim(Expr):
    """``dim_k(e)``: the length (k=1) or k-tuple of lengths (k>=2)."""

    expr: Expr
    rank: int
    CHILDREN = ("expr",)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("dim rank must be >= 1")


@dataclass(frozen=True)
class IndexSet(Expr):
    """``index_k(e) : {N^k × t} -> [[{t}]]_k`` — the implicit group-by.

    Holes become ``{}``; duplicate keys group all their values (Section 2).
    """

    expr: Expr
    rank: int
    CHILDREN = ("expr",)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("index rank must be >= 1")


@dataclass(frozen=True)
class Get(Expr):
    """``get(e)``: the unique element of a singleton set, else ⊥."""

    expr: Expr
    CHILDREN = ("expr",)


@dataclass(frozen=True)
class Bottom(Expr):
    """The explicit error value ⊥ (Figure 1, Errors).  ``reason`` is
    the message it raises with: a ⊥ the optimizer folds keeps its cause."""

    reason: str = "explicit bottom"


@dataclass(frozen=True)
class MkArray(Expr):
    """The efficient literal ``[[n1,...,nk; e0,...,e_{N-1}]]`` of Section 3.

    Dimensions are given by expressions; the number of value expressions
    must equal the product of the evaluated dimensions, else ⊥.
    """

    dims: Tuple[Expr, ...]
    items: Tuple[Expr, ...]
    CHILDREN = ("*dims", "*items")

    def __post_init__(self):
        if not self.dims:
            raise ValueError("MkArray needs at least one dimension")

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class Prim(Expr):
    """A named primitive: builtin or dynamically registered (Section 4.1)."""

    name: str


@dataclass(frozen=True)
class Const(Expr):
    """An embedded complex-object constant (e.g. a value read by readval)."""

    value: Any

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


@dataclass(frozen=True)
class SingletonBag(Expr):
    """Singleton bag ``{|e|}`` (NBC)."""

    expr: Expr
    CHILDREN = ("expr",)


@dataclass(frozen=True)
class BagUnion(Expr):
    """Additive bag union ``e1 ⊎ e2`` (NBC)."""

    left: Expr
    right: Expr
    CHILDREN = ("left", "right")


@dataclass(frozen=True)
class BagExt(Expr):
    """``⊎{| body | var ∈ source |}`` (NBC monad extension)."""

    var: str
    body: Expr
    source: Expr
    CHILDREN = ("source", "body")
    BINDER_FIELDS = ("var",)


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
    CHILDREN = ("source", "body")
    BINDER_FIELDS = ("var", "idx")


@dataclass(frozen=True)
class BagExtRank(Expr):
    """Ranked bag union ``⊎_r`` — equal values get consecutive ranks."""

    var: str
    idx: str
    body: Expr
    source: Expr
    CHILDREN = ("source", "body")
    BINDER_FIELDS = ("var", "idx")


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


def _rename_binders(expr: Expr, renaming: Dict[str, str]) -> Expr:
    """Return ``expr`` with binder fields renamed in it and its body."""
    replacements: Dict[str, Any] = {}
    for field_name in expr.BINDER_FIELDS:
        value = getattr(expr, field_name)
        if isinstance(value, tuple):
            replacements[field_name] = tuple(renaming.get(v, v) for v in value)
        else:
            replacements[field_name] = renaming.get(value, value)
    body = substitute(expr.body, {old: Var(new)
                                  for old, new in renaming.items()})
    return dataclasses.replace(expr, body=body, **replacements)


def substitute(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Capture-avoiding simultaneous substitution ``expr{x := e, ...}``.

    A binder hides a name only in the parts it scopes over
    (:meth:`Expr.parts`): a tabulation bound naming the tabulation's own
    index reads the enclosing variable.  A binder is freshened when it
    scopes over a part receiving a replacement that mentions its name.
    A subterm in which nothing is replaced comes back as the same
    object, so identity-keyed memos (the rewrite engine's) survive it.
    """
    if not mapping:
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    parts = expr.parts()
    maps = [{k: v for k, v in mapping.items() if k not in bound}
            if bound else mapping for _, bound in parts]
    if expr.BINDER_FIELDS:  # they scope over the last part, the body
        replacement_fvs: set = set()
        for value in maps[-1].values():
            replacement_fvs |= free_vars(value)
        capturing = [b for b in parts[-1][1] if b in replacement_fvs]
        if capturing:
            expr = _rename_binders(
                expr, {b: fresh_var(b) for b in capturing}
            )
            parts = expr.parts()
    new_children = [substitute(child, child_map) if child_map else child
                    for (child, _), child_map in zip(parts, maps)]
    if all(new is old for new, (old, _) in zip(new_children, parts)):
        return expr
    return expr.with_parts(new_children)


def transform_bottom_up(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` at every node."""
    children = [transform_bottom_up(child, fn) for child, _ in expr.parts()]
    return fn(expr.with_parts(children))


def extents(array: Expr, rank: int) -> Tuple[Expr, ...]:
    """The bounds of a tabulation over the whole domain of ``array``:
    ``dim_1(array)``, or each ``π_j(dim_k(array))``."""
    whole = Dim(array, rank)
    return (whole,) if rank == 1 else tuple(
        Proj(axis, rank, whole) for axis in range(1, rank + 1))


def subterms(expr: Expr) -> Iterator[Expr]:
    """Iterate over all subterms of ``expr`` (including itself), pre-order."""
    yield expr
    for child, _ in expr.parts():
        yield from subterms(child)


def node_count(expr: Expr) -> int:
    """Number of AST nodes — the optimizer's size metric."""
    return sum(1 for _ in subterms(expr))


def fingerprint(expr: Expr) -> Any:
    """A canonical structural fingerprint of a core expression.

    α-equivalent expressions (equal up to consistent renaming of bound
    variables) produce equal fingerprints: bound variables are replaced
    by de-Bruijn-style binding levels, free variables keep their names,
    and every non-expression field (operators, ranks, literal values)
    participates verbatim.  The result is a nested tuple usable as a
    dictionary key (the plan cache's).
    """
    return _fp(expr, {}, [0])


def _fp(expr: Expr, env: Dict[str, int], counter) -> Any:
    if isinstance(expr, Var):
        level = env.get(expr.name)
        if level is not None:
            return ("bound", level)
        return ("free", expr.name)
    cls = type(expr)
    label = [cls.__name__]
    for name, exprs in cls.LABEL_FIELDS:
        value = getattr(expr, name)
        if not exprs:
            label.append(_hashable(value))
        elif not value:
            label.append(())
    if cls is MkArray:  # else its dims and items read as one sequence
        label.append(expr.rank)
    children = []
    for child, bound in expr.parts():
        if bound:
            child_env = dict(env)
            for name in bound:
                counter[0] += 1
                child_env[name] = counter[0]
            children.append(_fp(child, child_env, counter))
        else:
            children.append(_fp(child, env, counter))
    return (tuple(label), tuple(children))


def alpha_equal(a: Expr, b: Expr) -> bool:
    """α-equivalence: equality up to consistent renaming of bound variables.

    Used to verify the paper's normal-form claims (e.g. that
    ``zip ∘ (subseq, subseq)`` and ``subseq ∘ zip`` normalize to the same
    query, Section 5).
    """
    return fingerprint(a) == fingerprint(b)


#: constructs whose body is evaluated once per element of the source
LOOP_NODES = (Ext, Sum, BagExt, ExtRank, BagExtRank)

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
    "extents", "transform_bottom_up", "subterms", "node_count", "fingerprint",
    "alpha_equal", "LOOP_NODES", "NRC_NODES", "AGGR_NODES", "NRCA_NODES",
]
