"""Type expressions for the NRCA calculus (Figure 1 of the paper).

Types are immutable, hashable dataclasses.  Inference uses mutable-free
type variables (:class:`TVar`) resolved through an explicit substitution
(see :mod:`repro.types.unify`), so printed types never contain stale
bindings.

A small constraint system rides on type variables: a variable may be
restricted to *numeric* types (``N`` or ``real`` — used by the overloaded
arithmetic operators) via its ``constraint`` field.  Equality and linear
order are available at every object type (Section 2: their liftings are
definable, so we make them primitive), hence need no constraint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple


class Type:
    """Base class of all type expressions."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class TBool(Type):
    """The type ``B`` of booleans."""

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TNat(Type):
    """The type ``N`` of natural numbers."""

    def __str__(self) -> str:
        return "nat"


@dataclass(frozen=True)
class TReal(Type):
    """An interpreted base type of reals (used by the paper's examples)."""

    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class TString(Type):
    """An interpreted base type of strings."""

    def __str__(self) -> str:
        return "string"


@dataclass(frozen=True)
class TBase(Type):
    """An uninterpreted base type ``b`` named by the user."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TProduct(Type):
    """The k-ary product ``t1 × ... × tk`` (k >= 2)."""

    items: Tuple[Type, ...]

    def __post_init__(self) -> None:
        if len(self.items) < 2:
            raise ValueError("products have arity >= 2")

    def __str__(self) -> str:
        return "(" + " * ".join(_paren(t) for t in self.items) + ")"


@dataclass(frozen=True)
class TSet(Type):
    """The set type ``{t}``."""

    elem: Type

    def __str__(self) -> str:
        return "{" + str(self.elem) + "}"


@dataclass(frozen=True)
class TBag(Type):
    """The bag type ``{|t|}`` of the Section 6 calculus NBC."""

    elem: Type

    def __str__(self) -> str:
        return "{|" + str(self.elem) + "|}"


@dataclass(frozen=True)
class TArray(Type):
    """The k-dimensional array type ``[[t]]_k``."""

    elem: Type
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("array rank must be >= 1")

    def __str__(self) -> str:
        return f"[[{self.elem}]]_{self.rank}"


@dataclass(frozen=True)
class TArrow(Type):
    """The object function type ``t1 -> t2``."""

    arg: Type
    result: Type

    def __str__(self) -> str:
        return f"{_paren(self.arg)} -> {self.result}"


_tvar_counter = itertools.count()

# Constraint kinds a type variable can carry.
NUMERIC = "numeric"  # must resolve to nat or real


@dataclass(frozen=True)
class TVar(Type):
    """A unification variable, optionally constrained to numeric types."""

    ident: int
    constraint: Optional[str] = None

    def __str__(self) -> str:
        prefix = "#" if self.constraint == NUMERIC else "'"
        return f"{prefix}t{self.ident}"


def fresh_tvar(constraint: Optional[str] = None) -> TVar:
    """Mint a fresh type variable (optionally numeric-constrained)."""
    return TVar(next(_tvar_counter), constraint)


@dataclass(frozen=True)
class TypeScheme:
    """A polymorphic type ``∀ a1...an . t`` for macros and primitives."""

    quantified: Tuple[int, ...]
    body: Type

    def __str__(self) -> str:
        if not self.quantified:
            return str(self.body)
        vars_text = " ".join(f"'t{v}" for v in self.quantified)
        return f"forall {vars_text}. {self.body}"

    @classmethod
    def mono(cls, body: Type) -> "TypeScheme":
        """A monomorphic scheme (no quantified variables)."""
        return cls((), body)


def _paren(t: Type) -> str:
    text = str(t)
    if isinstance(t, (TProduct, TArrow)):
        return text if text.startswith("(") else f"({text})"
    return text


def free_tvars(t: Type) -> Dict[int, TVar]:
    """All type variables occurring in ``t``, keyed by identity."""
    found: Dict[int, TVar] = {}
    _collect(t, found)
    return found


def _collect(t: Type, found: Dict[int, TVar]) -> None:
    if isinstance(t, TVar):
        found[t.ident] = t
    elif isinstance(t, TProduct):
        for item in t.items:
            _collect(item, found)
    elif isinstance(t, (TSet, TBag)):
        _collect(t.elem, found)
    elif isinstance(t, TArray):
        _collect(t.elem, found)
    elif isinstance(t, TArrow):
        _collect(t.arg, found)
        _collect(t.result, found)


#: the exact host type of each base type (a numpy scalar is none of them)
HOST_TYPES = {TBool: bool, TNat: int, TReal: float, TString: str}
_BASE_TYPES = {host: base() for base, host in HOST_TYPES.items()}


def type_of_value(value: Any) -> Type:
    """Infer the (ground) type of a complex-object value.

    Empty sets/bags/arrays get fresh element type variables, because the
    value alone does not determine the element type.  A base value has
    its exact host type (a numpy scalar is neither a nat nor a real):
    a plan typed from this trusts it (DESIGN.md "Code generation").
    """
    from repro.objects.array import Array
    from repro.objects.bag import Bag

    base = _BASE_TYPES.get(type(value))
    if base is not None:
        return base
    if isinstance(value, tuple):
        return TProduct(tuple(type_of_value(v) for v in value))
    if isinstance(value, frozenset):
        return TSet(_elem_type(value))
    if isinstance(value, Bag):
        return TBag(_elem_type(value.support()))
    if isinstance(value, Array):
        block = value.block
        if block is not None and value.size:
            # dense-backed: the dtype tag *is* the element type — no
            # need to box the buffer just to inspect its elements
            elem = {"int": TNat(), "real": TReal(),
                    "bool": TBool()}[block.tag]
            return TArray(elem, value.rank)
        return TArray(_elem_type(value.flat), value.rank)
    raise TypeError(f"not a complex-object value: {value!r}")


def _elem_type(items: Iterable[Any]) -> Type:
    items = list(items)
    if not items:
        return fresh_tvar()
    kinds = {type(item) for item in items}
    if len(kinds) == 1 and kinds <= _BASE_TYPES.keys():
        return _BASE_TYPES[kinds.pop()]  # one base type: no unification
    # unify across ALL elements, not just the first: heterogeneous-depth
    # collections like {{}, {{}}} are well-typed ({α} ~ {{β}} gives
    # {{β}}), and collection iteration order must not affect the result
    from repro.types.unify import unify, zonk

    subst: Dict[int, Type] = {}
    elem = type_of_value(items[0])
    for item in items[1:]:
        unify(elem, type_of_value(item), subst)
    return zonk(elem, subst)


__all__ = [
    "Type",
    "TBool",
    "TNat",
    "TReal",
    "TString",
    "TBase",
    "TProduct",
    "TSet",
    "TBag",
    "TArray",
    "TArrow",
    "TVar",
    "TypeScheme",
    "HOST_TYPES",
    "NUMERIC",
    "fresh_tvar",
    "free_tvars",
    "type_of_value",
]
