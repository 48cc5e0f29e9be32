"""Simulation of the ODMG-93 array primitives (Section 7 claim).

The paper's conclusion asserts: "Our array query language can also easily
simulate all ODMG array primitives."  ODMG-93 one-dimensional arrays
support *create*, *insert*, *update* (in-place element assignment),
*subscript*, and *resize*.  Because NRCA arrays are pure functions, the
mutating operations become functional transformations: each returns a new
tabulated array.

Each operation here is a builder returning a core NRCA expression, so the
simulation is a *derivation within the calculus* (the point of the claim),
not native Python array surgery.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.ast import (
    Arith,
    Bottom,
    Cmp,
    Dim,
    Expr,
    If,
    MkArray,
    NatLit,
    Subscript,
    Tabulate,
    Var,
    fresh_var,
)


def odmg_create(items: Sequence[Expr]) -> Expr:
    """``create(e1, ..., en)``: a fresh array holding the given elements."""
    return MkArray((NatLit(len(items)),), tuple(items))


def odmg_subscript(array: Expr, position: Expr) -> Expr:
    """``A[i]`` — identical to the NRCA subscript (⊥ when out of bounds)."""
    return Subscript(array, (position,))


def odmg_update(array: Expr, position: Expr, value: Expr) -> Expr:
    """``A[i] := v`` functionally: tabulate a copy with slot ``i`` replaced.

    ODMG update is in-place; arrays-as-functions make the updated array a
    new value: ``[[ if j = i then v else A[j] | j < len A ]]``.
    """
    j = fresh_var("j")
    body = If(Cmp("=", Var(j), position), value, Subscript(array, (Var(j),)))
    return Tabulate((j,), (Dim(array, 1),), body)


def odmg_insert(array: Expr, position: Expr, value: Expr) -> Expr:
    """``insert(A, i, v)``: length grows by one, suffix shifts right.

    ``[[ if j < i then A[j] else if j = i then v else A[j-1]
       | j < len A + 1 ]]``.
    """
    j = fresh_var("j")
    body = If(
        Cmp("<", Var(j), position),
        Subscript(array, (Var(j),)),
        If(
            Cmp("=", Var(j), position),
            value,
            Subscript(array, (Arith("-", Var(j), NatLit(1)),)),
        ),
    )
    return Tabulate((j,), (Arith("+", Dim(array, 1), NatLit(1)),), body)


def odmg_remove(array: Expr, position: Expr) -> Expr:
    """``remove(A, i)``: length shrinks by one, suffix shifts left."""
    j = fresh_var("j")
    body = If(
        Cmp("<", Var(j), position),
        Subscript(array, (Var(j),)),
        Subscript(array, (Arith("+", Var(j), NatLit(1)),)),
    )
    return Tabulate((j,), (Arith("-", Dim(array, 1), NatLit(1)),), body)


def odmg_resize(array: Expr, new_length: Expr) -> Expr:
    """``resize(A, n)``: truncate or extend.

    ODMG arrays may have *holes*; NRCA arrays are total over a rectangular
    domain, so extension fills with ⊥ — reading an unset slot of a resized
    ODMG array is an error, and so is it here.
    """
    j = fresh_var("j")
    body = If(
        Cmp("<", Var(j), Dim(array, 1)),
        Subscript(array, (Var(j),)),
        Bottom(),
    )
    return Tabulate((j,), (new_length,), body)


def odmg_concat(left: Expr, right: Expr) -> Expr:
    """``A || B`` — ODMG-style concatenation (the monoid append):
    ``[[ if i < len A then A[i] else B[i - len A] | i < len A + len B ]]``.
    """
    i = fresh_var("i")
    split = If(
        Cmp("<", Var(i), Dim(left, 1)),
        Subscript(left, (Var(i),)),
        Subscript(right, (Arith("-", Var(i), Dim(left, 1)),)),
    )
    return Tabulate((i,), (Arith("+", Dim(left, 1), Dim(right, 1)),), split)


__all__ = [
    "odmg_create",
    "odmg_subscript",
    "odmg_update",
    "odmg_insert",
    "odmg_remove",
    "odmg_resize",
    "odmg_concat",
]
