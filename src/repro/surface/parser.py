"""Recursive-descent parser for AQL surface syntax.

Grammar (Sections 1, 3, 4 of the paper; see also the sample session):

.. code-block:: none

    program   ::= statement*
    statement ::= 'val' \\x '=' expr ';'
                | 'macro' \\x '=' expr ';'
                | 'readval' \\x 'using' IDENT 'at' expr ';'
                | 'writeval' expr 'using' IDENT 'at' expr ';'
                | expr ';'
    expr      ::= 'fn' P' '=>' expr
                | 'if' expr 'then' expr 'else' expr
                | 'let' ('val' P' '=' expr)+ 'in' expr 'end'
                | or-expr
    or-expr   ::= and-expr ('or' and-expr)*
    and-expr  ::= not-expr ('and' not-expr)*
    not-expr  ::= 'not' not-expr | cmp-expr
    cmp-expr  ::= u-expr (('='|'<>'|'<'|'<='|'>'|'>='|'in') u-expr)?
    u-expr    ::= add-expr (('union'|'bunion') add-expr)*
    add-expr  ::= mul-expr (('+'|'-') mul-expr)*
    mul-expr  ::= postfix (('*'|'/'|'%') postfix)*
    postfix   ::= atom ('!' operand | '(' args ')' | '[' args ']')*
    atom      ::= literal | IDENT | '(' expr (',' expr)* ')'
                | set-or-comprehension | bag-or-comprehension
                | array-literal-or-tabulation

The or- to mul-levels are parsed by precedence climbing over
:data:`_INFIX`, one loop in :meth:`Parser.parse_expr`.

Comprehension qualifiers (generators/filters) are disambiguated from
filter expressions by backtracking: we try a pattern, and commit to a
generator only when ``<-``, ``:==`` or ``==`` follows.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ParseError
from repro.surface import sast as S
from repro.surface.lexer import END, lex, position

#: binding power of each infix operator: a loop at power ``p`` takes the
#: operators of power ``>= p``; all but the comparisons are
#: left-associative, and ``not`` is a prefix operator at :data:`_NOT`
_INFIX = {"or": 1, "and": 2,
          "=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4, "in": 4,
          "union": 5, "bunion": 5, "+": 6, "-": 6, "*": 7, "/": 7, "%": 7}
_NOT = 3
_CMP = 4
#: no operator is stronger: the limit before any has been read
_ANY = 8


class Parser:
    """Parses the token lists of :func:`~repro.surface.lexer.lex` into
    surface AST."""

    def __init__(self, source: str):
        self.source = source
        self.kinds, self.texts, self.offsets = lex(source)
        self.pos = 0

    # -- token plumbing -------------------------------------------------------

    def _at(self, kind: str, then: Optional[str] = None) -> bool:
        """Whether the next token (and, given ``then``, the one after
        it) has this kind."""
        pos = self.pos
        return self.kinds[pos] == kind and (
            then is None or self.kinds[pos + 1] == then)

    def _eat(self, kind: str) -> bool:
        if self.kinds[self.pos] == kind:
            self.pos += 1
            return True
        return False

    def _advance(self) -> str:
        self.pos += 1
        return self.texts[self.pos - 1]

    def _expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            raise self._error(f"expected {kind}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        text = self.texts[self.pos]
        found = repr(text) if self.kinds[self.pos] != END else "end of input"
        return self._error_here(f"{message}, found {found}")

    def _error_here(self, message: str) -> ParseError:
        return ParseError(message,
                          *position(self.source, self.offsets[self.pos]))

    def _guarded(self, parse: Callable[[], Any]) -> Any:
        """Run ``parse``, turning host recursion overflow on deeply
        nested input into a positioned :class:`ParseError`."""
        try:
            return parse()
        except RecursionError:
            raise self._error_here("expression nested too deeply") from None

    # -- statements -------------------------------------------------------------

    def parse_program(self) -> List[S.Statement]:
        """Parse a sequence of top-level statements until end of input."""
        statements: List[S.Statement] = []
        while self.kinds[self.pos] != END:
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> S.Statement:
        """Parse one top-level statement (val/macro/readval/writeval/query)."""
        kind = self.kinds[self.pos]
        if kind == "val" or kind == "macro":
            self.pos += 1
            name = self._expect("binder")
            self._expect("=")
            expr = self.parse_expr()
            self._expect(";")
            return (S.ValDecl if kind == "val" else S.MacroDecl)(name, expr)
        if kind == "readval":
            self.pos += 1
            name = self._expect("binder")
            self._expect("using")
            reader = self._expect("ident")
            self._expect("at")
            args = self.parse_expr()
            self._expect(";")
            return S.ReadVal(name, reader, args)
        if kind == "writeval":
            self.pos += 1
            expr = self.parse_expr()
            self._expect("using")
            writer = self._expect("ident")
            self._expect("at")
            args = self.parse_expr()
            self._expect(";")
            return S.WriteVal(expr, writer, args)
        expr = self.parse_expr()
        self._expect(";")
        return S.Query(expr)

    # -- expressions -------------------------------------------------------------

    def parse_expr(self, no_in: bool = False, power: int = 0) -> S.SExpr:
        """Parse one expression whose infix operators all bind at least
        as tightly as ``power`` (0: a whole expression, which may also
        be ``fn``/``if``/``let``).  ``no_in`` suppresses the membership
        operator, for let-binding right-hand sides."""
        kinds = self.kinds
        kind = kinds[self.pos]
        if kind == "not" and power <= _NOT:
            self.pos += 1
            left = S.SNot(self.parse_expr(no_in, _NOT))
            limit = _NOT
        elif not power and (kind == "fn" or kind == "if" or kind == "let"):
            return self._parse_binding_form(kind, no_in)
        else:
            left = self._parse_postfix(True)
            limit = _ANY
        while True:
            op = kinds[self.pos]
            strength = _INFIX.get(op)
            # a stronger operator than ``limit`` here is a second
            # comparison, which the grammar does not chain
            if strength is None or not (power <= strength <= limit) \
                    or (no_in and op == "in"):
                return left
            self.pos += 1
            right = self.parse_expr(no_in, strength + 1)
            if strength == _CMP:
                left = S.SIn(left, right) if op == "in" \
                    else S.SBinop(op, left, right)
                limit = _CMP - 1
            else:
                left = S.SBinop(op, left, right)
                limit = strength

    def _parse_binding_form(self, kind: str, no_in: bool) -> S.SExpr:
        self.pos += 1
        if kind == "fn":
            pattern = self.parse_pattern()
            self._expect("=>")
            return S.SLam(pattern, self.parse_expr(no_in))
        if kind == "if":
            cond = self.parse_expr()
            self._expect("then")
            then = self.parse_expr()
            self._expect("else")
            return S.SIf(cond, then, self.parse_expr(no_in))
        bindings: List[Tuple[S.Pattern, S.SExpr]] = []
        while self._eat("val"):
            pattern = self.parse_pattern()
            self._expect("=")
            bindings.append((pattern, self.parse_expr(no_in=True)))
        if not bindings:
            raise self._error("let requires at least one val declaration")
        self._expect("in")
        body = self.parse_expr()
        self._expect("end")
        return S.SLet(tuple(bindings), body)

    def _parse_postfix(self, bang: bool) -> S.SExpr:
        """An atom with calls and subscripts after it, and, if ``bang``,
        applications ``!`` whose operands take no ``!`` of their own."""
        expr = self._parse_atom()
        kinds = self.kinds
        while True:
            kind = kinds[self.pos]
            if kind == "!" and bang:
                self.pos += 1
                expr = S.SApp(expr, self._parse_postfix(False))
            elif kind == "(":
                self.pos += 1
                expr = S.SCall(expr, tuple(self._parse_expr_list(")")))
            elif kind == "[" and kinds[self.pos + 1] != "[":
                self.pos += 1
                indices = self._parse_expr_list("]")
                if not indices:
                    raise self._error("subscript needs at least one index")
                expr = S.SSubscript(expr, tuple(indices))
            else:
                return expr

    def _parse_expr_list(self, closer: str) -> List[S.SExpr]:
        items: List[S.SExpr] = []
        if self._eat(closer):
            return items
        while True:
            items.append(self.parse_expr())
            if self._eat(closer):
                return items
            self._expect(",")

    def _parse_items(self, first: S.SExpr) -> List[S.SExpr]:
        """``first`` and every further ``, expr``."""
        items = [first]
        while self._eat(","):
            items.append(self.parse_expr())
        return items

    # -- atoms ---------------------------------------------------------------------

    def _parse_atom(self) -> S.SExpr:
        kind = self.kinds[self.pos]
        if kind == "ident":
            return S.SVar(self._advance())
        if kind == "nat":
            return S.SNat(self._natural())
        if kind == "(":
            self.pos += 1
            items = self._parse_items(self.parse_expr())
            self._expect(")")
            return items[0] if len(items) == 1 else S.STuple(tuple(items))
        if kind == "[":
            if self._at("[", "["):
                return self._parse_array()
            raise self._error("'[' can only start an array literal '[['")
        if kind == "{":
            return self._parse_braced()
        if kind == "real":
            return S.SReal(float(self._advance()))
        if kind == "string":
            return S.SStr(self._advance())
        if kind == "true" or kind == "false":
            self.pos += 1
            return S.SBool(kind == "true")
        if kind == "bottom":
            self.pos += 1
            return S.SBottom()
        raise self._error("expected an expression")

    def _natural(self) -> int:
        try:
            value = int(self.texts[self.pos])
        except ValueError:  # more digits than int() converts
            raise self._error_here("natural literal too long") from None
        self.pos += 1
        return value

    def _parse_braced(self) -> S.SExpr:
        self._expect("{")
        if self._at("|"):
            return self._parse_bag()
        if self._eat("}"):
            return S.SSetLit(())
        head = self.parse_expr()
        if self._eat("|"):
            qualifiers = self._parse_qualifiers()
            self._expect("}")
            return S.SSetComp(head, tuple(qualifiers))
        items = self._parse_items(head)
        self._expect("}")
        return S.SSetLit(tuple(items))

    def _parse_bag(self) -> S.SExpr:
        self._expect("|")
        if self._at("|", "}"):
            self.pos += 2
            return S.SBagLit(())
        head = self.parse_expr()
        if self._at("|", "}"):
            self.pos += 2
            return S.SBagLit((head,))
        if self._eat("|"):
            qualifiers = self._parse_qualifiers()
            self._expect("|")
            self._expect("}")
            return S.SBagComp(head, tuple(qualifiers))
        items = self._parse_items(head)
        self._expect("|")
        self._expect("}")
        return S.SBagLit(tuple(items))

    def _parse_array(self) -> S.SExpr:
        self.pos += 2
        if self._at("]", "]"):
            self.pos += 2
            return S.SArrayLit(())
        # tabulation starts with a binder followed by '<' only after the body,
        # so parse the first expression and look at what follows
        first = self.parse_expr()
        if self._eat("|"):
            binders = self._parse_tab_binders()
            self._expect("]")
            self._expect("]")
            return S.STabulate(tuple(binders), first)
        items = [first]
        dims: Optional[List[S.SExpr]] = None
        while not self._at("]", "]"):
            if self._at(";"):
                if dims is not None:
                    raise self._error("multiple ';' in array literal")
                self.pos += 1
                dims, items = items, []
                if self._at("]", "]"):
                    break
            else:
                self._expect(",")
            items.append(self.parse_expr())
        self.pos += 2
        if dims is None:
            return S.SArrayLit(tuple(items))
        return S.SArrayRowMajor(tuple(dims), tuple(items))

    def _parse_tab_binders(self) -> List[Tuple[str, S.SExpr]]:
        binders: List[Tuple[str, S.SExpr]] = []
        while True:
            name = self._expect("binder")
            self._expect("<")
            binders.append((name, self.parse_expr()))
            if not self._eat(","):
                return binders

    # -- comprehension qualifiers ----------------------------------------------------

    def _parse_qualifiers(self) -> List[S.GenFilter]:
        qualifiers = [self._parse_qualifier()]
        while self._eat(","):
            qualifiers.append(self._parse_qualifier())
        return qualifiers

    def _parse_qualifier(self) -> S.GenFilter:
        saved = self.pos
        # array generator: [ P : P ] <- e
        if self._at("[") and not self._at("[", "["):
            try:
                self.pos += 1
                index_pattern = self.parse_pattern()
                self._expect(":")
                value_pattern = self.parse_pattern()
                self._expect("]")
                self._expect("<-")
                source = self.parse_expr()
                return S.GArrayGen(index_pattern, value_pattern, source)
            except ParseError:
                self.pos = saved
        # generator or binding: P <- e | P :== e | P == e
        try:
            pattern = self.parse_pattern()
            if self._eat("<-"):
                return S.GGen(pattern, self.parse_expr())
            if self._eat(":==") or self._eat("=="):
                return S.GBind(pattern, self.parse_expr())
        except ParseError:
            pass
        self.pos = saved
        return S.GFilter(self.parse_expr())

    # -- patterns --------------------------------------------------------------------

    def parse_pattern(self) -> S.Pattern:
        """Parse a pattern: binder, wildcard, constant, variable or tuple."""
        kind = self.kinds[self.pos]
        if kind == "binder":
            return S.PBind(self._advance())
        if kind == "_":
            self.pos += 1
            return S.PWild()
        if kind == "\\":
            raise self._error("'\\' must be followed by a name")
        if kind == "ident":
            return S.PVarEq(self._advance())
        if kind == "nat":
            return S.PConst(self._natural())
        if kind == "real":
            return S.PConst(float(self._advance()))
        if kind == "string":
            return S.PConst(self._advance())
        if kind == "true" or kind == "false":
            self.pos += 1
            return S.PConst(kind == "true")
        if kind == "(":
            self.pos += 1
            items = [self.parse_pattern()]
            while self._eat(","):
                items.append(self.parse_pattern())
            self._expect(")")
            return items[0] if len(items) == 1 else S.PTuple(tuple(items))
        raise self._error("expected a pattern")


def parse_expression(source: str) -> S.SExpr:
    """Parse a single AQL expression from text."""
    parser = Parser(source)
    expr = parser._guarded(parser.parse_expr)
    if parser.kinds[parser.pos] not in (END, ";"):
        raise parser._error_here("trailing input after expression: "
                                 f"{parser.texts[parser.pos]!r}")
    return expr


def parse_program(source: str) -> List[S.Statement]:
    """Parse a sequence of AQL top-level statements."""
    parser = Parser(source)
    return parser._guarded(parser.parse_program)


__all__ = ["Parser", "parse_expression", "parse_program"]
