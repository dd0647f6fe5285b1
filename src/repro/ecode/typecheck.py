"""ECode semantic checker.

Records are dynamically typed at the field level (the format meta-data is
the type authority), so this pass enforces the *structural* rules that
keep the Python translation sound rather than full C typing:

* every identifier is declared before use (parameters are predeclared),
* no redeclaration / shadowing of a visible name,
* assignment and ``++``/``--`` appear only in statement position or in
  ``for`` clauses (C allows them anywhere; the Python target does not),
  with the single exception of chained plain assignment ``a = b = 0``,
* assignment targets are lvalues,
* ``break``/``continue`` appear inside loops,
* calls name a known builtin with a sane argument count,
* ``sizeof`` names a known C type.

Raises :class:`~repro.errors.ECodeTypeError` with the offending line.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Sequence, Set, Tuple

from repro.ecode import ast
from repro.ecode.parser import parse
from repro.ecode.runtime import BUILTINS, C_SIZEOF
from repro.errors import ECodeTypeError


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.names: Set[str] = set()

    def declare(self, name: str, line: int) -> None:
        if self.lookup(name):
            raise ECodeTypeError(f"line {line}: redeclaration of {name!r}")
        self.names.add(name)

    def lookup(self, name: str) -> bool:
        scope: "_Scope | None" = self
        while scope is not None:
            if name in scope.names:
                return True
            scope = scope.parent
        return False


class SemanticChecker:
    def __init__(self, params: Sequence[str]) -> None:
        self.root = _Scope()
        for param in params:
            self.root.declare(param, 0)
        self.loop_depth = 0

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def check_program(self, program: ast.Program) -> None:
        scope = _Scope(self.root)
        for stmt in program.body:
            self.check_stmt(stmt, scope)

    def check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Declaration):
            for decl in stmt.declarators:
                if decl.init is not None:
                    self.check_expr(decl.init, scope)
                scope.declare(decl.name, decl.line)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_statement_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.Block):
            inner = _Scope(scope)
            for child in stmt.statements:
                self.check_stmt(child, inner)
        elif isinstance(stmt, ast.If):
            self.check_expr(stmt.condition, scope)
            self.check_stmt(stmt.then_branch, scope)
            if stmt.else_branch is not None:
                self.check_stmt(stmt.else_branch, scope)
        elif isinstance(stmt, ast.While):
            self.check_expr(stmt.condition, scope)
            self._check_loop_body(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._check_loop_body(stmt.body, scope)
            self.check_expr(stmt.condition, scope)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if isinstance(stmt.init, ast.Declaration):
                self.check_stmt(stmt.init, inner)
            elif isinstance(stmt.init, list):
                for expr in stmt.init:
                    self._check_statement_expr(expr, inner)
            if stmt.condition is not None:
                self.check_expr(stmt.condition, inner)
            for expr in stmt.update:
                self._check_statement_expr(expr, inner)
            self._check_loop_body(stmt.body, inner)
        elif isinstance(stmt, ast.Switch):
            self._check_switch(stmt, scope)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.check_expr(stmt.value, scope)
        elif isinstance(stmt, ast.Break):
            if self.loop_depth == 0:
                raise ECodeTypeError(f"line {stmt.line}: break outside a loop")
        elif isinstance(stmt, ast.Continue):
            if self.loop_depth == 0:
                raise ECodeTypeError(f"line {stmt.line}: continue outside a loop")
        else:  # pragma: no cover - parser produces no other nodes
            raise ECodeTypeError(f"line {stmt.line}: unsupported statement {stmt!r}")

    def _check_switch(self, stmt: ast.Switch, scope: _Scope) -> None:
        """ECode switch is the no-fallthrough subset: every non-empty case
        body ends with ``break`` or ``return``, labels are integer/char
        constants, and a body may not combine ``case`` labels with
        ``default``."""
        self.check_expr(stmt.subject, scope)
        seen_labels = set()
        for case in stmt.cases:
            if case.is_default and case.labels:
                raise ECodeTypeError(
                    f"line {case.line}: a switch arm may not mix 'case' "
                    "labels with 'default'"
                )
            for label in case.labels:
                value = _constant_label(label)
                if value is _NOT_CONSTANT:
                    raise ECodeTypeError(
                        f"line {label.line}: case label must be an integer "
                        "or character constant"
                    )
                if value in seen_labels:
                    raise ECodeTypeError(
                        f"line {label.line}: duplicate case label {value!r}"
                    )
                seen_labels.add(value)
            body, terminated = ast.strip_case_terminator(case.body)
            if not terminated:
                raise ECodeTypeError(
                    f"line {case.line}: switch case must end with 'break' "
                    "or 'return' (ECode does not support fall-through)"
                )
            strays = ast.stray_breaks(body)
            if strays:
                raise ECodeTypeError(
                    f"line {strays[0].line}: 'break' inside a switch case "
                    "is only supported as the case terminator"
                )
            inner = _Scope(scope)
            for child in body:
                self.check_stmt(child, inner)

    def _check_loop_body(self, body: ast.Stmt, scope: _Scope) -> None:
        self.loop_depth += 1
        try:
            self.check_stmt(body, scope)
        finally:
            self.loop_depth -= 1

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _check_statement_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        """Expressions in statement position may be assignments/inc-dec."""
        if isinstance(expr, ast.Assignment):
            self._check_lvalue(expr.target, scope)
            # allow chains of plain '=' : a = b = 0
            value = expr.value
            while isinstance(value, ast.Assignment):
                if expr.op != "=" or value.op != "=":
                    raise ECodeTypeError(
                        f"line {value.line}: compound assignment cannot be chained"
                    )
                self._check_lvalue(value.target, scope)
                value = value.value
            self.check_expr(value, scope)
        elif isinstance(expr, ast.IncDec):
            self._check_lvalue(expr.target, scope)
        else:
            self.check_expr(expr, scope)

    def check_expr(self, expr: ast.Expr, scope: _Scope) -> None:
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral, ast.StringLiteral, ast.CharLiteral)):
            return
        if isinstance(expr, ast.Identifier):
            if not scope.lookup(expr.name):
                raise ECodeTypeError(
                    f"line {expr.line}: use of undeclared identifier {expr.name!r}"
                )
            return
        if isinstance(expr, ast.FieldAccess):
            self.check_expr(expr.base, scope)
            return
        if isinstance(expr, ast.IndexAccess):
            self.check_expr(expr.base, scope)
            self.check_expr(expr.index, scope)
            return
        if isinstance(expr, ast.UnaryOp):
            self.check_expr(expr.operand, scope)
            return
        if isinstance(expr, ast.BinaryOp):
            self.check_expr(expr.left, scope)
            self.check_expr(expr.right, scope)
            return
        if isinstance(expr, ast.TernaryOp):
            self.check_expr(expr.condition, scope)
            self.check_expr(expr.if_true, scope)
            self.check_expr(expr.if_false, scope)
            return
        if isinstance(expr, ast.Call):
            if expr.name not in BUILTINS:
                raise ECodeTypeError(
                    f"line {expr.line}: call to unknown function {expr.name!r} "
                    f"(available: {', '.join(sorted(BUILTINS))})"
                )
            if expr.name in _FIXED_ARITY and len(expr.args) != _FIXED_ARITY[expr.name]:
                raise ECodeTypeError(
                    f"line {expr.line}: {expr.name}() takes "
                    f"{_FIXED_ARITY[expr.name]} argument(s), got {len(expr.args)}"
                )
            for arg in expr.args:
                self.check_expr(arg, scope)
            return
        if isinstance(expr, ast.SizeOf):
            normalized = " ".join(expr.type_name.split())
            if normalized not in C_SIZEOF:
                raise ECodeTypeError(
                    f"line {expr.line}: sizeof of unknown type {expr.type_name!r}"
                )
            return
        if isinstance(expr, ast.Assignment):
            raise ECodeTypeError(
                f"line {expr.line}: assignment used as a value; ECode restricts "
                "assignment to statement position and for-clauses"
            )
        if isinstance(expr, ast.IncDec):
            raise ECodeTypeError(
                f"line {expr.line}: ++/-- used as a value; ECode restricts them "
                "to statement position and for-clauses"
            )
        raise ECodeTypeError(  # pragma: no cover - parser produces no others
            f"line {expr.line}: unsupported expression {expr!r}"
        )

    def _check_lvalue(self, expr: ast.Expr, scope: _Scope) -> None:
        if isinstance(expr, ast.Identifier):
            if not scope.lookup(expr.name):
                raise ECodeTypeError(
                    f"line {expr.line}: assignment to undeclared identifier "
                    f"{expr.name!r}"
                )
            return
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
            self.check_expr(expr, scope)
            return
        raise ECodeTypeError(f"line {expr.line}: target is not assignable")


_NOT_CONSTANT = object()


def _constant_label(label: ast.Expr):
    """The constant value of a case label, or ``_NOT_CONSTANT``."""
    if isinstance(label, ast.IntLiteral):
        return label.value
    if isinstance(label, ast.CharLiteral):
        return label.value
    if isinstance(label, ast.UnaryOp) and label.op == "-" and isinstance(
        label.operand, ast.IntLiteral
    ):
        return -label.operand.value
    return _NOT_CONSTANT


_FIXED_ARITY = {
    "strlen": 1,
    "strcmp": 2,
    "strcat": 2,
    "sqrt": 1,
    "fabs": 1,
    "abs": 1,
    "floor": 1,
    "ceil": 1,
    "atoi": 1,
    "atof": 1,
    "exp": 1,
}


def check(program: ast.Program, params: Iterable[str]) -> None:
    """Run the semantic checker over *program* with the given parameter
    names predeclared."""
    SemanticChecker(list(params)).check_program(program)


@lru_cache(maxsize=256)
def checked_program(source: str, params: Tuple[str, ...]) -> ast.Program:
    """Parse and check *source* once per ``(source, params)``.

    The front end is most of what building a procedure costs, and route
    planning asks for the same transform text again for every chain that
    contains it.  Callers share the returned AST and must not mutate it
    (:func:`repro.ecode.analyze.prune_dead_stores` builds copies).  A
    source that fails to parse or check raises and is not remembered."""
    program = parse(source)
    check(program, params)
    return program
