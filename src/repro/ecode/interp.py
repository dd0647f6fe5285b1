"""ECode tree-walking interpreter.

Executes the AST directly with the same semantics as the generated Python
code (:mod:`repro.ecode.codegen`).  It exists for two reasons:

* it is the baseline arm of the DCG-vs-interpretation ablation benchmark
  (the paper's core efficiency claim is that dynamically *compiled*
  conversion routines beat interpretive approaches), and
* the test suite cross-checks the compiler against it on random programs
  — two independent implementations agreeing is strong evidence both
  match the intended C semantics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ecode import ast
from repro.ecode.runtime import (
    BUILTINS,
    c_div,
    c_mod,
    copy_value,
    default_for_type,
    sizeof,
)
from repro.ecode.typecheck import checked_program
from repro.errors import ECodeRuntimeError


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Env:
    """Flat variable environment (the checker rejects shadowing, so block
    scoping collapses to one function-level namespace, matching the
    compiled translation)."""

    __slots__ = ("vars",)

    def __init__(self, initial: Dict[str, Any]) -> None:
        self.vars = dict(initial)

    def get(self, name: str) -> Any:
        try:
            return self.vars[name]
        except KeyError:
            raise ECodeRuntimeError(f"undefined variable {name!r}") from None

    def set(self, name: str, value: Any) -> None:
        self.vars[name] = value


class Interpreter:
    def __init__(self, program: ast.Program, params: Sequence[str]) -> None:
        self.program = program
        self.params = tuple(params)

    def run(self, *args: Any) -> Any:
        if len(args) != len(self.params):
            raise ECodeRuntimeError(
                f"expected {len(self.params)} argument(s), got {len(args)}"
            )
        env = _Env(dict(zip(self.params, args)))
        try:
            for stmt in self.program.body:
                self.exec_stmt(stmt, env)
        except _ReturnSignal as signal:
            return signal.value
        return None

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def exec_stmt(self, stmt: ast.Stmt, env: _Env) -> None:
        if isinstance(stmt, ast.Declaration):
            for decl in stmt.declarators:
                if decl.array_size is not None:
                    default = default_for_type(stmt.type_name)
                    env.set(decl.name, [default] * decl.array_size)
                elif decl.init is not None:
                    env.set(decl.name, copy_value(self.eval_expr(decl.init, env)))
                else:
                    env.set(decl.name, default_for_type(stmt.type_name))
        elif isinstance(stmt, ast.ExprStmt):
            self._exec_expr_stmt(stmt.expr, env)
        elif isinstance(stmt, ast.Block):
            for child in stmt.statements:
                self.exec_stmt(child, env)
        elif isinstance(stmt, ast.If):
            if self.eval_expr(stmt.condition, env):
                self.exec_stmt(stmt.then_branch, env)
            elif stmt.else_branch is not None:
                self.exec_stmt(stmt.else_branch, env)
        elif isinstance(stmt, ast.While):
            while self.eval_expr(stmt.condition, env):
                try:
                    self.exec_stmt(stmt.body, env)
                except _ContinueSignal:
                    continue
                except _BreakSignal:
                    break
        elif isinstance(stmt, ast.DoWhile):
            while True:
                try:
                    self.exec_stmt(stmt.body, env)
                except _ContinueSignal:
                    pass
                except _BreakSignal:
                    break
                if not self.eval_expr(stmt.condition, env):
                    break
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.Switch):
            self._exec_switch(stmt, env)
        elif isinstance(stmt, ast.Return):
            value = self.eval_expr(stmt.value, env) if stmt.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        else:  # pragma: no cover
            raise ECodeRuntimeError(f"cannot execute {stmt!r}")

    def _exec_for(self, stmt: ast.For, env: _Env) -> None:
        if isinstance(stmt.init, ast.Declaration):
            self.exec_stmt(stmt.init, env)
        elif isinstance(stmt.init, list):
            for expr in stmt.init:
                self._exec_expr_stmt(expr, env)
        while stmt.condition is None or self.eval_expr(stmt.condition, env):
            try:
                self.exec_stmt(stmt.body, env)
            except _ContinueSignal:
                pass
            except _BreakSignal:
                break
            for update in stmt.update:
                self._exec_expr_stmt(update, env)

    def _exec_switch(self, stmt: ast.Switch, env: _Env) -> None:
        value = self.eval_expr(stmt.subject, env)
        chosen: "ast.Case | None" = None
        default: "ast.Case | None" = None
        for case in stmt.cases:
            if case.is_default:
                default = case
                continue
            if any(value == self.eval_expr(label, env) for label in case.labels):
                chosen = case
                break
        case = chosen if chosen is not None else default
        if case is None:
            return
        body, _terminated = ast.strip_case_terminator(case.body)
        for child in body:
            self.exec_stmt(child, env)

    def _exec_expr_stmt(self, expr: ast.Expr, env: _Env) -> None:
        if isinstance(expr, ast.Assignment):
            self._exec_assignment(expr, env)
        elif isinstance(expr, ast.IncDec):
            store, load = self._resolve_lvalue(expr.target, env)
            delta = 1 if expr.op == "++" else -1
            store(load() + delta)
        else:
            self.eval_expr(expr, env)

    def _exec_assignment(self, expr: ast.Assignment, env: _Env) -> None:
        # flatten plain '=' chains: a = b = 0 assigns right-to-left
        chain: List[ast.Expr] = [expr.target]
        value_expr = expr.value
        while isinstance(value_expr, ast.Assignment):
            chain.append(value_expr.target)
            value_expr = value_expr.value
        rhs = self.eval_expr(value_expr, env)
        if expr.op == "=":
            for target in reversed(chain):
                store, _load = self._resolve_lvalue(target, env)
                store(copy_value(rhs))  # assignment is by value, per target
            return
        store, load = self._resolve_lvalue(expr.target, env)
        arith = expr.op[:-1]
        store(copy_value(_binary(arith, load(), rhs)))

    def _resolve_lvalue(
        self, expr: ast.Expr, env: _Env
    ) -> Tuple[Callable[[Any], None], Callable[[], Any]]:
        """Resolve an lvalue into (store, load) callbacks."""
        if isinstance(expr, ast.Identifier):
            name = expr.name
            return (lambda v: env.set(name, v)), (lambda: env.get(name))
        if isinstance(expr, ast.FieldAccess):
            base = self.eval_expr(expr.base, env)
            name = expr.name
            return (
                lambda v: _setitem(base, name, v),
                lambda: _getitem(base, name),
            )
        if isinstance(expr, ast.IndexAccess):
            base = self.eval_expr(expr.base, env)
            index = self.eval_expr(expr.index, env)
            return (
                lambda v: _setitem(base, index, v),
                lambda: _getitem(base, index),
            )
        raise ECodeRuntimeError(f"not an lvalue: {expr!r}")

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def eval_expr(self, expr: ast.Expr, env: _Env) -> Any:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, (ast.StringLiteral, ast.CharLiteral)):
            return expr.value
        if isinstance(expr, ast.Identifier):
            return env.get(expr.name)
        if isinstance(expr, ast.FieldAccess):
            return _getitem(self.eval_expr(expr.base, env), expr.name)
        if isinstance(expr, ast.IndexAccess):
            return _getitem(
                self.eval_expr(expr.base, env), self.eval_expr(expr.index, env)
            )
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval_expr(expr.operand, env)
            try:
                if expr.op == "-":
                    return -operand
                if expr.op == "+":
                    return +operand
                if expr.op == "!":
                    return 0 if operand else 1
                if expr.op == "~":
                    return ~operand
            except TypeError as exc:
                raise ECodeRuntimeError(
                    f"bad operand for unary {expr.op!r}: {exc}"
                ) from None
            raise ECodeRuntimeError(f"unknown unary {expr.op!r}")  # pragma: no cover
        if isinstance(expr, ast.BinaryOp):
            if expr.op == "&&":
                return 1 if (self.eval_expr(expr.left, env) and self.eval_expr(expr.right, env)) else 0
            if expr.op == "||":
                return 1 if (self.eval_expr(expr.left, env) or self.eval_expr(expr.right, env)) else 0
            return _binary(
                expr.op, self.eval_expr(expr.left, env), self.eval_expr(expr.right, env)
            )
        if isinstance(expr, ast.TernaryOp):
            if self.eval_expr(expr.condition, env):
                return self.eval_expr(expr.if_true, env)
            return self.eval_expr(expr.if_false, env)
        if isinstance(expr, ast.Call):
            fn = BUILTINS[expr.name]
            args = [self.eval_expr(arg, env) for arg in expr.args]
            try:
                return fn(*args)
            except ECodeRuntimeError:
                raise
            except Exception as exc:
                raise ECodeRuntimeError(f"{expr.name}() failed: {exc!r}") from exc
        if isinstance(expr, ast.SizeOf):
            return sizeof(expr.type_name)
        raise ECodeRuntimeError(f"cannot evaluate {expr!r}")  # pragma: no cover


def _binary(op: str, left: Any, right: Any) -> Any:
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return c_div(left, right)
        if op == "%":
            return c_mod(left, right)
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
    except ECodeRuntimeError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        # ValueError covers negative shift counts; the compiled path wraps
        # these in ECodeRuntimeError too, so both arms must agree.
        raise ECodeRuntimeError(f"bad operands for {op!r}: {exc}") from None
    raise ECodeRuntimeError(f"unknown operator {op!r}")  # pragma: no cover


def _getitem(base: Any, key: Any) -> Any:
    try:
        return base[key]
    except (KeyError, IndexError, TypeError) as exc:
        raise ECodeRuntimeError(f"cannot read {key!r}: {exc!r}") from None


def _setitem(base: Any, key: Any, value: Any) -> None:
    try:
        base[key] = value
    except (KeyError, IndexError, TypeError) as exc:
        raise ECodeRuntimeError(f"cannot write {key!r}: {exc!r}") from None


def interpret_procedure(
    source: str, params: Sequence[str] = ("new", "old"), name: str = "transform"
) -> "InterpretedProcedure":
    """Parse and check *source*, returning an interpreted callable with the
    same calling convention as
    :func:`repro.ecode.codegen.compile_procedure`."""
    program = checked_program(source, tuple(params))
    return InterpretedProcedure(name, params, source, program)


class InterpretedProcedure:
    """AST-interpreting counterpart of
    :class:`~repro.ecode.codegen.ECodeProcedure`."""

    __slots__ = ("name", "params", "source", "program", "_interp")

    def __init__(
        self, name: str, params: Sequence[str], source: str, program: ast.Program
    ) -> None:
        self.name = name
        self.params = tuple(params)
        self.source = source
        self.program = program
        self._interp = Interpreter(program, params)

    def __call__(self, *args: Any) -> Any:
        return self._interp.run(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InterpretedProcedure({self.name!r}, params={self.params})"
