"""ECode abstract syntax tree.

Plain dataclass nodes shared by the semantic checker, the Python code
generator and the tree-walking interpreter.  Every node carries the
source line for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


class Node:
    """Base class for all AST nodes."""

    line: int


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    pass


@dataclass
class IntLiteral(Expr):
    value: int
    line: int = 0


@dataclass
class FloatLiteral(Expr):
    value: float
    line: int = 0


@dataclass
class StringLiteral(Expr):
    value: str
    line: int = 0


@dataclass
class CharLiteral(Expr):
    value: str
    line: int = 0


@dataclass
class Identifier(Expr):
    name: str
    line: int = 0


@dataclass
class FieldAccess(Expr):
    """``base.name`` (``base->name`` is normalized to this)."""

    base: Expr
    name: str
    line: int = 0


@dataclass
class IndexAccess(Expr):
    base: Expr
    index: Expr
    line: int = 0


@dataclass
class UnaryOp(Expr):
    """Prefix ``op operand`` for op in ``- ! ~ +``."""

    op: str
    operand: Expr
    line: int = 0


@dataclass
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr
    line: int = 0


@dataclass
class TernaryOp(Expr):
    condition: Expr
    if_true: Expr
    if_false: Expr
    line: int = 0


@dataclass
class Call(Expr):
    name: str
    args: List[Expr] = field(default_factory=list)
    line: int = 0


@dataclass
class Assignment(Expr):
    """``target op value`` for op in ``= += -= *= /= %= &= |= ^= <<= >>=``.

    Assignments parse as expressions (C semantics) but the semantic
    checker restricts them to statement positions and for-clauses."""

    target: Expr
    op: str
    value: Expr
    line: int = 0


@dataclass
class IncDec(Expr):
    """``target++ / target-- / ++target / --target``; statement-position
    only, like :class:`Assignment`."""

    target: Expr
    op: str  # "++" or "--"
    prefix: bool = False
    line: int = 0


@dataclass
class SizeOf(Expr):
    """``sizeof(type-name)`` — resolved to the C size of the named type."""

    type_name: str
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    pass


@dataclass
class Declarator:
    """One ``name [= init]`` or ``name[N]`` inside a declaration.

    ``array_size`` is the constant element count of a local array
    declarator (``int tmp[8];``); local arrays take the element type's
    zero default and cannot combine with an initializer."""

    name: str
    init: Optional[Expr] = None
    array_size: Optional[int] = None
    line: int = 0


@dataclass
class Declaration(Stmt):
    """``int i, count = 0;`` — uninitialized scalars default to the type's
    zero value (ECode guarantees deterministic locals)."""

    type_name: str
    declarators: List[Declarator] = field(default_factory=list)
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr
    line: int = 0


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)
    line: int = 0


@dataclass
class If(Stmt):
    condition: Expr
    then_branch: Stmt
    else_branch: Optional[Stmt] = None
    line: int = 0


@dataclass
class While(Stmt):
    condition: Expr
    body: Stmt
    line: int = 0


@dataclass
class DoWhile(Stmt):
    body: Stmt
    condition: Expr
    line: int = 0


@dataclass
class For(Stmt):
    """``for (init; cond; update) body``; *init* may be a declaration or a
    comma-list of expressions, *update* a comma-list of expressions."""

    init: Optional[Union[Stmt, List[Expr]]]
    condition: Optional[Expr]
    update: List[Expr]
    body: Stmt
    line: int = 0


@dataclass
class Case:
    """One arm of a switch: shared labels, a body, or the default arm.

    ECode restricts switch to the no-fallthrough subset: every non-empty
    body ends with ``break`` or ``return`` (the trailing break is
    consumed by the translation).  Multiple labels may share one body
    (``case 1: case 2: ...``)."""

    labels: List[Expr] = field(default_factory=list)  # empty -> default
    body: List["Stmt"] = field(default_factory=list)
    is_default: bool = False
    line: int = 0


@dataclass
class Switch(Stmt):
    subject: Expr = None  # type: ignore[assignment]
    cases: List[Case] = field(default_factory=list)
    line: int = 0


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None
    line: int = 0


@dataclass
class Break(Stmt):
    line: int = 0


@dataclass
class Continue(Stmt):
    line: int = 0


@dataclass
class Program(Node):
    """A full ECode procedure body: a statement sequence."""

    body: List[Stmt] = field(default_factory=list)
    line: int = 0


def strip_case_terminator(body: List[Stmt]) -> "Tuple[List[Stmt], bool]":
    """Normalize a switch-case body for the no-fallthrough translation.

    Returns ``(body_without_trailing_break, properly_terminated)``.  A
    body is properly terminated when it is empty, ends with ``break`` or
    ``return``, or ends with a block that is itself properly terminated
    (``case 1: { ...; break; }``).
    """
    if not body:
        return body, True
    last = body[-1]
    if isinstance(last, Break):
        return body[:-1], True
    if isinstance(last, Return):
        return list(body), True
    if isinstance(last, Block):
        inner, ok = strip_case_terminator(last.statements)
        if ok:
            return list(body[:-1]) + [Block(statements=inner, line=last.line)], True
    return list(body), False


def stray_breaks(body: List[Stmt]) -> List[Break]:
    """``break`` statements in *body* that would bind to the switch
    itself (i.e. not to a nested loop or nested switch).  The ECode
    subset only supports the single terminating break, so these are
    check-time errors."""
    found: List[Break] = []
    for stmt in body:
        if isinstance(stmt, Break):
            found.append(stmt)
        elif isinstance(stmt, Block):
            found.extend(stray_breaks(stmt.statements))
        elif isinstance(stmt, If):
            found.extend(stray_breaks([stmt.then_branch]))
            if stmt.else_branch is not None:
                found.extend(stray_breaks([stmt.else_branch]))
        # loops and nested switches own their breaks: do not descend
    return found


def walk(node: Node):
    """Yield *node* and all of its descendants (pre-order)."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def _children(node: Node) -> Tuple[Node, ...]:
    out: List[Node] = []
    for value in vars(node).values():
        if isinstance(value, Node):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, Node))
        elif isinstance(value, Declarator):
            if value.init is not None:
                out.append(value.init)
    if isinstance(node, (Declaration,)):
        for decl in node.declarators:
            if decl.init is not None:
                out.append(decl.init)
    if isinstance(node, Switch):
        for case in node.cases:
            out.extend(case.labels)
            out.extend(case.body)
    return tuple(out)
