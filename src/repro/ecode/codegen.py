"""ECode → Python dynamic code generation.

The Python analogue of the paper's dynamic *binary* code generation: the
transformation snippet is translated into Python source specialized for
its parameter names — and, where the host knows them, for the *shapes*
of its record parameters — compiled with :func:`compile`, and the
resulting function object cached by the morph layer.  The generated
source is available via :func:`generate_source` for inspection and
testing.

Translation notes (C semantics preserved):

* ``a / b`` and ``a % b`` route through :func:`repro.ecode.runtime.c_div`
  / ``c_mod`` (truncation toward zero, dividend-signed remainder),
* ``&&`` / ``||`` / ``!`` yield ``0``/``1`` like C, still short-circuit,
* field access compiles to dict subscripts (``rec['name']``) so record
  fields can never collide with Python attribute names,
* assignment is by value: a store whose right-hand side is not provably
  scalar goes through :func:`repro.ecode.runtime.copy_value`,
* ``continue`` inside a ``for`` loop first executes the loop's update
  expressions (C jumps to the update clause; a naive ``continue`` in the
  Python ``while`` translation would skip it).

What shapes buy (each a property of the emitted code; a path they do not
cover is translated exactly as without them):

* **access-path reuse** — a record- or array-typed path rooted at a
  parameter (``new.member_list[i]``) is loaded into a local the first
  time a straight-line region needs it and reused until a variable in
  one of its indices is assigned or a store could have replaced a
  container; a depth-1 container field the program never assigns as a
  whole (``old.src_list``) is loaded once, ahead of the body,
* **direct scalar stores** — ``X.f = v`` with ``X`` a typed record and
  ``v`` statically scalar becomes ``dict.__setitem__(X, 'f', v)``, which
  is what ``Record.__setitem__`` does once its class test has passed,
* **inline growth** — loading an element of an array the host says
  grows (:class:`Grows`: a transform's output array) reads it with
  ``list.__getitem__`` and, past the end, appends new elements built in
  place (``dict.__new__`` + ``dict.update`` of a literal prototype):
  the growth :class:`~repro.ecode.runtime.AutoList` would run, without
  entering a Python frame,
* **append form** — where the host says such an array starts empty and
  the program fills it densely (:func:`repro.ecode.analyze.append_runs`:
  one run of stores ``A[k].f = v; A[k].g = w;`` at a cursor ``k`` that
  counts the run's executions), the run builds each element whole —
  ``dict.__new__``, one ``dict.update`` of the prototype literal with the
  written values in place, and ``A.append`` bound once ahead of the
  body — with no growth loop and no read-back.
"""

from __future__ import annotations

import math
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.ecode import analyze, ast
from repro.ecode.runtime import (
    BUILTINS,
    c_div,
    c_mod,
    copy_value,
    default_for_type,
    sizeof,
)
from repro.ecode.typecheck import checked_program
from repro.errors import ECodeRuntimeError, ECodeTypeError

#: What a host may know, when it compiles a procedure, about the value a
#: parameter will hold: ``SCALAR`` for an immutable leaf, ``{field:
#: shape}`` for a record, ``[element shape]`` for an array, ``None``
#: where it knows nothing.  :mod:`repro.morph.transform` derives these
#: from a transform's source and target formats.
SCALAR = "scalar"
Shape = Union[str, Dict[str, Any], List[Any], None]


class Grows(list):
    """The shape of an array that grows when an index past its end is
    read, as a transform's output arrays do
    (:class:`~repro.ecode.runtime.AutoList`): ``[element shape]``, plus
    *prototype*, the scalars a new element holds — a record of the class
    of the record the array is a field of — and *empty*, whether the host
    hands the array over with no element (a fixed-length array arrives
    holding its elements).  The typed back-end grows it inline where it
    can prove the array is the one the host built (a field of a
    parameter the program never assigns whole) and every prototype value
    is a literal, and builds whole elements to append where the array
    also starts *empty* and is filled densely; anywhere else it reads as
    ``[element shape]`` and the array grows itself."""

    __slots__ = ("prototype", "empty")

    def __init__(
        self, element: Shape, prototype: Mapping[str, Any], empty: bool
    ) -> None:
        super().__init__([element])
        self.prototype = dict(prototype)
        self.empty = empty


#: The Python exceptions a faulty program (or a record that does not fit
#: it) can raise out of generated code; every host of generated code maps
#: exactly these to its ECode error.
ECODE_ESCAPES = (
    KeyError, IndexError, TypeError, AttributeError, ValueError, OverflowError,
)

#: the scalar types whose ``repr`` is a literal of the same value (a
#: float's only when it is finite)
_LITERAL_TYPES = frozenset((int, float, str, bool, bytes))

_NO_VARS: FrozenSet[str] = frozenset()
_ONE = ast.IntLiteral(1)
_ALWAYS_SCALAR_OPS = frozenset(("==", "!=", "<", ">", "<=", ">=", "&&", "||"))


def runtime_namespace() -> Dict[str, Any]:
    """The globals generated code runs against."""
    namespace: Dict[str, Any] = {
        "_cdiv": c_div,
        "_cmod": c_mod,
        "_cp": copy_value,
        "_set": dict.__setitem__,
        "_lget": list.__getitem__,
        "_upd": dict.update,
        "_new": dict.__new__,
    }
    for fn_name, fn in BUILTINS.items():
        namespace[f"_fn_{fn_name}"] = fn
    return namespace


def _index_vars(expr: ast.Expr) -> Optional[FrozenSet[str]]:
    """The variables an array index reads when it reads nothing else
    (integer literals and arithmetic over variables): the element it
    selects can then only change when one of them is assigned.  ``None``
    for any other index."""
    if isinstance(expr, ast.IntLiteral):
        return _NO_VARS
    if isinstance(expr, ast.Identifier):
        return frozenset((expr.name,))
    if isinstance(expr, ast.UnaryOp):
        return _index_vars(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        left, right = _index_vars(expr.left), _index_vars(expr.right)
        return None if left is None or right is None else left | right
    return None


def _literal(value: Any) -> bool:
    """Is ``repr(value)`` a Python literal of *value*?"""
    cls = value.__class__
    return cls in _LITERAL_TYPES and (cls is not float or math.isfinite(value))


def _arith(op: str, left: str, right: str) -> str:
    if op == "/":
        return f"_cdiv({left}, {right})"
    if op == "%":
        return f"_cmod({left}, {right})"
    return f"({left} {op} {right})"


class _PyEmitter:
    def __init__(self, indent: int, reserved: Set[str]) -> None:
        self.lines: List[str] = []
        self.indent = indent
        self._counter = 0
        #: the program's own names; a generated local avoids them
        self._reserved = reserved

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def fresh(self, prefix: str) -> str:
        while True:
            self._counter += 1
            name = f"_{prefix}{self._counter}"
            if name not in self._reserved:
                return name


class _CodeGenerator:
    def __init__(
        self,
        program: ast.Program,
        rename: Optional[Dict[str, str]] = None,
        shapes: Optional[Mapping[str, Shape]] = None,
        indent: int = 1,
        params: Sequence[str] = (),
    ) -> None:
        self.program = program
        #: identifier substitution applied to every name the program
        #: mentions (parameters *and* locals) — the route fuser maps
        #: ``new``/``old`` to its own record variables and prefixes locals
        #: so consecutive inlined steps cannot collide.
        self.rename = rename or {}
        #: stack of per-loop "before continue" emitters: a for-loop re-runs
        #: its update clause, a do-while re-tests its condition, a while
        #: loop needs nothing.
        self.loop_continue_hooks: List[Callable[[], None]] = []

        # whole-program facts, from one walk over the statements
        stores = list(analyze.stores(program.body))
        local_writes = [
            (store.target.name, store.value)
            for store in stores
            if isinstance(store.target, (ast.Identifier, ast.Declarator))
        ]
        assigned = {name for name, _value in local_writes}
        self.em = _PyEmitter(
            indent,
            {self._name(name) for name in assigned}
            | set(self.rename.values()) | set(params),
        )
        #: parameters whose shape holds throughout: one the program
        #: assigns (or redeclares) may come to hold anything
        self.shapes: Dict[str, Shape] = {
            param: shape
            for param, shape in (shapes or {}).items()
            if param not in assigned
        }
        #: locals only ever assigned scalars, to a fixpoint (``j = i + 1``
        #: is scalar while ``i`` is)
        self.scalar_locals: Set[str] = {
            store.target.name
            for store in stores
            if isinstance(store.target, ast.Declarator)
        }
        while True:
            demoted = {
                name
                for name, value in local_writes
                if name in self.scalar_locals
                and (value is None or not self._scalar(value))
            }
            if not demoted:
                break
            self.scalar_locals -= demoted
        #: ``(parameter, field)`` the program assigns as a whole: such a
        #: field may come to hold another container mid-run
        self.replaced: Set[Tuple[str, str]] = {
            (store.target.base.name, store.target.name)
            for store in stores
            if isinstance(store.target, ast.FieldAccess)
            and isinstance(store.target.base, ast.Identifier)
        }
        #: the first statement of each run that fills an array densely
        #: (by ``id``) -> ``(the array's path, its shape, the run)``; the
        #: run's other statements -> ``None``: :meth:`_gen_append` emits
        #: the whole run at its first statement
        self.appends: Dict[int, Optional[Tuple[ast.Expr, Grows, list]]] = {}
        self._find_appends(program, stores)

        #: Python text of a container-typed path -> (the local that holds
        #: it, the variables its indices read); valid for the straight-
        #: line region being emitted
        self.paths: Dict[str, Tuple[str, FrozenSet[str]]] = {}
        #: depth-1 container fields never assigned as a whole -> the
        #: local ``self.entry`` loads once, ahead of the body
        self.pinned: Dict[str, str] = {}
        #: a prototype literal, or a parameter for its class -> the local
        #: ``self.entry`` binds it to, once
        self.constants: Dict[str, str] = {}
        self.entry: List[str] = []
        self._entry_indent = "    " * indent
        #: > 0 while emitting an expression that is not evaluated exactly
        #: once where its statement starts; nothing is bound from there
        self._conditional = 0

    def _name(self, name: str) -> str:
        return self.rename.get(name, name)

    def _find_appends(
        self, program: ast.Program, stores: List[analyze.Store]
    ) -> None:
        """Fill :attr:`appends`: the arrays that may grow inline and start
        empty, where the program fills them densely with stores that
        compile to ``_set`` — scalars into fields of the prototype."""
        arrays = {
            (param, name): field
            for param, shape in self.shapes.items()
            if isinstance(shape, dict)
            for name, field in shape.items()
            if self._grows_inline(param, name, field) and field.empty
        }
        for array, run in analyze.append_runs(program, arrays, stores).items():
            shape = arrays[array]
            if all(
                stmt.expr.target.name in shape.prototype
                and self._scalar(stmt.expr.value)
                for stmt in run
            ):
                path = run[0].expr.target.base.base
                self.appends[id(run[0])] = (path, shape, run)
                for stmt in run[1:]:
                    self.appends[id(stmt)] = None

    def generate(self) -> List[str]:
        for stmt in self.program.body:
            self.gen_stmt(stmt)
        return self.entry + self.em.lines

    # ------------------------------------------------------------------
    # Static facts about expressions
    # ------------------------------------------------------------------

    def _shape_of(self, expr: ast.Expr) -> Shape:
        if isinstance(expr, ast.Identifier):
            return self.shapes.get(expr.name)
        if isinstance(expr, ast.FieldAccess):
            base = self._shape_of(expr.base)
            return base.get(expr.name) if isinstance(base, dict) else None
        if isinstance(expr, ast.IndexAccess):
            base = self._shape_of(expr.base)
            return base[0] if isinstance(base, list) else None
        return None

    def _scalar(self, expr: ast.Expr) -> bool:
        """Is the value of *expr* provably neither a record nor an array?"""
        if isinstance(
            expr,
            (ast.IntLiteral, ast.FloatLiteral, ast.StringLiteral,
             ast.CharLiteral, ast.SizeOf),
        ):
            return True
        if isinstance(expr, ast.Identifier):
            return expr.name in self.scalar_locals
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
            return self._shape_of(expr) == SCALAR
        if isinstance(expr, ast.UnaryOp):
            return expr.op == "!" or self._scalar(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            # int * list is a list: arithmetic is scalar over scalars only
            return expr.op in _ALWAYS_SCALAR_OPS or (
                self._scalar(expr.left) and self._scalar(expr.right)
            )
        if isinstance(expr, ast.TernaryOp):
            return self._scalar(expr.if_true) and self._scalar(expr.if_false)
        if isinstance(expr, ast.Call):
            # min/max/strcat hand an argument back: scalar over scalars only
            return all(self._scalar(arg) for arg in expr.args)
        return False

    # ------------------------------------------------------------------
    # Bound access paths
    # ------------------------------------------------------------------

    def _gen_path(
        self, expr: ast.Expr
    ) -> Tuple[str, Shape, Optional[FrozenSet[str]]]:
        """Python text, static shape and index variables (``None``: not
        only variables) of an access path.  A container-typed path comes
        back as the local bound to it."""
        if isinstance(expr, ast.Identifier):
            return self._name(expr.name), self.shapes.get(expr.name), _NO_VARS
        if isinstance(expr, ast.FieldAccess):
            base, shape, deps = self._gen_path(expr.base)
            text = f"{base}[{expr.name!r}]"
            shape = shape.get(expr.name) if isinstance(shape, dict) else None
            growth = None
        elif isinstance(expr, ast.IndexAccess):
            base, shape, deps = self._gen_path(expr.base)
            index = self.gen_expr(expr.index)
            text = f"{base}[{index}]"
            growth = self._growth(expr, shape, base, index)
            shape = shape[0] if isinstance(shape, list) else None
            index_vars = _index_vars(expr.index)
            deps = (
                None if deps is None or index_vars is None
                else deps | index_vars
            )
        else:
            return self.gen_expr(expr), None, None
        if isinstance(shape, (dict, list)):
            text = self._bind(expr, text, deps, growth)
        return text, shape, deps

    def _growth(
        self, expr: ast.IndexAccess, shape: Shape, container: str, index: str
    ) -> Optional[Tuple[str, ...]]:
        """``(container, index, class, prototype)`` — the last two the
        locals holding a new element's class and prototype, bound ahead
        of the body — when the element *expr* loads may be grown inline
        (see :class:`Grows`), else ``None``: the container then grows
        itself."""
        array = expr.base
        if not (
            not self._conditional
            and isinstance(array, ast.FieldAccess)
            and isinstance(array.base, ast.Identifier)
            and self._grows_inline(array.base.name, array.name, shape)
        ):
            return None
        literal = ", ".join(
            f"{name!r}: {value!r}" for name, value in shape.prototype.items()
        )
        return (
            container,
            index,
            self._constant(f"{self._name(array.base.name)}.__class__"),
            self._constant(f"{{{literal}}}"),
        )

    def _grows_inline(self, param: str, name: str, shape: Shape) -> bool:
        """Is array ``param.name``, of *shape*, one the typed code may grow
        itself: a :class:`Grows` array of flat records the program never
        assigns whole, whose prototype values are all literals?"""
        return (
            isinstance(shape, Grows)
            and isinstance(shape[0], dict)
            and (param, name) not in self.replaced
            and all(_literal(value) for value in shape.prototype.values())
        )

    def _constant(self, text: str) -> str:
        """A local bound to *text* once, ahead of the body."""
        local = self.constants.get(text)
        if local is None:
            local = self.constants[text] = self.em.fresh("g")
            self.entry.append(f"{self._entry_indent}{local} = {text}")
        return local

    def _bind(
        self,
        expr: ast.Expr,
        text: str,
        deps: Optional[FrozenSet[str]],
        growth: Optional[Tuple[str, ...]] = None,
    ) -> str:
        """The local holding container-typed path *text*, loading it here
        (or ahead of the body) on first use — growing its array first,
        given a *growth* — and *text* itself where the path cannot be
        held."""
        local = self.pinned.get(text)
        if local is not None:
            return local
        if text in self.paths:
            return self.paths[text][0]
        if (
            isinstance(expr, ast.FieldAccess)
            and isinstance(expr.base, ast.Identifier)
            and (expr.base.name, expr.name) not in self.replaced
        ):
            local = self.pinned[text] = self.em.fresh("p")
            self.entry.append(f"{self._entry_indent}{local} = {text}")
            return local
        if self._conditional or deps is None and growth is None:
            return text
        local = self.em.fresh("p")
        if growth is None:
            self.em.emit(f"{local} = {text}")
        else:
            self._grow(local, *growth)
        if deps is not None:
            self.paths[text] = (local, deps)
        return local

    def _grow(
        self, local: str, array: str, index: str, cls: str, prototype: str
    ) -> None:
        """``local = array[index]``, appending *cls* records filled from
        *prototype* while *index* is past the end: ``AutoList`` growth,
        in C calls only."""
        if not (index.isidentifier() or index.isdigit()):
            temp = self.em.fresh("t")
            self.em.emit(f"{temp} = {index}")
            index = temp
        self.em.emit(f"while len({array}) <= {index}:")
        self.em.indent += 1
        self.em.emit(f"{local} = _new({cls})")
        self.em.emit(f"_upd({local}, {prototype})")
        self.em.emit(f"{array}.append({local})")
        self.em.indent -= 1
        self.em.emit(f"{local} = _lget({array}, {index})")

    def _invalidate(self, target: Any) -> None:
        """Forget every bound path a store into *target* may leave stale:
        those indexed by an assigned variable; all of them when the store
        can replace a container, which is any store but one into a scalar
        (or undeclared) slot of a typed record or array.  Assignment
        copies, so nothing else reaches a container a path runs through."""
        if isinstance(target, (ast.Identifier, ast.Declarator)):
            name = target.name
            if any(name in deps for _local, deps in self.paths.values()):
                self.paths = {
                    text: bound
                    for text, bound in self.paths.items()
                    if name not in bound[1]
                }
            return
        base = self._shape_of(target.base)
        if isinstance(target, ast.FieldAccess) and isinstance(base, dict):
            slot = base.get(target.name)
        elif isinstance(target, ast.IndexAccess) and isinstance(base, list):
            slot = base[0]
        else:
            slot = {}  # untyped: anything may sit there
        if isinstance(slot, (dict, list)):
            self.paths = {}

    def _branch(self, emit_body: Callable[[], None]) -> Dict[str, Any]:
        """Emit a conditionally executed region; returns the bound paths
        as it leaves them and restores the ones it was entered with."""
        before = self.paths
        self.paths = dict(before)
        emit_body()
        after, self.paths = self.paths, before
        return after

    def _join(self, arms: List[Dict[str, Any]]) -> None:
        """After a fork, only what every arm left alone is still bound."""
        self.paths = {
            text: bound
            for text, bound in self.paths.items()
            if all(arm.get(text) == bound for arm in arms)
        }

    def _gen_conditional(self, expr: ast.Expr) -> str:
        """Text of an expression evaluated zero or many times per run of
        its statement (a loop test, an arm of ``?:``, the right of ``&&``
        / ``||``): a load hoisted ahead of the statement would run when
        the program's would not, so held paths are reused and the rest
        is walked in place."""
        self._conditional += 1
        try:
            return self.gen_expr(expr)
        finally:
            self._conditional -= 1

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        if id(stmt) in self.appends:
            append = self.appends[id(stmt)]
            if append is not None:
                self._gen_append(*append)
        elif isinstance(stmt, ast.Declaration):
            for decl in stmt.declarators:
                if decl.array_size is not None:
                    element = repr(default_for_type(stmt.type_name))
                    self._gen_store(decl, f"[{element}] * {decl.array_size}", True)
                elif decl.init is not None:
                    self._gen_assign([decl], decl.init)
                else:
                    self._gen_store(
                        decl, repr(default_for_type(stmt.type_name)), True
                    )
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_statement_expr(stmt.expr)
        elif isinstance(stmt, ast.Block):
            if not stmt.statements:
                self.em.emit("pass")
            for child in stmt.statements:
                self.gen_stmt(child)
        elif isinstance(stmt, ast.If):
            self.em.emit(f"if {self.gen_expr(stmt.condition)}:")
            arms = [self._branch(lambda: self._indented(stmt.then_branch))]
            if stmt.else_branch is not None:
                self.em.emit("else:")
                arms.append(self._branch(lambda: self._indented(stmt.else_branch)))
            self._join(arms)
        elif isinstance(stmt, ast.While):
            self._gen_loop(stmt, stmt.condition, lambda: None)
        elif isinstance(stmt, ast.DoWhile):

            def emit_test() -> None:
                self.em.emit(f"if not ({self.gen_expr(stmt.condition)}):")
                self.em.indent += 1
                self.em.emit("break")
                self.em.indent -= 1

            self._gen_loop(stmt, None, emit_test)
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.init, ast.Declaration):
                self.gen_stmt(stmt.init)
            elif isinstance(stmt.init, list):
                for expr in stmt.init:
                    self._gen_statement_expr(expr)

            def emit_updates() -> None:
                for update in stmt.update:
                    self._gen_statement_expr(update)

            self._gen_loop(stmt, stmt.condition, emit_updates)
        elif isinstance(stmt, ast.Switch):
            self._gen_switch(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.em.emit(f"return {self.gen_expr(stmt.value)}")
            else:
                self.em.emit("return None")
        elif isinstance(stmt, ast.Break):
            self.em.emit("break")
        elif isinstance(stmt, ast.Continue):
            # C continue jumps to the update clause (for) / the condition
            # test (do-while) of the enclosing loop before re-entering it.
            self.loop_continue_hooks[-1]()
            self.em.emit("continue")
        else:  # pragma: no cover
            raise ECodeTypeError(f"cannot generate code for {stmt!r}")

    def _indented(self, stmt: ast.Stmt) -> None:
        self.em.indent += 1
        start = len(self.em.lines)
        self.gen_stmt(stmt)
        if len(self.em.lines) == start:
            self.em.emit("pass")
        self.em.indent -= 1

    def _gen_loop(
        self,
        stmt: Any,
        condition: Optional[ast.Expr],
        tail: Callable[[], None],
    ) -> None:
        """``while condition:`` the body, then *tail* — the for-loop's
        update clause or the do-while's test, which a ``continue`` runs
        first as well."""
        # an iteration arrives at the head from the code above and from
        # its own end: only what no store in the loop can leave stale is
        # bound there, and that is also what is bound on the way out
        for store in analyze.stores([stmt]):
            self._invalidate(store.target)
        head = self.paths
        self.paths = dict(head)
        test = "True" if condition is None else self._gen_conditional(condition)
        self.loop_continue_hooks.append(tail)
        self.em.emit(f"while {test}:")
        self.em.indent += 1
        start = len(self.em.lines)
        self.gen_stmt(stmt.body)
        tail()
        if len(self.em.lines) == start:
            self.em.emit("pass")
        self.em.indent -= 1
        self.loop_continue_hooks.pop()
        self.paths = head

    def _gen_switch(self, stmt: ast.Switch) -> None:
        """No-fallthrough switch compiles to an if/elif chain; the checker
        guarantees each body's trailing break, which the translation
        consumes."""
        subject = self.em.fresh("sw")
        self.em.emit(f"{subject} = {self.gen_expr(stmt.subject)}")
        labeled = [case for case in stmt.cases if not case.is_default]
        default = next((case for case in stmt.cases if case.is_default), None)
        keyword = "if"
        arms = []
        for case in labeled:
            condition = " or ".join(
                f"{subject} == {self.gen_expr(label)}" for label in case.labels
            )
            self.em.emit(f"{keyword} {condition}:")
            arms.append(self._branch(lambda: self._gen_case_body(case)))
            keyword = "elif"
        if default is not None:
            if keyword == "if":  # a switch of only 'default:'
                self._gen_case_body(default, header=None)
            else:
                self.em.emit("else:")
                arms.append(self._branch(lambda: self._gen_case_body(default)))
        self._join(arms)

    def _gen_case_body(self, case: ast.Case, header: str = "indent") -> None:
        body, _terminated = ast.strip_case_terminator(case.body)
        if header is None:
            for child in body:
                self.gen_stmt(child)
            return
        self.em.indent += 1
        if not body:
            self.em.emit("pass")
        for child in body:
            self.gen_stmt(child)
        self.em.indent -= 1

    def _gen_append(
        self, path: ast.Expr, shape: Grows, run: List[ast.ExprStmt]
    ) -> None:
        """The run of stores *run* into a new element of the array at
        *path*, as one element built whole and appended: the prototype
        literal with the written values in place.  The values are
        evaluated in program order — in the literal when the run writes
        the fields in the prototype's order, else into locals first."""
        values = {
            stmt.expr.target.name: self.gen_expr(stmt.expr.value) for stmt in run
        }
        if [name for name in shape.prototype if name in values] != list(values):
            for name, text in values.items():
                values[name] = self.em.fresh("t")
                self.em.emit(f"{values[name]} = {text}")
        append = self._constant(f"{self._gen_path(path)[0]}.append")
        cls = self._constant(f"{self._name(path.base.name)}.__class__")
        literal = ", ".join(
            f"{name!r}: {values[name] if name in values else repr(value)}"
            for name, value in shape.prototype.items()
        )
        element = self.em.fresh("e")
        self.em.emit(f"{element} = _new({cls})")
        self.em.emit(f"_upd({element}, {{{literal}}})")
        self.em.emit(f"{append}({element})")

    def _gen_statement_expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Assignment):
            if expr.op == "=":
                self._gen_assign(*analyze.flatten_chain(expr))
            else:
                self._gen_update(expr.target, expr.op[:-1], expr.value)
        elif isinstance(expr, ast.IncDec):
            self._gen_update(expr.target, "+" if expr.op == "++" else "-", _ONE)
        else:
            self.em.emit(f"{self.gen_expr(expr)}")

    def _gen_assign(self, targets: List[Any], value: ast.Expr) -> None:
        """``a = b = value``: every target gets its own copy."""
        scalar = self._scalar(value)
        text = self.gen_expr(value)
        if len(targets) > 1 and not text.isidentifier():
            temp = self.em.fresh("t")
            self.em.emit(f"{temp} = {text}")
            text = temp
        for target in targets:
            self._gen_store(target, text, scalar)

    def _gen_store(self, target: Any, value: str, scalar: bool) -> None:
        """One store of Python expression *value*, which the program's
        types prove scalar or not."""
        if (
            scalar
            and isinstance(target, ast.FieldAccess)
            and isinstance(self._shape_of(target.base), dict)
        ):
            base = self._gen_path(target.base)[0]
            self.em.emit(f"_set({base}, {target.name!r}, {value})")
        else:
            stored = value if scalar else f"_cp({value})"
            self.em.emit(f"{self._gen_place(target)} = {stored}")
        self._invalidate(target)

    def _gen_place(self, target: Any) -> str:
        """Python text naming the slot *target* (not the value in it)."""
        if isinstance(target, (ast.Identifier, ast.Declarator)):
            return self._name(target.name)
        base = self._gen_path(target.base)[0]
        if isinstance(target, ast.FieldAccess):
            return f"{base}[{target.name!r}]"
        return f"{base}[{self.gen_expr(target.index)}]"

    def _gen_update(self, target: ast.Expr, op: str, value: ast.Expr) -> None:
        """``target op= value`` (``++``/``--`` included)."""
        rhs = self.gen_expr(value)
        place = self._gen_place(target)
        if not (self._scalar(target) and self._scalar(value)):
            self.em.emit(f"{place} = _cp({_arith(op, place, rhs)})")
        elif op in ("/", "%"):
            self.em.emit(f"{place} = {_arith(op, place, rhs)}")
        else:
            self.em.emit(f"{place} {op}= {rhs}")
        self._invalidate(target)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def gen_expr(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.IntLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.CharLiteral):
            return repr(expr.value)
        if isinstance(expr, ast.Identifier):
            return self._name(expr.name)
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
            return self._gen_path(expr)[0]
        if isinstance(expr, ast.UnaryOp):
            operand = self.gen_expr(expr.operand)
            if expr.op == "!":
                return f"(0 if {operand} else 1)"
            if expr.op == "+":
                return f"(+{operand})"
            return f"({expr.op}{operand})"
        if isinstance(expr, ast.BinaryOp):
            left = self.gen_expr(expr.left)
            if expr.op == "&&":
                return f"(1 if ({left} and {self._gen_conditional(expr.right)}) else 0)"
            if expr.op == "||":
                return f"(1 if ({left} or {self._gen_conditional(expr.right)}) else 0)"
            return _arith(expr.op, left, self.gen_expr(expr.right))
        if isinstance(expr, ast.TernaryOp):
            condition = self.gen_expr(expr.condition)
            return (
                f"({self._gen_conditional(expr.if_true)} if {condition} "
                f"else {self._gen_conditional(expr.if_false)})"
            )
        if isinstance(expr, ast.Call):
            args = ", ".join(self.gen_expr(arg) for arg in expr.args)
            return f"_fn_{expr.name}({args})"
        if isinstance(expr, ast.SizeOf):
            return repr(sizeof(expr.type_name))
        raise ECodeTypeError(  # pragma: no cover - checker rejects these first
            f"cannot generate expression {expr!r}"
        )


def generate_source(
    program: ast.Program,
    params: Sequence[str],
    name: str = "_ecode_proc",
    shapes: Optional[Mapping[str, Shape]] = None,
) -> str:
    """Translate a checked ECode program into Python function source.

    *shapes* maps parameter names to what the host knows of the records
    they will hold (see :data:`Shape`); the translation is correct for
    any record that fits them, and for any record at all without them."""
    gen = _CodeGenerator(program, shapes=shapes, params=params)
    body = gen.generate() or ["    pass"]
    header = f"def {name}({', '.join(params)}):"
    return "\n".join([header] + body) + "\n"


def generate_inline(
    program: ast.Program,
    rename: Optional[Dict[str, str]] = None,
    indent: int = 1,
    shapes: Optional[Mapping[str, Shape]] = None,
) -> List[str]:
    """Translate a checked program into indented statement lines suitable
    for splicing into a larger generated function (whole-route fusion).

    *rename* substitutes identifiers wholesale — parameters to the
    caller's record variables, locals to collision-free prefixed names;
    *shapes* is keyed by the program's own parameter names, as for
    :func:`generate_source`.  The caller is responsible for ensuring the
    program has no ``return``
    (see :func:`repro.ecode.analyze.has_return`)."""
    lines = _CodeGenerator(program, rename, shapes, indent).generate()
    return lines or ["    " * indent + "pass"]


def compile_procedure(
    source: str,
    params: Sequence[str] = ("new", "old"),
    name: str = "transform",
    shapes: Optional[Mapping[str, Shape]] = None,
) -> "ECodeProcedure":
    """Parse, check, translate and compile an ECode procedure.

    Returns an :class:`ECodeProcedure` whose call signature matches
    *params* (default ``(new, old)`` — the paper's transform convention:
    read the incoming ``new`` record, populate the ``old`` one).  A host
    that knows its parameters' formats passes their *shapes* (see
    :func:`generate_source`).
    """
    from repro.obs import OBS

    if not OBS.enabled:
        return _compile_procedure(source, params, name, shapes)
    with OBS.tracer.span("ecode.codegen", procedure=name):
        start = time.perf_counter()
        procedure = _compile_procedure(source, params, name, shapes)
        elapsed = time.perf_counter() - start
    OBS.metrics.counter("ecode.codegen.compiles").inc()
    OBS.metrics.histogram("ecode.codegen.seconds").observe(elapsed)
    return procedure


def _compile_procedure(
    source: str,
    params: Sequence[str],
    name: str,
    shapes: Optional[Mapping[str, Shape]],
) -> "ECodeProcedure":
    program = checked_program(source, tuple(params))
    # caller-supplied names may be arbitrary labels (channel ids, format
    # names); mangle to a valid identifier for the generated def
    mangled = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    py_source = generate_source(program, params, f"_ecode_{mangled}", shapes)
    namespace = runtime_namespace()
    code = compile(py_source, f"<ecode:{name}>", "exec")
    exec(code, namespace)
    return ECodeProcedure(
        name=name,
        params=tuple(params),
        source=source,
        program=program,
        python_source=py_source,
        function=namespace[f"_ecode_{mangled}"],
    )


class ECodeProcedure:
    """A compiled ECode routine.

    Callable with exactly the declared parameters; keeps the original
    ECode source, the parsed AST (shared with every other procedure built
    from the same text — read it, do not mutate it) and the generated
    Python source for inspection (tests audit the translation through
    these)."""

    __slots__ = ("name", "params", "source", "program", "python_source", "_function")

    def __init__(
        self,
        name: str,
        params: Sequence[str],
        source: str,
        program: ast.Program,
        python_source: str,
        function: Callable[..., Any],
    ) -> None:
        self.name = name
        self.params = tuple(params)
        self.source = source
        self.program = program
        self.python_source = python_source
        self._function = function

    def __call__(self, *args: Any) -> Any:
        if len(args) != len(self.params):
            raise ECodeRuntimeError(
                f"{self.name} expects {len(self.params)} argument(s) "
                f"{self.params}, got {len(args)}"
            )
        try:
            return self._function(*args)
        except ECodeRuntimeError:
            raise
        except ECODE_ESCAPES as exc:
            raise ECodeRuntimeError(
                f"ECode procedure {self.name!r} failed: {exc!r}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ECodeProcedure({self.name!r}, params={self.params})"
