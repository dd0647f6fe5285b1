"""Static analyses over ECode ASTs, used by whole-route fusion.

The morph layer's route compiler (:mod:`repro.morph.fusion`) inlines
transform bodies into one generated function.  Before it can do that it
needs three facts about each program, all derivable from the AST the
compiler keeps on every :class:`~repro.ecode.codegen.ECodeProcedure`
(:func:`writes_param` is the receiver's: may readers share an input?):

* :func:`has_return` — a transform with an explicit ``return`` cannot be
  spliced into a larger function body,
* :func:`fields_used` — which top-level fields of a record parameter the
  program touches (drives dead-field decode elimination),
* :func:`prune_dead_stores` — a conservative dead-store eliminator that
  removes assignments to output fields the *next* consumer of the record
  never reads (the Figure 5 transform's ``src_list``/``sink_list``
  rebuild is pure waste when the next hop is the v1.0 → v0.0 drop).

The typed back-end (:mod:`repro.ecode.codegen`) asks two more:
:func:`stores`, every store the program makes, with where it sits, and
:func:`append_runs`, which output arrays the program fills densely — each
element written by one run of stores, in index order — so that each can
be built as one record literal and appended.

Pruning is equivalence-preserving only for statements whose evaluation
cannot raise.  The pruner therefore refuses anything containing calls,
nested assignments, C division/modulo (which trap on zero), or accesses
not rooted at a known record parameter with a statically known field.
Index reads rooted at the *input* parameter are permitted: fused routes
only ever see records produced by the bounds-checked wire decoder (or by
the preceding inlined step), where variable-array lengths match their
count fields by construction.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any, Callable, Collection, Dict, Iterable, Iterator, List, NamedTuple,
    Optional, Set, Tuple,
)

from repro.ecode import ast
from repro.ecode.runtime import default_for_type


def has_return(program: ast.Program) -> bool:
    """True when the program contains an explicit ``return`` anywhere."""
    return any(isinstance(node, ast.Return) for node in ast.walk(program))


def declared_names(program: ast.Program) -> Set[str]:
    """Every local name introduced by a declaration in *program*."""
    names: Set[str] = set()
    for node in ast.walk(program):
        if isinstance(node, ast.Declaration):
            names.update(decl.name for decl in node.declarators)
    return names


def fields_used(program: ast.Program, param: str) -> Optional[Set[str]]:
    """Top-level fields of record parameter *param* the program touches
    (reads or writes), or ``None`` when *param* escapes field-access-base
    position (aliasing, passing to a call, ...) and every field must be
    treated as live."""
    if param in declared_names(program):
        return None  # shadowed: occurrences are not the parameter
    base_ids: Set[int] = set()
    names: Set[str] = set()
    for node in ast.walk(program):
        if (
            isinstance(node, ast.FieldAccess)
            and isinstance(node.base, ast.Identifier)
            and node.base.name == param
        ):
            base_ids.add(id(node.base))
            names.add(node.name)
    total = sum(
        1
        for node in ast.walk(program)
        if isinstance(node, ast.Identifier) and node.name == param
    )
    if total != len(base_ids):
        return None
    return names


def writes_param(program: Optional[ast.Program], param: str) -> bool:
    """Whether running *program* may change the record passed as
    *param*: true for any assignment, ``++`` or ``--`` rooted at it and,
    conservatively, without an AST or when *param* is shadowed or leaves
    field-access-base position (what :func:`fields_used` cannot account
    for).  False: the record is only read, and readers may share it."""
    if program is None or fields_used(program, param) is None:
        return True
    return any(
        isinstance(node, (ast.Assignment, ast.IncDec))
        and _access_root(node.target)[0] == param
        for node in ast.walk(program)
    )


# ---------------------------------------------------------------------------
# Dead-store elimination
# ---------------------------------------------------------------------------


def _access_root(expr: ast.Expr) -> Tuple[Optional[str], Optional[str]]:
    """For a FieldAccess/IndexAccess chain, ``(root identifier name,
    top-level field name)``; ``(None, None)`` when the chain does not
    bottom out in a plain identifier."""
    top: Optional[str] = None
    node = expr
    while True:
        if isinstance(node, ast.FieldAccess):
            top = node.name
            node = node.base
        elif isinstance(node, ast.IndexAccess):
            node = node.base
        elif isinstance(node, ast.Identifier):
            return node.name, top
        else:
            return None, None


class _Pruner:
    def __init__(
        self,
        output_param: str,
        live: Set[str],
        input_param: str,
        input_fields: Set[str],
        output_fields: Set[str],
    ) -> None:
        self.output_param = output_param
        self.live = live
        self.input_param = input_param
        self.input_fields = input_fields
        self.output_fields = output_fields

    # -- purity --------------------------------------------------------

    def pure(self, expr: Optional[ast.Expr]) -> bool:
        """Can evaluating *expr* be skipped without observable effect?
        (No side effects and, as far as statically checkable, no raise.)"""
        if expr is None:
            return True
        if isinstance(
            expr,
            (ast.IntLiteral, ast.FloatLiteral, ast.StringLiteral,
             ast.CharLiteral, ast.Identifier, ast.SizeOf),
        ):
            return True
        if isinstance(expr, ast.UnaryOp):
            return self.pure(expr.operand)
        if isinstance(expr, ast.BinaryOp):
            if expr.op in ("/", "%"):
                return False  # c_div/c_mod raise on a zero divisor
            return self.pure(expr.left) and self.pure(expr.right)
        if isinstance(expr, ast.TernaryOp):
            return (
                self.pure(expr.condition)
                and self.pure(expr.if_true)
                and self.pure(expr.if_false)
            )
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess)):
            return self._pure_access(expr)
        # Call, Assignment, IncDec: effects (or unknown)
        return False

    def _pure_access(self, expr: ast.Expr) -> bool:
        root, top = _access_root(expr)
        if root == self.input_param:
            if top not in self.input_fields:
                return False  # would KeyError in the staged path
        elif root == self.output_param:
            if top not in self.output_fields:
                return False
        else:
            return False  # field/index access on a scalar local: TypeError
        # index expressions along the chain must themselves be pure
        node = expr
        while isinstance(node, (ast.FieldAccess, ast.IndexAccess)):
            if isinstance(node, ast.IndexAccess) and not self.pure(node.index):
                return False
            node = node.base
        return True

    # -- statement rewriting -------------------------------------------

    def _dead_target(self, target: ast.Expr) -> bool:
        """Is *target* a store into a dead field of the output record?"""
        root, top = _access_root(target)
        if root != self.output_param or top is None:
            return False
        if top in self.live or top not in self.output_fields:
            return False
        return self._pure_access(target)

    def prune_stmt(self, stmt: ast.Stmt) -> Optional[ast.Stmt]:
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if isinstance(expr, ast.Assignment):
                if (
                    not isinstance(expr.value, (ast.Assignment, ast.IncDec))
                    and self._dead_target(expr.target)
                    and self.pure(expr.value)
                ):
                    return None
            elif isinstance(expr, ast.IncDec) and self._dead_target(expr.target):
                return None
            return stmt
        if isinstance(stmt, ast.Block):
            statements = self.prune_body(stmt.statements)
            return ast.Block(statements=statements, line=stmt.line)
        if isinstance(stmt, ast.If):
            then_branch = self.prune_stmt(stmt.then_branch) or ast.Block([])
            else_branch = (
                self.prune_stmt(stmt.else_branch)
                if stmt.else_branch is not None
                else None
            )
            if (
                _is_empty(then_branch)
                and (else_branch is None or _is_empty(else_branch))
                and self.pure(stmt.condition)
            ):
                return None
            return ast.If(
                condition=stmt.condition,
                then_branch=then_branch,
                else_branch=else_branch,
                line=stmt.line,
            )
        if isinstance(stmt, ast.While):
            return ast.While(
                condition=stmt.condition,
                body=self.prune_stmt(stmt.body) or ast.Block([]),
                line=stmt.line,
            )
        if isinstance(stmt, ast.DoWhile):
            return ast.DoWhile(
                body=self.prune_stmt(stmt.body) or ast.Block([]),
                condition=stmt.condition,
                line=stmt.line,
            )
        if isinstance(stmt, ast.For):
            return ast.For(
                init=stmt.init,
                condition=stmt.condition,
                update=stmt.update,
                body=self.prune_stmt(stmt.body) or ast.Block([]),
                line=stmt.line,
            )
        if isinstance(stmt, ast.Switch):
            cases = [
                ast.Case(
                    labels=case.labels,
                    body=self.prune_body(case.body),
                    is_default=case.is_default,
                    line=case.line,
                )
                for case in stmt.cases
            ]
            return ast.Switch(subject=stmt.subject, cases=cases, line=stmt.line)
        return stmt

    def prune_body(self, body: Iterable[ast.Stmt]) -> List[ast.Stmt]:
        out: List[ast.Stmt] = []
        for stmt in body:
            pruned = self.prune_stmt(stmt)
            if pruned is not None:
                out.append(pruned)
        return out


def _is_empty(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, ast.Block) and not stmt.statements


def _local_reads(body: List[ast.Stmt], params: Set[str]) -> Set[str]:
    """Names read at least once (a plain-assignment or inc/dec *target*
    position is a write, not a read)."""
    reads: Set[str] = set()
    writes_only_roots: Set[int] = set()
    for stmt in _iter_stmts(body):
        expr = stmt.expr if isinstance(stmt, ast.ExprStmt) else None
        if isinstance(expr, ast.Assignment) and expr.op == "=":
            if isinstance(expr.target, ast.Identifier):
                writes_only_roots.add(id(expr.target))
        elif isinstance(expr, ast.IncDec):
            if isinstance(expr.target, ast.Identifier):
                writes_only_roots.add(id(expr.target))
    for stmt in _iter_stmts(body):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Identifier) and node.name not in params:
                if id(node) not in writes_only_roots:
                    reads.add(node.name)
    return reads


def _iter_stmts(body: List[ast.Stmt]):
    for stmt in body:
        yield stmt
        for node in ast.walk(stmt):
            if isinstance(node, ast.Stmt) and node is not stmt:
                yield node


def _sweep_locals(
    body: List[ast.Stmt],
    params: Set[str],
    pure: Callable[[Optional[ast.Expr]], bool],
) -> Tuple[List[ast.Stmt], bool]:
    """One pass of write-only-local elimination; returns (body, changed).

    *pure* is the field-aware purity predicate of the :class:`_Pruner`
    that ran first, so conditionals left empty by the field pass (their
    record-access conditions are readable but their bodies only fed dead
    stores) disappear here too."""
    reads = _local_reads(body, params)
    changed = False

    def keep(stmt: ast.Stmt) -> Optional[ast.Stmt]:
        nonlocal changed
        if isinstance(stmt, ast.ExprStmt):
            expr = stmt.expr
            if (
                isinstance(expr, ast.Assignment)
                and expr.op == "="
                and isinstance(expr.target, ast.Identifier)
                and expr.target.name not in params
                and expr.target.name not in reads
                and not isinstance(expr.value, (ast.Assignment, ast.IncDec))
                and pure(expr.value)
            ):
                changed = True
                return None
            if (
                isinstance(expr, ast.IncDec)
                and isinstance(expr.target, ast.Identifier)
                and expr.target.name not in params
                and expr.target.name not in reads
            ):
                changed = True
                return None
            return stmt
        if isinstance(stmt, ast.Declaration):
            declarators = [
                decl
                for decl in stmt.declarators
                if decl.name in reads
                or decl.name in params
                or (decl.init is not None and not pure(decl.init))
            ]
            if len(declarators) != len(stmt.declarators):
                changed = True
                if not declarators:
                    return None
            return ast.Declaration(
                type_name=stmt.type_name, declarators=declarators, line=stmt.line
            )
        if isinstance(stmt, ast.Block):
            return ast.Block(statements=_sweep_list(stmt.statements), line=stmt.line)
        if isinstance(stmt, ast.If):
            then_branch = keep(stmt.then_branch) or ast.Block([])
            else_branch = (
                keep(stmt.else_branch) if stmt.else_branch is not None else None
            )
            if (
                _is_empty(then_branch)
                and (else_branch is None or _is_empty(else_branch))
                and pure(stmt.condition)
            ):
                changed = True
                return None
            return ast.If(stmt.condition, then_branch, else_branch, line=stmt.line)
        if isinstance(stmt, ast.While):
            return ast.While(stmt.condition, keep(stmt.body) or ast.Block([]),
                             line=stmt.line)
        if isinstance(stmt, ast.DoWhile):
            return ast.DoWhile(keep(stmt.body) or ast.Block([]), stmt.condition,
                               line=stmt.line)
        if isinstance(stmt, ast.For):
            return ast.For(stmt.init, stmt.condition, stmt.update,
                           keep(stmt.body) or ast.Block([]), line=stmt.line)
        return stmt

    def _sweep_list(statements: List[ast.Stmt]) -> List[ast.Stmt]:
        out = []
        for child in statements:
            kept = keep(child)
            if kept is not None:
                out.append(kept)
        return out

    return _sweep_list(body), changed


def prune_dead_stores(
    program: ast.Program,
    output_param: str,
    live: Set[str],
    input_param: str,
    input_fields: Set[str],
    output_fields: Set[str],
) -> ast.Program:
    """A copy of *program* without stores into fields of *output_param*
    outside *live*, when removal is provably unobservable (see the module
    docstring for the exact refusal rules).  Locals that become
    write-only afterwards are swept as well, to a fixpoint, so counters
    feeding only dead stores (Figure 5's ``src_count``) disappear too."""
    pruner = _Pruner(output_param, set(live), input_param,
                     set(input_fields), set(output_fields))
    body = pruner.prune_body(program.body)
    params = {input_param, output_param}
    for _ in range(32):  # fixpoint; bound is paranoia, bodies are small
        body, changed = _sweep_locals(body, params, pruner.pure)
        if not changed:
            break
    return ast.Program(body=body, line=program.line)


# ---------------------------------------------------------------------------
# Stores and dense output arrays
# ---------------------------------------------------------------------------

#: an output array, ``(record parameter, array field)``: ``old.rows`` is
#: ``("old", "rows")``
Array = Tuple[str, str]

#: the loops around a statement, innermost last
Loops = Tuple[ast.Stmt, ...]

_ONE = ast.IntLiteral(1)


class Store(NamedTuple):
    """One store of a program."""

    #: the assigned expression, or the :class:`ast.Declarator` of a
    #: declaration
    target: Any
    #: the value that lands there — ``x op= e`` stores ``x op e``,
    #: ``x++`` / ``x--`` store ``x + 1`` / ``x - 1``, a declaration
    #: without initialiser its type's blank — or ``None`` for a local
    #: array
    value: Optional[ast.Expr]
    #: the statement whose own expressions hold the store
    owner: ast.Stmt
    #: ``"init"`` / ``"update"`` in a ``for`` loop's clauses, else ``None``
    clause: Optional[str]
    #: the loops around *owner* (a ``for`` clause's own loop is not one)
    loops: Loops


def _statement_lists(
    body: List[ast.Stmt], loops: Loops = (), own: bool = False
) -> Iterator[Tuple[List[ast.Stmt], Loops, bool]]:
    """Every statement list at or under *body*, pre-order, with the loops
    around it and whether it is the innermost loop's own body.  A branch
    or loop body that is a single statement counts as a list of one."""
    yield body, loops, own
    for stmt in body:
        if isinstance(stmt, ast.Block):
            yield from _statement_lists(stmt.statements, loops)
        elif isinstance(stmt, ast.If):
            yield from _statement_lists(_statements(stmt.then_branch), loops)
            if stmt.else_branch is not None:
                yield from _statement_lists(_statements(stmt.else_branch), loops)
        elif isinstance(stmt, (ast.While, ast.DoWhile, ast.For)):
            yield from _statement_lists(
                _statements(stmt.body), loops + (stmt,), True
            )
        elif isinstance(stmt, ast.Switch):
            for case in stmt.cases:
                yield from _statement_lists(case.body, loops)


def stores(body: List[ast.Stmt]) -> Iterator[Store]:
    """Every store at or under statements *body*.  Assignments and
    ``++``/``--`` only occur in statement position and ``for`` clauses
    (the checker sees to it), so statements are all this has to walk."""
    for stmts, loops, _own in _statement_lists(body):
        for stmt in stmts:
            if isinstance(stmt, ast.ExprStmt):
                yield from _assigned(stmt.expr, stmt, None, loops)
            elif isinstance(stmt, ast.Declaration):
                yield from _declared(stmt, stmt, None, loops)
            elif isinstance(stmt, ast.For):
                if isinstance(stmt.init, ast.Declaration):
                    yield from _declared(stmt.init, stmt, "init", loops)
                elif isinstance(stmt.init, list):
                    for expr in stmt.init:
                        yield from _assigned(expr, stmt, "init", loops)
                for expr in stmt.update:
                    yield from _assigned(expr, stmt, "update", loops)


def flatten_chain(expr: ast.Assignment) -> Tuple[List[ast.Expr], ast.Expr]:
    """``a = b = 0`` as ``([a, b], 0)``."""
    targets = [expr.target]
    value = expr.value
    while isinstance(value, ast.Assignment):
        targets.append(value.target)
        value = value.value
    return targets, value


def _assigned(
    expr: ast.Expr, owner: ast.Stmt, clause: Optional[str], loops: Loops
) -> Iterator[Store]:
    if isinstance(expr, ast.IncDec):
        op = "+" if expr.op == "++" else "-"
        yield Store(
            expr.target, ast.BinaryOp(op, expr.target, _ONE), owner, clause,
            loops,
        )
    elif isinstance(expr, ast.Assignment):
        targets, value = flatten_chain(expr)
        if expr.op != "=":
            value = ast.BinaryOp(expr.op[:-1], expr.target, value)
        for target in targets:
            yield Store(target, value, owner, clause, loops)


def _declared(
    stmt: ast.Declaration, owner: ast.Stmt, clause: Optional[str], loops: Loops
) -> Iterator[Store]:
    default = default_for_type(stmt.type_name)
    blank = (
        ast.IntLiteral(default) if default.__class__ is int
        else ast.FloatLiteral(default) if default.__class__ is float
        else ast.StringLiteral(default)
    )
    for decl in stmt.declarators:
        value = (
            None if decl.array_size is not None
            else decl.init if decl.init is not None else blank
        )
        yield Store(decl, value, owner, clause, loops)


def append_runs(
    program: ast.Program,
    arrays: Collection[Array],
    program_stores: Iterable[Store],
) -> Dict[Array, List[ast.ExprStmt]]:
    """The arrays of *arrays* that *program*, whose stores are
    *program_stores* (:func:`stores` of its body), fills densely, each
    with the one run of statements that writes its elements.

    *arrays* are record arrays the host hands over empty.  One is filled
    densely when all of these hold:

    * the program mentions it only in statements ``A[k].f = v;``, and
      those form one run of consecutive statements of one statement
      list, each writing a different field (nothing else reads, indexes
      or assigns ``A``, and its parameter is neither assigned, shadowed
      nor mentioned but as the base of field accesses);
    * ``k`` is a dense cursor at the run (:func:`_dense_cursor`): it
      counts the elements the run has built so far, whenever the run
      starts.

    Then each execution of the run writes the element just past the end
    of ``A``, which no earlier statement touched: building it whole and
    appending it is what growing ``A`` by one and storing into the new
    element does."""
    arrays = set(arrays)
    writes: Dict[str, List[Store]] = {}
    for store in program_stores:
        if isinstance(store.target, (ast.Identifier, ast.Declarator)):
            writes.setdefault(store.target.name, []).append(store)
    # how often each ``param.field`` occurs, and each name other than as
    # the base of one (a parameter passed whole)
    mentions: Counter = Counter()
    loose: Counter = Counter()
    for node in ast.walk(program):
        if isinstance(node, ast.Identifier):
            loose[node.name] += 1
        elif isinstance(node, ast.FieldAccess) and isinstance(
            node.base, ast.Identifier
        ):
            mentions[node.base.name, node.name] += 1
            loose[node.base.name] -= 1
    dense: Dict[Array, List[ast.ExprStmt]] = {}
    for body, loops, own in _statement_lists(program.body):
        start = 0
        while start < len(body):
            store = _element_store(body[start], arrays)
            end = start + 1
            if store is not None:
                while end < len(body) and _element_store(body[end], arrays) == store:
                    end += 1
                array, cursor = store
                run = body[start:end]
                fields = {stmt.expr.target.name for stmt in run}
                if (
                    array[0] not in writes
                    and not loose[array[0]]
                    and mentions[array] == len(run) == len(fields)
                    and _dense_cursor(
                        writes.get(cursor, []), cursor, program, body,
                        start, end, loops, own,
                    )
                ):
                    dense[array] = run
            start = end
    return dense


def _statements(stmt: ast.Stmt) -> List[ast.Stmt]:
    return stmt.statements if isinstance(stmt, ast.Block) else [stmt]


def _element_store(
    stmt: ast.Stmt, arrays: Set[Array]
) -> Optional[Tuple[Array, str]]:
    """``(A, k)`` of a statement ``A[k].f = v;`` into one of *arrays*
    (*v* not itself an assignment, *k* a plain variable), else ``None``."""
    if not isinstance(stmt, ast.ExprStmt):
        return None
    expr = stmt.expr
    if not (
        isinstance(expr, ast.Assignment)
        and expr.op == "="
        and not isinstance(expr.value, ast.Assignment)
        and isinstance(expr.target, ast.FieldAccess)
        and isinstance(expr.target.base, ast.IndexAccess)
    ):
        return None
    element = expr.target.base
    array = element.base
    if not (
        isinstance(element.index, ast.Identifier)
        and isinstance(array, ast.FieldAccess)
        and isinstance(array.base, ast.Identifier)
        and (array.base.name, array.name) in arrays
    ):
        return None
    return (array.base.name, array.name), element.index.name


def _dense_cursor(
    writes: List[Store],
    k: str,
    program: ast.Program,
    body: List[ast.Stmt],
    start: int,
    end: int,
    loops: Loops,
    own: bool,
) -> bool:
    """Does local *k*, stored to by *writes*, equal the number of times
    the run ``body[start:end]`` has run, each time it starts?  Proven of
    two kinds of cursor:

    * the variable of a ``for (k = 0; …; k++)`` loop whose own body holds
      the run, that is not nested in another loop and does not write
      *k* in its body, and that has no ``continue`` ahead of the run —
      every iteration runs the run once or leaves the loop;
    * a local whose only writes are stores of 0, each a statement at the
      top of the program, and one ``k++`` after the run in its statement
      list with no ``break`` or ``continue`` between them — nothing runs
      the run without moving *k* on.  (A top-level statement runs once:
      a store of 0 after the run's own top-level statement can no longer
      meet the run, and the checker declares *k* ahead of its uses.)"""
    if own and len(loops) == 1 and isinstance(loops[0], ast.For):
        loop = loops[0]
        clauses = [
            (write.clause, write.value) for write in writes if write.owner is loop
        ]
        if (
            len(clauses) == 2
            and clauses[0][0] == "init" and _zero(clauses[0][1])
            and clauses[1][0] == "update" and _bump(clauses[1][1], k)
            and not any(loop in write.loops for write in writes)
            and not _holds(body[:start], (ast.Continue,))
        ):
            return True
    top = {id(stmt) for stmt in program.body}
    zeros = [
        write for write in writes
        if isinstance(write.owner, (ast.Declaration, ast.ExprStmt))
        and id(write.owner) in top
        and _zero(write.value)
    ]
    bumps = [
        write.owner for write in writes
        if isinstance(write.owner, ast.ExprStmt) and _bump(write.value, k)
    ]
    if not (zeros and len(bumps) == 1 and len(writes) == len(zeros) + 1):
        return False
    after = body[end:]
    bump = next(
        (index for index, stmt in enumerate(after) if stmt is bumps[0]), None
    )
    return bump is not None and not _holds(after[:bump], (ast.Break, ast.Continue))


def _zero(value: Any) -> bool:
    return (
        isinstance(value, ast.IntLiteral)
        and value.value.__class__ is int and value.value == 0
    )


def _bump(value: Any, k: str) -> bool:
    """Is *value* ``k + 1``?"""
    return (
        isinstance(value, ast.BinaryOp)
        and value.op == "+"
        and isinstance(value.left, ast.Identifier) and value.left.name == k
        and isinstance(value.right, ast.IntLiteral) and value.right.value == 1
    )


def _holds(stmts: Iterable[ast.Stmt], kinds: Tuple[type, ...]) -> bool:
    """Does any statement at or under *stmts* have one of *kinds*?"""
    return any(
        isinstance(node, kinds) for stmt in stmts for node in ast.walk(stmt)
    )
