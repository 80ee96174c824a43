"""Contract object model lowered from compiler AST JSON.

Lowering is flow-insensitive and field-insensitive: every statement becomes
one record with def/use sets of variable references, member and index access
collapse onto the base variable, and a control statement becomes one record
of its condition reads, kept apart from the statements it guards. That
granularity is exactly what the data-flow graph needs; nothing finer is kept.

One walker per AST layer: `_lower_statement` for statements (control
statements from one table) and `_analyze_expression` for expressions,
lvalues included, which folds every sub-expression into one accumulator per
statement; its access argument says whether a variable access is read,
written, or both (an update). The walkers recurse once per nesting level, so
an AST nested deeper than the interpreter's recursion limit allows is
refused with MalformedAst, as is a name that is not a string.

Lowering reads the AST only, never the source text. Inline assembly goes
through the expression walker by way of its Yul AST, the `AST` field solc
emits from 0.6.0 on:
  * a Yul identifier resolves like a Solidity one, cut at its first dot
    (`x.slot`, `x.offset` and `x.length` are x's); since no Yul local may
    shadow a visible name, Yul locals resolve to nothing;
  * `callvalue()` reads msg.value and `caller()` msg.sender;
  * `sstore(x.slot, v)` writes x, and a Yul assignment its targets;
  * `call`, `callcode`, `create` and `create2` mark a transfer unless their
    value argument is the literal 0;
  * every other argument is read, and no called Yul name is resolved.
Any other kind the walker does not know, InlineAssembly itself included,
reads its object and list children, so assembly with no Yul AST (before
0.6.0 it has only an `operations` string) reads nothing. An unknown
statement, an assembly block included, is one OPAQUE statement, or
VALUE_TRANSFER when it moves value.

Resolution rules:
  * a name resolves during the one statement walk against a stack of
    scopes, innermost first: block locals, then the function's parameters
    and return parameters, then state. From Solidity 0.5.0 on, each block
    and control statement opens a scope, and a local is visible from the
    end of its declaration to the end of its scope (a `for` initializer's
    local lives in its loop, a try clause's parameters in their clause).
    Before 0.5.0 blocks open no scope; a use before the declaration, which
    that compiler hoisted, stays unbound. The compiler version picks the
    rule, else the pragma, else 0.5.0's;
  * state variables and called functions resolve through the contract's C3
    linearization (Solidity's order, most-derived first, so the rightmost
    base wins), restricted to contracts declared in the same unit; within
    one contract the first declaration of a name wins;
  * events resolve along the linearization too, but the most-derived
    contract declaring a name contributes every declaration of it, since
    events overload. `emit E(...)`, and a bare `E(...)` (the form before
    Solidity 0.4.21) when E names a visible event and no visible function,
    adds those declarations to the function's `emits`; an emission is no
    call site;
  * the only builtin references modeled are msg.sender and msg.value; other
    environment reads (msg.data, tx.origin, block.*) carry no taint and are
    dropped;
  * identifiers that resolve to nothing are dropped.

Lowering is the one place where a name is bound. Each function has one
table, `FunctionModel.decls`: one entry per declaration its statements
reference, made on first reference, with scope, name, node path and span.
A state entry is the declaring contract's own `VariableDecl`, path `(owner,
name)`. A builtin's path is `(contract, function, name)`, as is that of the
first local or parameter of a name to be referenced; later ones end in
`name#2`, `name#3`, ..., which no identifier can spell. Statements and call
sites refer to entries by index, as tuples of ints, which the garbage
collector does not track. Each call site records the contract declaring its
target, and each contract its linearization, so later layers resolve
nothing.

Calls are kept as call sites with per-call argument read sets, at most one
per call. Names with a leading "." are member calls on some object
(inherently external from this unit's point of view); plain names, `this.f`
included, resolve like state variables, to the declaring contract in the
unit, recorded as the site's `owner`. Value and gas
options (`h{value: v}`, legacy `h.value(v)` and `h.gas(g)`) belong to the
site of the h they decorate. Well-known builtin callables (require, assert,
keccak256, ...), type conversions (to a contract or enum type of the unit)
and struct constructors produce no call site at all, though their argument
reads are kept; a struct or enum is visible at file level or along the
linearization.

A modifier is lowered at each invocation, into the table of the function
it wraps: each argument is read in the function's scope and bound to its
parameter by a synthetic assignment, then the body is walked with a scope
stack of its own (parameters and locals, all as locals, then state) and
inlined around the function body at the placeholder statement, so guard
reads like `msg.sender == owner` surface in the function. Its declarations
are entries of their own: binding `atLeast(v)`'s parameter `v` to the
function's `v` leaves the function's the plain path and gives the
modifier's `v#2`. The events a modifier emits join the function's `emits`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Container, Mapping

from .errors import MalformedAst
from .ingest import SourceUnit, source_entry, version_tuple


class Scope(str, Enum):
    STATE = "state"
    LOCAL = "local"
    PARAM = "param"
    BUILTIN = "builtin"


class Kind(str, Enum):
    ASSIGN = "assign"
    DECLARE = "declare"
    CALL = "call"
    VALUE_TRANSFER = "value_transfer"
    BRANCH = "branch"
    LOOP = "loop"
    RETURN = "return"
    EMIT = "emit"
    OPAQUE = "opaque"


BUILTIN_NAMES = ("msg.sender", "msg.value")

CTOR_NAME = "@ctor"
FALLBACK_NAME = "@fallback"
RECEIVE_NAME = "@receive"

# Callable builtins and type-conversion heads that never resolve to a
# contract function; argument reads are kept but no call site is recorded.
_BUILTIN_CALLS = frozenset(
    {
        "require",
        "assert",
        "revert",
        "keccak256",
        "sha256",
        "sha3",
        "ripemd160",
        "ecrecover",
        "addmod",
        "mulmod",
        "selfdestruct",
        "suicide",
        "blockhash",
        "gasleft",
        "payable",
        "address",
        "type",
    }
)

# Environment namespaces whose member reads carry no taint and resolve to
# no declaration.
_ENV_NAMESPACES = frozenset({"msg", "tx", "block", "abi", "this", "super"})

@dataclass(frozen=True, slots=True)
class CallSite:
    """One call expression inside a statement.

    `name` is the bare function name for direct (or `this.`) calls and a
    "."-prefixed member name for calls on other objects. `arg_reads` holds
    the variable reads feeding the call, including the receiver object for
    member calls, as indices into the function's `decls`. `owner` is the
    contract declaring a direct call's target, or None.
    """

    name: str
    arg_reads: tuple[int, ...]
    owner: str | None = None

    @property
    def external(self) -> bool:
        return self.name.startswith(".")


@dataclass(slots=True)
class Statement:
    """One lowered statement with its def/use sets, as ascending indices
    into the function's `decls`, and its call sites."""

    kind: Kind
    defs: tuple[int, ...]
    uses: tuple[int, ...]
    calls: tuple[CallSite, ...] = ()
    source_span: tuple[int, int] = (0, 0)

    @property
    def callees(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.calls)


@dataclass(slots=True)
class VariableDecl:
    """One declaration of a variable. A function's `decls` holds one per
    declaration its statements reference, whatever its name; state
    variables and table entries carry their scope and node path, and a
    parameter carries its scope from the start and its path from its
    first reference."""

    name: str
    source_span: tuple[int, int] | None = None
    scope: Scope | None = None
    path: tuple[str, ...] = ()


@dataclass(slots=True)
class EventDecl:
    name: str
    source_span: tuple[int, int] | None = None


@dataclass(slots=True)
class FunctionModel:
    """One function (or constructor/fallback/receive) of one contract.

    `decls` is the table of the declarations the statements reference, one
    entry per declaration, in order of first reference (see the module
    docstring). `emits` holds the event declarations its statements (and
    its modifiers') emit, in order of first emission.
    """

    name: str
    contract: str
    visibility: str = "public"
    payable: bool = False
    decls: list[VariableDecl] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    source_span: tuple[int, int] = (0, 0)
    emits: list[EventDecl] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        return f"{self.contract}.{self.name}"


@dataclass(slots=True)
class ContractModel:
    name: str
    state_vars: list[VariableDecl] = field(default_factory=list)
    functions: list[FunctionModel] = field(default_factory=list)
    inherits: list[str] = field(default_factory=list)
    linearization: tuple[str, ...] = ()  # C3, most-derived first


def linearize(models_by_name: Mapping[str, ContractModel]) -> dict[str, tuple[str, ...]]:
    """Solidity's C3 linearization of every contract, most-derived first.

    `contract C is A, B` gives (C, B, A, ...): the rightmost base is the
    most derived. Bases not declared in the unit are skipped. An explicit
    stack replaces recursion, so base chains of any depth are fine. Raises
    MalformedAst on a cyclic or inconsistent hierarchy.
    """
    bases = {
        name: [b for b in reversed(m.inherits) if b in models_by_name]
        for name, m in models_by_name.items()
    }
    lin: dict[str, tuple[str, ...]] = {}
    entered: set[str] = set()
    for root in bases:
        stack = [root]
        while stack:
            name = stack[-1]
            todo = [b for b in bases[name] if b not in lin]
            if name in lin:
                stack.pop()
            elif todo:
                # An entered but unfinished base is an ancestor on this path.
                if entered.intersection(todo):
                    raise MalformedAst(f"cyclic inheritance through {name!r}")
                entered.add(name)
                stack += todo
            else:
                merged = _c3_merge([lin[b] for b in bases[name]] + [tuple(bases[name])], name)
                lin[name] = (name, *merged)
                stack.pop()
    return lin


def _c3_merge(seqs: list[tuple[str, ...]], contract: str) -> tuple[str, ...]:
    """C3's merge: repeatedly take the first head that is in no tail."""
    if len(seqs) == 2:  # one base: its linearization is already merged
        return seqs[0]
    stacks = [list(reversed(s)) for s in seqs]
    in_tails = Counter(x for s in stacks for x in s[:-1])
    out: list[str] = []
    while any(stacks):
        pick = next((s[-1] for s in stacks if s and not in_tails[s[-1]]), None)
        if pick is None:
            raise MalformedAst(f"no consistent linearization for {contract!r}")
        out.append(pick)
        for s in stacks:
            if s and s[-1] == pick:
                s.pop()
                if s:
                    in_tails[s[-1]] -= 1
    return tuple(out)


def span_of(node: dict) -> tuple[int, int]:
    """(offset, length) from a node's `src` field; (0, 0) when absent."""
    src = node.get("src")
    if not isinstance(src, str):
        return (0, 0)
    parts = src.split(":")
    try:
        return (int(parts[0]), int(parts[1]))
    except (IndexError, ValueError):
        return (0, 0)


# --- expression analysis ----------------------------------------------------


class _ExprInfo:
    """Reads, writes, call sites, and transfer flag of one statement.

    Walkers fold every sub-expression into the accumulator they are given;
    a separate one is made only where reads must be kept apart: a call's
    arguments, and each option and receiver that feeds a call.
    """

    __slots__ = ("reads", "writes", "calls", "transfer")

    def __init__(self) -> None:
        self.reads: set[int] = set()
        self.writes: set[int] = set()
        self.calls: list[CallSite] = []
        self.transfer = False

    def merge(self, other: "_ExprInfo") -> None:
        self.reads |= other.reads
        self.writes |= other.writes
        self.calls.extend(other.calls)
        self.transfer = self.transfer or other.transfer


@dataclass(slots=True)
class _FnContext:
    """The scopes one function or modifier body is lowered in, and the
    declaration table of the function it is lowered into.

    `scopes` is the stack of local scopes, innermost last, over the
    parameters; `state`, `functions`, `modifiers`, `events` and `types` are
    what the contract sees along its linearization, `types` also holding the
    unit's contracts and its file-level structs and enums. `decls` and
    `emits` are the function's own. `index` maps each entered declaration
    (by identity) and builtin (by name) to its table index; `taken` counts
    the entries made per local name.
    """

    contract: str
    function: str
    state: Mapping[str, VariableDecl]
    functions: Mapping[str, str]
    modifiers: Mapping[str, dict]
    events: Mapping[str, list[EventDecl]]
    types: Container[str]
    block_scoped: bool
    scopes: list[dict[str, VariableDecl]]
    decls: list[VariableDecl]
    emits: list[EventDecl]
    index: dict[int | str, int] = field(default_factory=dict)
    taken: dict[str, int] = field(default_factory=dict)

    def ref(self, decl: VariableDecl) -> int:
        """The table index of `decl`, entered on its first reference; a
        local or parameter gets its node path then."""
        i = self.index.get(id(decl))
        if i is None:
            if not decl.path:
                n = self.taken[decl.name] = self.taken.get(decl.name, 0) + 1
                last = decl.name if n == 1 else f"{decl.name}#{n}"
                decl.path = (self.contract, self.function, last)
            # Entries stay in `decls`, so no other object takes their id.
            i = self.index[id(decl)] = len(self.decls)
            self.decls.append(decl)
        return i

    def builtin(self, name: str) -> int:
        """The table index of the builtin `name`, entered on first use."""
        i = self.index.get(name)
        if i is None:
            i = self.index[name] = len(self.decls)
            path = (self.contract, self.function, name)
            self.decls.append(VariableDecl(name, None, Scope.BUILTIN, path))
        return i

    def emit(self, name: str) -> None:
        """Record an emission of the event `name`: every declaration of it
        visible here, each once."""
        for event in self.events.get(name, ()):
            if all(event is not seen for seen in self.emits):
                self.emits.append(event)

    def resolve(self, name: str) -> int | None:
        for scope in reversed(self.scopes):
            decl = scope.get(name)
            if decl is not None:
                return self.ref(decl)
        decl = self.state.get(name)
        return None if decl is None else self.ref(decl)


_MSG = frozenset({"msg"})


def _name(node: dict, key: str = "name") -> str:
    """A node's name under `key` ("" when absent); MalformedAst unless it is
    a string."""
    name = node.get(key, "")
    if not isinstance(name, str):
        raise MalformedAst(f"{node.get('nodeType')} has a non-string {key!r}")
    return name


def _is_env_identifier(node: object, names: frozenset[str] = _ENV_NAMESPACES) -> bool:
    return isinstance(node, dict) and node.get("nodeType") == "Identifier" and (
        _name(node) in names
    )


# How an expression is accessed: read, written, or both (an update such as
# `x += 1`, `x++`, `delete x` or `xs.push(v)`).
_READ, _WRITE = 1, 2
_UPDATE = _READ | _WRITE

# Expression kinds that only read their operands, walked in this order.
_OPERANDS = {
    "IndexRangeAccess": ("baseExpression", "startExpression", "endExpression"),
    "BinaryOperation": ("leftExpression", "rightExpression"),
    "Conditional": ("condition", "trueExpression", "falseExpression"),
}
_NO_READS = frozenset({"Literal", "ElementaryTypeNameExpression", "NewExpression"})
_TYPE_DEFS = ("StructDefinition", "EnumDefinition")

# Yul builtins that read msg.*, and where each call that moves value has it.
_YUL_BUILTINS = {"callvalue": "msg.value", "caller": "msg.sender"}
_YUL_VALUE_AT = {"call": 2, "callcode": 2, "create": 0, "create2": 0}


def _analyze_expression(
    node: object, ctx: _FnContext, info: _ExprInfo | None = None, access: int = _READ
) -> _ExprInfo:
    """Fold one expression's reads, writes, call sites and transfer flag
    into `info` (a new accumulator when None), and return it.

    `access` says how the expression's variables are accessed. A variable
    access (an identifier, an index's base, a tuple's components, a member's
    base) passes it down; every other expression, index expressions
    included, is read. Builtins are never written; an unresolvable name
    reads and writes nothing.
    """
    if info is None:
        info = _ExprInfo()
    if not isinstance(node, dict):
        return info
    nt = node.get("nodeType")

    if nt == "Identifier" or nt == "YulIdentifier":
        name = _name(node) if nt == "Identifier" else _name(node).partition(".")[0]
        ref = ctx.resolve(name)
        if ref is not None:
            if access & _READ:
                info.reads.add(ref)
            if access & _WRITE:
                info.writes.add(ref)
    elif nt == "IndexAccess":
        _analyze_expression(node.get("baseExpression"), ctx, info, access)
        _analyze_expression(node.get("indexExpression"), ctx, info)
    elif nt in _OPERANDS:
        for key in _OPERANDS[nt]:
            _analyze_expression(node.get(key), ctx, info)
    elif nt == "MemberAccess":
        base = node.get("expression")
        member = _name(node, "memberName")
        if _is_env_identifier(base, _MSG) and member in ("sender", "value"):
            if access & _READ:
                info.reads.add(ctx.builtin(f"msg.{member}"))
        elif not _is_env_identifier(base):
            _analyze_expression(base, ctx, info, access)
    elif nt in ("FunctionCall", "FunctionCallOptions"):
        _call(node, ctx, info)
    elif nt == "UnaryOperation":
        update = node.get("operator") in ("++", "--", "delete")
        _analyze_expression(node.get("subExpression"), ctx, info, _UPDATE if update else _READ)
    elif nt == "TupleExpression":
        for comp in _list(node, "components"):
            _analyze_expression(comp, ctx, info, access)
    elif nt == "Assignment":
        # A missing operator is a plain `=`; a compound one reads the target.
        plain = node.get("operator", "=") == "="
        _analyze_expression(node.get("leftHandSide"), ctx, info, _WRITE if plain else _UPDATE)
        _analyze_expression(node.get("rightHandSide"), ctx, info)
    elif nt == "YulFunctionCall":
        _yul_call(node, ctx, info)
    elif nt == "YulAssignment":
        for target in _list(node, "variableNames"):
            _analyze_expression(target, ctx, info, _WRITE)
        _analyze_expression(node.get("value"), ctx, info)
    elif nt not in _NO_READS:
        # Any other kind, InlineAssembly and the rest of Yul included: its
        # children are read.
        for child in node.values():
            for item in child if isinstance(child, list) else (child,):
                _analyze_expression(item, ctx, info)
    return info


def _yul_call(node: dict, ctx: _FnContext, info: _ExprInfo) -> None:
    """Fold one Yul call into `info` as the module docstring maps it; the
    called name is never resolved."""
    head = node.get("functionName")
    if not isinstance(head, dict):
        raise MalformedAst("YulFunctionCall has a non-object 'functionName'")
    op = _name(head)
    if op in _YUL_BUILTINS:
        info.reads.add(ctx.builtin(_YUL_BUILTINS[op]))
    for i, arg in enumerate(_list(node, "arguments")):
        fields = arg if isinstance(arg, dict) else {}
        zero = fields.get("nodeType") == "YulLiteral" and fields.get("value") == "0"
        if i == _YUL_VALUE_AT.get(op) and not zero:
            info.transfer = True
        write = op == "sstore" and not i and _name(fields).endswith(".slot")
        _analyze_expression(arg, ctx, info, _WRITE if write else _READ)


def _call(node: dict, ctx: _FnContext, info: _ExprInfo) -> None:
    """Fold one call into `info` and record its call site, if any. The
    arguments fold first; an options node that no call applies has none and
    is its own head."""
    args = _ExprInfo()
    for arg in _list(node, "arguments"):
        _analyze_expression(arg, ctx, args)
    info.merge(args)
    head = node.get("expression") if node.get("nodeType") == "FunctionCall" else node
    name = _callee(head, args.reads, ctx, info)
    if name is not None:
        owner = None if name.startswith(".") else ctx.functions.get(name)
        info.calls.append(CallSite(name, tuple(sorted(args.reads)), owner))


def _callee(head: object, reads: set[int], ctx: _FnContext, info: _ExprInfo) -> str | None:
    """The call-site name of a call head, or None for builtins, type
    conversions, members of other namespaces and `super.` calls.

    Option layers are peeled down to the called function `h`: `h{value: v}`,
    and the legacy `h.value(v)` and `h.gas(g)`, which are only applied when
    `h` is a function. Their reads, and a member call's receiver reads, join
    `reads`; every effect folds into `info`, and a value option marks a
    transfer.
    """
    if not isinstance(head, dict):
        return None
    nt = head.get("nodeType")
    if nt == "Identifier":
        name = _name(head)
        if not name or name in _BUILTIN_CALLS or name in ctx.types:
            return None  # a builtin, a type conversion or a struct constructor
        ref = ctx.resolve(name)
        if ref is None:
            if name in ctx.events and name not in ctx.functions:
                ctx.emit(name)  # an event invoked as before Solidity 0.4.21
                return None
            return name
        # Calling through a function-typed variable: the variable is read;
        # the target is opaque.
        info.reads.add(ref)
        return "." + name

    if nt == "MemberAccess":
        member = _name(head, "memberName")
        base = head.get("expression")
        if member in ("push", "pop"):
            _analyze_expression(base, ctx, info, _UPDATE)
            return None
        _feed(base, reads, ctx, info)
        if member in ("send", "transfer"):
            info.transfer = True
        elif not member or _is_env_identifier(base):
            # `this.f` calls f directly; other namespaces hold builtins.
            return member if member and base["name"] == "this" else None
        return "." + member

    if nt == "FunctionCallOptions":
        name = _callee(head.get("expression"), reads, ctx, info)
        for opt in _list(head, "options"):
            _feed(opt, reads, ctx, info)
        if "value" in _list(head, "names"):
            info.transfer = True
        return name

    if nt == "FunctionCall":
        option = head.get("expression")
        if isinstance(option, dict) and _name(option, "memberName") in ("value", "gas"):
            for arg in _list(head, "arguments"):
                _feed(arg, reads, ctx, info)
            if option["memberName"] == "value":
                info.transfer = True
            return _callee(option.get("expression"), reads, ctx, info)
        # Applying a function that a call returned: the inner call is a
        # call of its own.
        _call(head, ctx, info)
        return ".call" if reads else None

    if nt == "NewExpression":
        return ".new" if reads else None

    _analyze_expression(head, ctx, info)
    return None


def _feed(node: object, reads: set[int], ctx: _FnContext, info: _ExprInfo) -> None:
    """Fold an expression that feeds a call into `info`, and its reads into
    the call's `reads`."""
    sub = _analyze_expression(node, ctx)
    info.merge(sub)
    reads |= sub.reads


# --- statement lowering -----------------------------------------------------


# Marks the `_;` position inside a lowered modifier body.
_PLACEHOLDER = object()


# Control statements: the statement kind their condition is lowered as, the
# children lowered before it (For's initialization) and those after it.
_CONTROL = {
    "IfStatement": (Kind.BRANCH, (), ("trueBody", "falseBody")),
    "WhileStatement": (Kind.LOOP, (), ("body",)),
    "DoWhileStatement": (Kind.LOOP, (), ("body",)),
    "ForStatement": (Kind.LOOP, ("initializationExpression",), ("body", "loopExpression")),
}


def _emit(out: list, kind: Kind, info: _ExprInfo, node: dict) -> None:
    """Append one statement of `info`'s effects, spanning `node`."""
    defs, uses = tuple(sorted(info.writes)), tuple(sorted(info.reads))
    out.append(Statement(kind, defs, uses, tuple(info.calls), span_of(node)))


def _lower_statement(node: object, ctx: _FnContext, out: list) -> None:
    """Append lowered statements (flattened) for one AST statement node."""
    if not isinstance(node, dict):
        return
    nt = node.get("nodeType")

    if nt == "ExpressionStatement":
        expr = node.get("expression")
        info = _analyze_expression(expr, ctx)
        et = expr.get("nodeType") if isinstance(expr, dict) else None
        if info.transfer:
            kind = Kind.VALUE_TRANSFER
        elif et != "Assignment" and (info.calls or et in ("FunctionCall", "FunctionCallOptions")):
            kind = Kind.CALL
        else:
            kind = Kind.ASSIGN
        _emit(out, kind, info, node)
    elif nt in _CONTROL or nt in ("Block", "UncheckedBlock"):
        # A scope of its own, or before 0.5.0 the one it is in again.
        ctx.scopes.append({} if ctx.block_scoped else ctx.scopes[-1])
        if nt in _CONTROL:
            kind, before, after = _CONTROL[nt]
            for key in before:
                _lower_statement(node.get(key), ctx, out)
            cond = node.get("condition")
            where = cond if isinstance(cond, dict) else node
            _emit(out, kind, _analyze_expression(cond, ctx), where)
            for key in after:
                _lower_statement(node.get(key), ctx, out)
        else:
            for child in _objects(node, "statements"):
                _lower_statement(child, ctx, out)
        ctx.scopes.pop()
    elif nt == "VariableDeclarationStatement":
        # The initializer is read before the new locals are in scope.
        info = _analyze_expression(node.get("initialValue"), ctx)
        for d in _list(node, "declarations"):
            if isinstance(d, dict) and _name(d):
                decl = ctx.scopes[-1][d["name"]] = VariableDecl(d["name"], span_of(d), Scope.LOCAL)
                info.writes.add(ctx.ref(decl))
        _emit(out, Kind.DECLARE, info, node)
    elif nt == "Return":
        _emit(out, Kind.RETURN, _analyze_expression(node.get("expression"), ctx), node)
    elif nt in ("EmitStatement", "RevertStatement"):
        # Event and error heads are not callable targets, so only the
        # arguments are walked: their reads and call sites are the statement's.
        call = node.get("eventCall" if nt == "EmitStatement" else "errorCall")
        info = _ExprInfo()
        if isinstance(call, dict):
            head = call.get("expression")
            if nt == "EmitStatement" and isinstance(head, dict) and (
                head.get("nodeType") == "Identifier"
            ):
                ctx.emit(_name(head))
            for arg in _list(call, "arguments"):
                _analyze_expression(arg, ctx, info)
        _emit(out, Kind.EMIT if nt == "EmitStatement" else Kind.CALL, info, node)
    elif nt == "TryStatement":
        _lower_statement(
            {"nodeType": "ExpressionStatement", "expression": node.get("externalCall"),
             "src": node.get("src")},
            ctx,
            out,
        )
        for clause in _list(node, "clauses"):
            if isinstance(clause, dict):
                # The clause's parameters are locals of a scope around its block.
                scope = {} if ctx.block_scoped else ctx.scopes[-1]
                for p in _param_decls(clause, "parameters", Scope.LOCAL):
                    scope[p.name] = p
                ctx.scopes.append(scope)
                _lower_statement(clause.get("block"), ctx, out)
                ctx.scopes.pop()
    elif nt == "PlaceholderStatement":
        out.append(_PLACEHOLDER)
    elif nt not in ("Break", "Continue", "Throw"):
        # InlineAssembly and any other kind: what the expression walker
        # finds in it.
        info = _analyze_expression(node, ctx)
        _emit(out, Kind.VALUE_TRANSFER if info.transfer else Kind.OPAQUE, info, node)


def _param_decls(node: dict, key: str, scope: Scope) -> list[VariableDecl]:
    plist = node.get(key) or {}
    if not isinstance(plist, dict):
        raise MalformedAst(f"{node.get('nodeType')} has a non-object {key}")
    return [
        VariableDecl(p["name"], span_of(p), scope)
        for p in _objects(plist, "parameters")
        if _name(p)
    ]


def _function_name(node: dict, contract_name: str) -> str:
    kind = node.get("kind")
    name = _name(node)
    if kind == "constructor" or node.get("isConstructor") or (
        name and name == contract_name
    ):
        return CTOR_NAME
    if kind == "receive":
        return RECEIVE_NAME
    if kind == "fallback" or not name:
        return FALLBACK_NAME
    return name


def _lower_function(fn_node: dict, ctx: _FnContext) -> list[Statement]:
    """A function body's statements, wrapped in each modifier's halves. Each
    invocation lowers the nearest definition of its modifier on the
    linearization into the function's table."""
    result: list = []
    _lower_statement(fn_node.get("body"), ctx, result)
    result = [s for s in result if s is not _PLACEHOLDER]
    for inv in reversed(_objects(fn_node, "modifiers")):
        mname = inv.get("modifierName")
        name = _name(mname) if isinstance(mname, dict) else ""
        if not name or name in ctx.types:
            continue  # base-constructor invocation, not a modifier
        mdef = ctx.modifiers.get(name)
        if mdef is not None:
            pre, post = _lower_modifier(mdef, inv, ctx)
            result = pre + result + post
    return result


def _lower_modifier(mdef: dict, inv: dict, ctx: _FnContext) -> tuple[list, list]:
    """The statements one invocation of a modifier puts before and after
    the body it wraps. First each argument, read in the function's scope,
    is bound to its parameter; then the body is walked with a scope stack
    of its own, its parameters and locals all as locals, and split at its
    first `_;`."""
    params = _param_decls(mdef, "parameters", Scope.LOCAL)
    pre: list = []
    for p, arg in zip(params, _list(inv, "arguments")):
        info = _analyze_expression(arg, ctx)
        info.writes = {ctx.ref(p)}
        _emit(pre, Kind.ASSIGN, info, arg if isinstance(arg, dict) else {})
    body: list = []
    _lower_statement(mdef.get("body"), replace(ctx, scopes=[{p.name: p for p in params}]), body)
    split = (body + [_PLACEHOLDER]).index(_PLACEHOLDER)
    return pre + body[:split], [s for s in body[split + 1 :] if s is not _PLACEHOLDER]


def _list(node: dict, key: str) -> list:
    """A node's list under `key` (absent or null is empty); MalformedAst
    unless it is a list."""
    items = node.get(key)
    if items is None:
        return []
    if not isinstance(items, list):
        raise MalformedAst(f"{node.get('nodeType')} has a non-list {key!r}")
    return items


def _objects(node: dict, key: str) -> list[dict]:
    """A node's list under `key`, as `_list` reads it; MalformedAst unless
    its every entry is an object."""
    items = _list(node, key)
    if not all(isinstance(i, dict) for i in items):
        raise MalformedAst(f"{node.get('nodeType')} has a non-object member in {key!r}")
    return items


def _visible(lin: tuple[str, ...], own: Mapping[str, Mapping]) -> dict:
    """What a contract sees of a per-contract table along its linearization:
    the most-derived declaring contract wins."""
    seen: dict = {}
    for c in reversed(lin):
        seen.update(own[c])
    return seen


def _block_scoped(unit: SourceUnit) -> bool:
    """Whether blocks open scopes, as from Solidity 0.5.0 on: read from the
    first version literal of the compiler version, else of the pragma, and
    true when neither has one."""
    for version in (unit.compiler_version, unit.pragma_version):
        if isinstance(version, str):
            try:
                return version_tuple(version) >= (0, 5)
            except ValueError:
                pass  # no version literal
    return True


def lower(unit: SourceUnit) -> list[ContractModel]:
    """Lower a unit's AST into contract models in source order."""
    top = _objects(source_entry(unit.ast_json)[1]["ast"], "nodes")
    # Names a call converts to or constructs (no call site): the unit's
    # contracts and file-level types, then each contract's along its bases.
    unit_types = dict.fromkeys(_name(n) for n in top if n.get("nodeType") in _TYPE_DEFS)
    by_name: dict[str, ContractModel] = {}
    bodies: list[list[dict]] = []
    # Each contract's own state, functions (to their owner), modifiers and
    # types by name, the first of a name winning, and its events by name,
    # every overload of a name together.
    own: tuple[dict[str, dict], ...] = ({}, {}, {}, {}, {})

    # First, every contract's declarations and function headers, so names
    # resolve against the whole unit whatever its order.
    for cnode in top:
        if cnode.get("nodeType") != "ContractDefinition":
            continue
        name = _name(cnode) or "<anonymous>"
        if name in by_name:
            # Every table below is keyed by contract name.
            raise MalformedAst(f"two contracts named {name!r}")
        model = by_name[name] = ContractModel(name)
        unit_types[name] = None
        for base in _list(cnode, "baseContracts"):
            bn = base.get("baseName") if isinstance(base, dict) else None
            if isinstance(bn, dict) and _name(bn):
                model.inherits.append(bn["name"])
        state, functions, modifiers, events, types = tables = ({}, {}, {}, {}, {})
        members = []
        for member in _objects(cnode, "nodes"):
            mt = member.get("nodeType")
            if mt == "VariableDeclaration" and _name(member):
                vname = member["name"]
                decl = VariableDecl(vname, span_of(member), Scope.STATE, (name, vname))
                model.state_vars.append(decl)
                state.setdefault(vname, decl)
            elif mt == "FunctionDefinition":
                payable = member.get("stateMutability") == "payable" or member.get("payable")
                fn = FunctionModel(
                    _function_name(member, name), name, member.get("visibility", "public"),
                    bool(payable), source_span=span_of(member),
                )
                model.functions.append(fn)
                functions[fn.name] = name
                members.append(member)
            elif mt == "EventDefinition" and _name(member):
                event = EventDecl(member["name"], span_of(member))
                events.setdefault(event.name, []).append(event)
            elif mt == "ModifierDefinition":
                modifiers.setdefault(_name(member), member)
            elif mt in _TYPE_DEFS:
                types[_name(member)] = None
        for table, mine in zip(own, tables):
            table[name] = mine
        bodies.append(members)
    models = list(by_name.values())
    lin = linearize(by_name)
    block_scoped = _block_scoped(unit)

    # Then function bodies, nested no deeper than the recursion limit
    # allows (see the module docstring).
    try:
        for model, members in zip(models, bodies):
            model.linearization = lin[model.name]
            if not members:
                continue
            visible = [_visible(model.linearization, table) for table in own]
            visible[-1].update(unit_types)  # types: the unit's join the bases'
            for fn, member in zip(model.functions, members):
                bottom = {p.name: p for p in _param_decls(member, "parameters", Scope.PARAM)}
                for r in _param_decls(member, "returnParameters", Scope.LOCAL):
                    bottom[r.name] = r
                ctx = _FnContext(
                    model.name, fn.name, *visible, block_scoped, [bottom], fn.decls, fn.emits
                )
                fn.statements = _lower_function(member, ctx)
    except RecursionError:
        raise MalformedAst("AST nested too deeply to lower") from None
    return models


def def_use_table(
    fn: FunctionModel,
) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per index into `fn.decls`, (def indices, use indices) over the
    function's statements.

    Indices are statement positions in `fn.statements`, ascending. Every
    entry referenced by any statement appears, in (scope, name) order, then
    table order; entries never referenced do not.
    """
    table: dict[int, tuple[list[int], list[int]]] = {}
    for i, stmt in enumerate(fn.statements):
        for v in stmt.defs:
            table.setdefault(v, ([], []))[0].append(i)
        for v in stmt.uses:
            table.setdefault(v, ([], []))[1].append(i)
    order = sorted(table, key=lambda v: (fn.decls[v].scope, fn.decls[v].name))
    return {v: (tuple(table[v][0]), tuple(table[v][1])) for v in order}
