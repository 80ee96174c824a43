"""Contract object model lowered from compiler AST JSON.

Lowering is flow-insensitive and field-insensitive: every statement becomes
one record with def/use sets of variable references, member and index access
collapse onto the base variable, and control statements contribute their
condition reads. That granularity is exactly what the data-flow graph needs;
nothing finer is kept.

Resolution rules:
  * locals and parameters resolve within the function (locals are collected
    up front, so use-before-declaration still resolves);
  * state variables and called functions resolve through the contract's C3
    linearization (Solidity's order, most-derived first, so the rightmost
    base wins), restricted to contracts declared in the same unit; within
    one contract the first declaration of a name wins;
  * the only builtin references modeled are msg.sender and msg.value; other
    environment reads (msg.data, tx.origin, block.*) carry no taint and are
    dropped;
  * identifiers that resolve to nothing are dropped.

Calls are kept as call sites with per-call argument read sets. Names with a
leading "." are member calls on some object (inherently external from this
unit's point of view); plain names are candidates for in-unit resolution
later. Well-known builtin callables (require, assert, keccak256, ...) and
type conversions produce no call site at all, though their argument reads
are kept.

Modifier bodies are inlined around the function body at the placeholder
statement, with invocation arguments bound to modifier parameters through
synthetic assignments, so guard reads like `msg.sender == owner` surface in
the function that carries the modifier.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Container, Iterable, Mapping, Sequence

from .errors import MalformedAst
from .ingest import SourceUnit


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

_IDENT_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


@dataclass(frozen=True, order=True)
class VarRef:
    """A reference to one variable, identified by scope and name."""

    scope: Scope
    name: str

    def __str__(self) -> str:
        return f"{self.scope.value}:{self.name}"


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a statement.

    `name` is the bare function name for direct (or `this.`) calls and a
    "."-prefixed member name for calls on other objects. `arg_reads` holds
    the variable reads feeding the call, including the receiver object for
    member calls.
    """

    name: str
    arg_reads: frozenset[VarRef]

    @property
    def external(self) -> bool:
        return self.name.startswith(".")


@dataclass
class Statement:
    """One lowered statement with its def/use sets and call sites.

    guard_uses carries the condition reads of every enclosing branch/loop,
    so implicit flows can optionally be wired in at graph-build time.
    """

    kind: Kind
    defs: frozenset[VarRef]
    uses: frozenset[VarRef]
    calls: tuple[CallSite, ...] = ()
    source_span: tuple[int, int] = (0, 0)
    guard_uses: frozenset[VarRef] = frozenset()

    @property
    def callees(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.calls)


@dataclass
class VariableDecl:
    name: str
    type_name: str = ""
    source_span: tuple[int, int] | None = None


@dataclass
class EventDecl:
    name: str
    source_span: tuple[int, int] | None = None


@dataclass
class FunctionModel:
    """One function (or constructor/fallback/receive) of one contract."""

    name: str
    contract: str
    visibility: str = "public"
    payable: bool = False
    params: list[VariableDecl] = field(default_factory=list)
    locals: list[VariableDecl] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    source_span: tuple[int, int] = (0, 0)

    @property
    def qualified_name(self) -> str:
        return f"{self.contract}.{self.name}"


@dataclass
class ContractModel:
    name: str
    state_vars: list[VariableDecl] = field(default_factory=list)
    functions: list[FunctionModel] = field(default_factory=list)
    inherits: list[str] = field(default_factory=list)
    events: list[EventDecl] = field(default_factory=list)
    source_span: tuple[int, int] = (0, 0)


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


class Names:
    """Which contract declares a name, seen from each contract of one unit.

    Holds one linearization per contract, from `ContractModel.inherits`, and
    each contract's own declarations (the first of a name wins). A lookup
    takes the first declaring contract on the linearization and is memoized
    per (contract, name). The tables snapshot the models at construction.
    """

    def __init__(self, models: Iterable[ContractModel]):
        self.models = {m.name: m for m in models}
        self.linearization = linearize(self.models)
        self._own_state = {
            c: {v.name: v for v in reversed(m.state_vars)} for c, m in self.models.items()
        }
        self._own_functions = {c: {f.name for f in m.functions} for c, m in self.models.items()}
        self._state_memo: dict[tuple[str, str], str | None] = {}
        self._function_memo: dict[tuple[str, str], str | None] = {}

    def _owner(
        self, memo: dict, own: Mapping[str, Container[str]], contract: str, name: str
    ) -> str | None:
        key = (contract, name)
        if key not in memo:
            lin = self.linearization.get(contract, ())
            memo[key] = next((c for c in lin if name in own[c]), None)
        return memo[key]

    def state(self, contract: str, name: str) -> tuple[str, VariableDecl] | None:
        """(declaring contract, declaration) of a state variable, or None."""
        owner = self._owner(self._state_memo, self._own_state, contract, name)
        return None if owner is None else (owner, self._own_state[owner][name])

    def function(self, contract: str, name: str) -> str | None:
        """The contract declaring a directly-called function, or None."""
        return self._owner(self._function_memo, self._own_functions, contract, name)


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


def source_unit_node(unit: SourceUnit) -> dict:
    """The SourceUnit AST root of a unit's AST document."""
    doc = unit.ast_json
    if not isinstance(doc, dict):
        raise MalformedAst("unit carries no AST document")
    sources = doc.get("sources")
    if not isinstance(sources, dict) or len(sources) != 1:
        raise MalformedAst("AST document must hold exactly one source entry")
    (entry,) = sources.values()
    ast = entry.get("ast") if isinstance(entry, dict) else None
    if not isinstance(ast, dict) or ast.get("nodeType") != "SourceUnit":
        raise MalformedAst("source entry lacks a SourceUnit root")
    return ast


# --- expression analysis ----------------------------------------------------


class _ExprInfo:
    """Reads, writes, call sites, and transfer flag of one expression."""

    __slots__ = ("reads", "writes", "calls", "transfer")

    def __init__(self) -> None:
        self.reads: set[VarRef] = set()
        self.writes: set[VarRef] = set()
        self.calls: list[CallSite] = []
        self.transfer = False

    def merge(self, other: "_ExprInfo") -> "_ExprInfo":
        self.reads |= other.reads
        self.writes |= other.writes
        self.calls.extend(other.calls)
        self.transfer = self.transfer or other.transfer
        return self


class _FnContext:
    """Name-resolution scope for one function body."""

    def __init__(
        self,
        contract: str,
        names: Names,
        params: set[str],
        locals_: set[str],
        source_text: str,
    ):
        self.contract = contract
        self.names = names
        self.params = params
        self.locals = locals_
        self.source_text = source_text

    def resolve(self, name: str) -> VarRef | None:
        if name in self.locals:
            return VarRef(Scope.LOCAL, name)
        if name in self.params:
            return VarRef(Scope.PARAM, name)
        if self.names.state(self.contract, name) is not None:
            return VarRef(Scope.STATE, name)
        return None


def _is_env_identifier(node: dict, names: frozenset[str] = _ENV_NAMESPACES) -> bool:
    return node.get("nodeType") == "Identifier" and node.get("name") in names


def _member_chain(node: dict) -> list[str]:
    """Member names from the outside in, e.g. a.b.c -> ["c", "b"]."""
    chain = []
    while isinstance(node, dict) and node.get("nodeType") == "MemberAccess":
        chain.append(node.get("memberName", ""))
        node = node.get("expression")
    return chain


def _analyze_expression(node: object, ctx: _FnContext) -> _ExprInfo:
    info = _ExprInfo()
    if not isinstance(node, dict):
        return info
    nt = node.get("nodeType")

    if nt == "Identifier":
        ref = ctx.resolve(node.get("name", ""))
        if ref is not None:
            info.reads.add(ref)
        return info

    if nt == "MemberAccess":
        base = node.get("expression")
        member = node.get("memberName", "")
        if _is_env_identifier(base, frozenset({"msg"})) and member in ("sender", "value"):
            info.reads.add(VarRef(Scope.BUILTIN, f"msg.{member}"))
            return info
        if isinstance(base, dict) and _is_env_identifier(base):
            return info
        return info.merge(_analyze_expression(base, ctx))

    if nt == "IndexAccess":
        info.merge(_analyze_expression(node.get("baseExpression"), ctx))
        info.merge(_analyze_expression(node.get("indexExpression"), ctx))
        return info

    if nt == "IndexRangeAccess":
        for key in ("baseExpression", "startExpression", "endExpression"):
            info.merge(_analyze_expression(node.get(key), ctx))
        return info

    if nt == "BinaryOperation":
        info.merge(_analyze_expression(node.get("leftExpression"), ctx))
        info.merge(_analyze_expression(node.get("rightExpression"), ctx))
        return info

    if nt == "UnaryOperation":
        sub = node.get("subExpression")
        info.merge(_analyze_expression(sub, ctx))
        op = node.get("operator")
        if op in ("++", "--", "delete"):
            writes, _ = _lvalue_targets(sub, ctx)
            info.writes |= writes
        return info

    if nt == "Conditional":
        for key in ("condition", "trueExpression", "falseExpression"):
            info.merge(_analyze_expression(node.get(key), ctx))
        return info

    if nt == "TupleExpression":
        for comp in node.get("components") or []:
            info.merge(_analyze_expression(comp, ctx))
        return info

    if nt == "Assignment":
        # Nested assignment used as an expression: keep both sides' flows.
        writes, index_reads = _lvalue_targets(node.get("leftHandSide"), ctx)
        info.writes |= writes
        info.reads |= index_reads
        if node.get("operator") != "=":
            info.reads |= writes
        info.merge(_analyze_expression(node.get("rightHandSide"), ctx))
        return info

    if nt == "FunctionCallOptions":
        inner = _analyze_call_head(node.get("expression"), [], ctx, info)
        for opt in node.get("options") or []:
            info.merge(_analyze_expression(opt, ctx))
        if "value" in (node.get("names") or []):
            info.transfer = True
        if inner is not None:
            info.calls.append(inner)
        return info

    if nt == "FunctionCall":
        return _analyze_call(node, ctx)

    if nt in ("Literal", "ElementaryTypeNameExpression", "NewExpression"):
        return info

    # Unknown expression kind: fall back to a textual scan of its span.
    info.reads |= _textual_reads(node, ctx)
    return info


def _analyze_call_head(
    callee: object, arg_infos: list[_ExprInfo], ctx: _FnContext, info: _ExprInfo
) -> CallSite | None:
    """Classify a call head, folding receiver reads into `info`.

    Returns the call site to record, or None for builtins, event heads, and
    type conversions.
    """
    if not isinstance(callee, dict):
        return None
    arg_reads: set[VarRef] = set()
    for a in arg_infos:
        arg_reads |= a.reads
    nt = callee.get("nodeType")

    if nt == "Identifier":
        name = callee.get("name", "")
        if name in _BUILTIN_CALLS or not name:
            return None
        if name in ctx.names.models:
            return None  # contract-type cast, not a call
        ref = ctx.resolve(name)
        if ref is not None:
            # Calling through a function-typed variable: the variable is
            # read; the target is opaque.
            info.reads.add(ref)
            return CallSite("." + name, frozenset(arg_reads))
        return CallSite(name, frozenset(arg_reads))

    if nt == "MemberAccess":
        member = callee.get("memberName", "")
        base = callee.get("expression")
        base_info = _analyze_expression(base, ctx)
        info.merge(base_info)
        receiver_reads = frozenset(arg_reads | base_info.reads)
        if member in ("send", "transfer"):
            info.transfer = True
            return CallSite("." + member, receiver_reads)
        if member in ("push", "pop"):
            writes, index_reads = _lvalue_targets(base, ctx)
            info.writes |= writes
            info.reads |= index_reads
            return None
        if member == "value" and isinstance(base, dict):
            # Legacy x.call.value(v) chain: mark the transfer, no call site
            # until the outer call applies it.
            chain = _member_chain(base)
            if chain and chain[0] == "call":
                info.transfer = True
                return CallSite(".call", receiver_reads)
        if _is_env_identifier(base) or not member:
            return None
        if isinstance(base, dict) and base.get("nodeType") == "Identifier" and base.get(
            "name"
        ) == "this":
            return CallSite(member, frozenset(arg_reads))
        return CallSite("." + member, receiver_reads)

    if nt == "NewExpression":
        return CallSite(".new", frozenset(arg_reads)) if arg_reads else None

    if nt == "ElementaryTypeNameExpression":
        return None

    if nt in ("FunctionCall", "FunctionCallOptions"):
        inner = _analyze_expression(callee, ctx)
        # The inner analysis records a ".call" site for an options clause or
        # a legacy .call.value chain; drop it so the outer application is the
        # single recorded site.
        applied = any(c.name == ".call" for c in inner.calls)
        inner.calls = [c for c in inner.calls if c.name != ".call"]
        info.merge(inner)
        if inner.transfer or applied:
            return CallSite(".call", frozenset(arg_reads | inner.reads))
        return CallSite(".call", frozenset(arg_reads)) if arg_reads else None

    info.merge(_analyze_expression(callee, ctx))
    return None


def _analyze_call(node: dict, ctx: _FnContext) -> _ExprInfo:
    info = _ExprInfo()
    arg_infos = []
    for arg in node.get("arguments") or []:
        a = _analyze_expression(arg, ctx)
        arg_infos.append(a)
        info.merge(a)
    site = _analyze_call_head(node.get("expression"), arg_infos, ctx, info)
    if site is not None:
        info.calls.append(site)
    return info


def _lvalue_targets(node: object, ctx: _FnContext) -> tuple[set[VarRef], set[VarRef]]:
    """(written base variables, extra index/member reads) of an lvalue.

    Builtins are never written; an unresolvable target writes nothing.
    """
    writes: set[VarRef] = set()
    reads: set[VarRef] = set()
    if not isinstance(node, dict):
        return writes, reads
    nt = node.get("nodeType")
    if nt == "Identifier":
        ref = ctx.resolve(node.get("name", ""))
        if ref is not None:
            writes.add(ref)
        return writes, reads
    if nt == "MemberAccess":
        base = node.get("expression")
        if isinstance(base, dict) and _is_env_identifier(base):
            return writes, reads
        return _lvalue_targets(base, ctx)
    if nt == "IndexAccess":
        w, r = _lvalue_targets(node.get("baseExpression"), ctx)
        writes |= w
        reads |= r
        reads |= _analyze_expression(node.get("indexExpression"), ctx).reads
        return writes, reads
    if nt == "TupleExpression":
        for comp in node.get("components") or []:
            if comp is None:
                continue
            w, r = _lvalue_targets(comp, ctx)
            writes |= w
            reads |= r
        return writes, reads
    reads |= _analyze_expression(node, ctx).reads
    return writes, reads


def _textual_reads(node: dict, ctx: _FnContext) -> set[VarRef]:
    """Conservative reads for opaque nodes: identifiers in the node's span
    that resolve in scope, plus msg.sender / msg.value substrings."""
    off, length = span_of(node)
    text = ctx.source_text[off : off + length] if length else ""
    found: set[VarRef] = set()
    for name in set(_IDENT_RE.findall(text)):
        ref = ctx.resolve(name)
        if ref is not None:
            found.add(ref)
    for builtin in BUILTIN_NAMES:
        if builtin in text:
            found.add(VarRef(Scope.BUILTIN, builtin))
    return found


# --- statement lowering -----------------------------------------------------


class _Placeholder:
    """Sentinel marking the `_;` position inside a lowered modifier body."""


def _collect_local_decls(node: object, into: list[VariableDecl], seen: set[str]) -> None:
    if isinstance(node, dict):
        if node.get("nodeType") == "VariableDeclarationStatement":
            for d in node.get("declarations") or []:
                if isinstance(d, dict) and d.get("name") and d["name"] not in seen:
                    seen.add(d["name"])
                    into.append(
                        VariableDecl(
                            name=d["name"],
                            type_name=_type_text(d),
                            source_span=span_of(d),
                        )
                    )
        for value in node.values():
            _collect_local_decls(value, into, seen)
    elif isinstance(node, list):
        for item in node:
            _collect_local_decls(item, into, seen)


def _type_text(decl: dict) -> str:
    t = decl.get("typeName")
    if isinstance(t, dict) and isinstance(t.get("name"), str):
        return t["name"]
    td = decl.get("typeDescriptions")
    if isinstance(td, dict) and isinstance(td.get("typeString"), str):
        return td["typeString"]
    return ""


def _lower_statement(
    node: object,
    ctx: _FnContext,
    out: list,
    guards: tuple[frozenset[VarRef], ...],
) -> None:
    """Append lowered statements (flattened) for one AST statement node."""
    if not isinstance(node, dict):
        return
    nt = node.get("nodeType")
    guard_uses = frozenset().union(*guards) if guards else frozenset()

    def emit(kind: Kind, info: _ExprInfo, extra_defs: set[VarRef] | None = None,
             span: tuple[int, int] | None = None) -> None:
        defs = set(info.writes)
        if extra_defs:
            defs |= extra_defs
        defs = {d for d in defs if d.scope != Scope.BUILTIN}
        out.append(
            Statement(
                kind=kind,
                defs=frozenset(defs),
                uses=frozenset(info.reads),
                calls=tuple(info.calls),
                source_span=span if span is not None else span_of(node),
                guard_uses=guard_uses,
            )
        )

    if nt in ("Block", "UncheckedBlock"):
        for child in _objects(node, "statements"):
            _lower_statement(child, ctx, out, guards)
        return

    if nt == "VariableDeclarationStatement":
        declared = {
            VarRef(Scope.LOCAL, d["name"])
            for d in node.get("declarations") or []
            if isinstance(d, dict) and d.get("name")
        }
        info = _analyze_expression(node.get("initialValue"), ctx)
        emit(Kind.DECLARE, info, extra_defs=declared)
        return

    if nt == "ExpressionStatement":
        expr = node.get("expression")
        if isinstance(expr, dict) and expr.get("nodeType") == "Assignment":
            op = expr.get("operator", "=")
            writes, index_reads = _lvalue_targets(expr.get("leftHandSide"), ctx)
            info = _analyze_expression(expr.get("rightHandSide"), ctx)
            info.reads |= index_reads
            if op != "=":
                info.reads |= writes
            info.writes |= writes
            kind = Kind.VALUE_TRANSFER if info.transfer else Kind.ASSIGN
            emit(kind, info)
            return
        info = _analyze_expression(expr, ctx)
        is_call_expr = isinstance(expr, dict) and expr.get("nodeType") in (
            "FunctionCall",
            "FunctionCallOptions",
        )
        if info.transfer:
            kind = Kind.VALUE_TRANSFER
        elif info.calls or is_call_expr:
            kind = Kind.CALL
        else:
            kind = Kind.ASSIGN
        emit(kind, info)
        return

    if nt == "IfStatement":
        cond = node.get("condition")
        info = _analyze_expression(cond, ctx)
        span = span_of(cond) if isinstance(cond, dict) else span_of(node)
        emit(Kind.BRANCH, info, span=span)
        inner = guards + (frozenset(info.reads),)
        _lower_statement(node.get("trueBody"), ctx, out, inner)
        _lower_statement(node.get("falseBody"), ctx, out, inner)
        return

    if nt in ("WhileStatement", "DoWhileStatement"):
        cond = node.get("condition")
        info = _analyze_expression(cond, ctx)
        span = span_of(cond) if isinstance(cond, dict) else span_of(node)
        emit(Kind.LOOP, info, span=span)
        inner = guards + (frozenset(info.reads),)
        _lower_statement(node.get("body"), ctx, out, inner)
        return

    if nt == "ForStatement":
        _lower_statement(node.get("initializationExpression"), ctx, out, guards)
        cond = node.get("condition")
        info = _analyze_expression(cond, ctx)
        span = span_of(cond) if isinstance(cond, dict) else span_of(node)
        emit(Kind.LOOP, info, span=span)
        inner = guards + (frozenset(info.reads),)
        _lower_statement(node.get("body"), ctx, out, inner)
        _lower_statement(node.get("loopExpression"), ctx, out, inner)
        return

    if nt == "Return":
        info = _analyze_expression(node.get("expression"), ctx)
        emit(Kind.RETURN, info)
        return

    if nt == "EmitStatement":
        call = node.get("eventCall")
        info = _ExprInfo()
        if isinstance(call, dict):
            for arg in call.get("arguments") or []:
                info.merge(_analyze_expression(arg, ctx))
        info.calls = []  # event heads are not callable targets
        emit(Kind.EMIT, info)
        return

    if nt == "RevertStatement":
        call = node.get("errorCall")
        info = _analyze_expression(call, ctx) if call else _ExprInfo()
        info.calls = []
        emit(Kind.CALL, info)
        return

    if nt == "TryStatement":
        _lower_statement(
            {"nodeType": "ExpressionStatement", "expression": node.get("externalCall"),
             "src": node.get("src")},
            ctx,
            out,
            guards,
        )
        for clause in node.get("clauses") or []:
            if isinstance(clause, dict):
                _lower_statement(clause.get("block"), ctx, out, guards)
        return

    if nt == "PlaceholderStatement":
        out.append(_Placeholder())
        return

    if nt in ("Break", "Continue", "Throw"):
        return

    # InlineAssembly and anything unrecognized: opaque statement with
    # conservatively scanned uses and no defs.
    info = _ExprInfo()
    info.reads = _textual_reads(node, ctx)
    emit(Kind.OPAQUE, info)


def _param_decls(node: dict, key: str) -> list[VariableDecl]:
    plist = node.get(key) or {}
    if not isinstance(plist, dict):
        raise MalformedAst(f"{node.get('nodeType')} has a non-object {key}")
    decls = []
    for p in _objects(plist, "parameters"):
        if p.get("name"):
            decls.append(
                VariableDecl(name=p["name"], type_name=_type_text(p), source_span=span_of(p))
            )
    return decls


def _function_name(node: dict, contract_name: str) -> str:
    kind = node.get("kind")
    name = node.get("name", "")
    if kind == "constructor" or node.get("isConstructor") or (
        name and name == contract_name
    ):
        return CTOR_NAME
    if kind == "receive":
        return RECEIVE_NAME
    if kind == "fallback" or not name:
        return FALLBACK_NAME
    return name


def _lower_body(
    node: dict, ctx: _FnContext, guards: tuple[frozenset[VarRef], ...] = ()
) -> list:
    out: list = []
    body = node.get("body")
    if isinstance(body, dict):
        _lower_statement(body, ctx, out, guards)
    return out


def _modifier_map(
    members: Mapping[str, list[dict]], linearization: Sequence[str]
) -> dict[str, dict]:
    """Modifier definitions visible from a contract, nearest override first."""
    found: dict[str, dict] = {}
    for contract in linearization:
        for member in members[contract]:
            if member.get("nodeType") == "ModifierDefinition" and member.get("name"):
                found.setdefault(member["name"], member)
    return found


def _inline_modifiers(
    fn_node: dict,
    body_stmts: list,
    ctx_factory,
    modifiers: Mapping[str, dict],
    contract_names: Container[str],
) -> list[Statement]:
    """Wrap lowered body statements with each modifier's pre/post halves."""
    result = [s for s in body_stmts if not isinstance(s, _Placeholder)]
    for inv in reversed(_objects(fn_node, "modifiers")):
        mname = inv.get("modifierName", {})
        name = mname.get("name") if isinstance(mname, dict) else None
        if not name or name in contract_names:
            continue  # base-constructor invocation, not a modifier
        mdef = modifiers.get(name)
        if mdef is None:
            continue
        mparams = _param_decls(mdef, "parameters")
        mctx = ctx_factory(extra_locals={p.name for p in mparams})
        lowered = _lower_body(mdef, mctx)
        split = next(
            (i for i, s in enumerate(lowered) if isinstance(s, _Placeholder)),
            len(lowered),
        )
        pre = [s for s in lowered[:split] if not isinstance(s, _Placeholder)]
        post = [s for s in lowered[split + 1 :] if not isinstance(s, _Placeholder)]
        binds: list[Statement] = []
        args = inv.get("arguments") or []
        for p, arg in zip(mparams, args):
            info = _analyze_expression(arg, mctx)
            binds.append(
                Statement(
                    kind=Kind.ASSIGN,
                    defs=frozenset({VarRef(Scope.LOCAL, p.name)}),
                    uses=frozenset(info.reads),
                    calls=tuple(info.calls),
                    source_span=span_of(arg) if isinstance(arg, dict) else (0, 0),
                )
            )
        result = binds + pre + result + post
    return result


def _objects(node: dict, key: str) -> list[dict]:
    """A node's list under `key` (absent is empty); MalformedAst unless it is
    a list whose every entry is an object."""
    items = node.get(key) or []
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise MalformedAst(f"{node.get('nodeType')} has a non-object member in {key!r}")
    return items


def lower(unit: SourceUnit) -> list[ContractModel]:
    """Lower a unit's AST into contract models in source order."""
    root = source_unit_node(unit)
    contract_nodes_list = [
        n for n in _objects(root, "nodes") if n.get("nodeType") == "ContractDefinition"
    ]
    models: list[ContractModel] = []
    contract_members: dict[str, list[dict]] = {}

    # First pass: declarations, so cross-contract resolution sees every
    # contract of the unit regardless of order.
    for cnode in contract_nodes_list:
        name = cnode.get("name") or "<anonymous>"
        inherits = []
        for base in cnode.get("baseContracts") or []:
            bn = base.get("baseName") if isinstance(base, dict) else None
            if isinstance(bn, dict) and bn.get("name"):
                inherits.append(bn["name"])
        state_vars = []
        events = []
        members = _objects(cnode, "nodes")
        for member in members:
            mt = member.get("nodeType")
            if mt == "VariableDeclaration" and member.get("name"):
                state_vars.append(
                    VariableDecl(
                        name=member["name"],
                        type_name=_type_text(member),
                        source_span=span_of(member),
                    )
                )
            elif mt == "EventDefinition" and member.get("name"):
                events.append(EventDecl(name=member["name"], source_span=span_of(member)))
        model = ContractModel(
            name=name,
            state_vars=state_vars,
            inherits=inherits,
            events=events,
            source_span=span_of(cnode),
        )
        models.append(model)
        contract_members[name] = members

    names = Names(models)

    # Second pass: function bodies.
    for model in models:
        modifiers = _modifier_map(contract_members, names.linearization[model.name])
        for member in contract_members[model.name]:
            if member.get("nodeType") != "FunctionDefinition":
                continue
            fname = _function_name(member, model.name)
            params = _param_decls(member, "parameters")
            returns = _param_decls(member, "returnParameters")
            local_decls: list[VariableDecl] = []
            _collect_local_decls(member.get("body"), local_decls, set())
            for r in returns:
                if r.name not in {d.name for d in local_decls}:
                    local_decls.append(r)
            local_names = {d.name for d in local_decls}

            def ctx_factory(extra_locals: set[str] = frozenset()):
                return _FnContext(
                    contract=model.name,
                    names=names,
                    params={p.name for p in params},
                    locals_=set(local_names) | set(extra_locals),
                    source_text=unit.source_text,
                )

            ctx = ctx_factory()
            body_stmts = _lower_body(member, ctx)
            statements = _inline_modifiers(
                member, body_stmts, ctx_factory, modifiers, names.models
            )
            model.functions.append(
                FunctionModel(
                    name=fname,
                    contract=model.name,
                    visibility=member.get("visibility", "public"),
                    payable=member.get("stateMutability") == "payable"
                    or bool(member.get("payable")),
                    params=params,
                    locals=local_decls,
                    statements=statements,
                    source_span=span_of(member),
                )
            )
    return models


def def_use_table(
    fn: FunctionModel,
) -> dict[VarRef, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Per-variable (def indices, use indices) over the function's statements.

    Indices are statement positions in `fn.statements`, ascending. Every
    variable referenced by any statement appears; variables never referenced
    do not.
    """
    table: dict[VarRef, tuple[list[int], list[int]]] = {}
    for i, stmt in enumerate(fn.statements):
        for v in stmt.defs:
            table.setdefault(v, ([], []))[0].append(i)
        for v in stmt.uses:
            table.setdefault(v, ([], []))[1].append(i)
    return {v: (tuple(d), tuple(u)) for v, (d, u) in sorted(table.items())}

