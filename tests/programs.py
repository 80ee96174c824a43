"""Fixture contract programs: each builder returns (source_text, ast_doc).

The checked-in files under tests/fixtures/ are generated from these builders
by gen_fixtures.py; a sync test asserts the files still match the builders.
Every program targets one specific behavior, noted on its builder.
"""

from __future__ import annotations

import random

from astgen import (
    Bin,
    Expr,
    Call,
    Contract,
    EventDef,
    Fn,
    Id,
    Index,
    Lit,
    Member,
    Modifier,
    SAsm,
    SAssign,
    SDecl,
    SEmit,
    SExpr,
    SIf,
    SPlaceholder,
    SReturn,
    StateVar,
    StructDef,
    SWhile,
    VOpts,
    build_unit,
    yul_block,
    yul_call,
    yul_id,
    yul_let,
)


def _msg(member: str) -> Member:
    return Member(Id("msg"), member)


def simple_ponzi() -> tuple[str, dict]:
    """Array-of-participants scheme with a payout loop (the canonical
    positive case; its def/use table and taint set are frozen in tests)."""
    at = lambda key: Member(Index(Id("persons"), Id(key)), "amount")
    body = [
        SDecl("uint", "amount"),
        SAssign(Id("amount"), "=", _msg("value")),
        SDecl("uint", "idx", Member(Id("persons"), "length")),
        SAssign(Member(Id("persons"), "length"), "+=", Lit(1)),
        SAssign(Member(Index(Id("persons"), Id("idx")), "etherAddress"), "=", _msg("sender")),
        SAssign(at("idx"), "=", Id("amount")),
        SAssign(Id("balance"), "+=", Id("amount")),
        SWhile(
            Bin(Id("balance"), ">", Bin(at("payoutIdx"), "*", Lit(2))),
            [
                SDecl("uint", "transactionAmount", Bin(at("payoutIdx"), "*", Lit(2))),
                SExpr(
                    Call(
                        Member(
                            Member(Index(Id("persons"), Id("payoutIdx")), "etherAddress"),
                            "send",
                        ),
                        [Id("transactionAmount")],
                    )
                ),
                SAssign(Id("balance"), "-=", Id("transactionAmount")),
                SAssign(Id("payoutIdx"), "+=", Lit(1)),
            ],
        ),
    ]
    contract = Contract(
        "SimplePonzi",
        [
            StructDef("Person", [("address", "etherAddress"), ("uint", "amount")]),
            StateVar("Person[]", "persons"),
            StateVar("uint", "payoutIdx"),
            StateVar("uint", "balance"),
            Fn("enter", [], body, mutability="payable"),
        ],
    )
    return build_unit("simple_ponzi", [contract], pragma="^0.4.24", compiler_version="0.4.26")


def mini_token() -> tuple[str, dict]:
    """Minimal token transfer contract (the canonical negative case)."""
    bal = lambda key: Index(Id("balances"), key)
    contract = Contract(
        "MiniToken",
        [
            StateVar("mapping(address => uint)", "balances"),
            StateVar("uint", "total"),
            Fn(
                "",
                [("uint", "supply")],
                [
                    SAssign(bal(_msg("sender")), "=", Id("supply")),
                    SAssign(Id("total"), "=", Id("supply")),
                ],
                kind="constructor",
            ),
            Fn(
                "transfer",
                [("address", "to"), ("uint", "amount")],
                [
                    SExpr(Call(Id("require"), [Bin(bal(_msg("sender")), ">=", Id("amount"))])),
                    SAssign(bal(_msg("sender")), "-=", Id("amount")),
                    SAssign(bal(Id("to")), "+=", Id("amount")),
                ],
            ),
        ],
    )
    return build_unit("mini_token", [contract])


def pool() -> tuple[str, dict]:
    """Shared state across functions, an event, and a call-options transfer:
    exercises header assembly and selection through tainted state."""
    contract = Contract(
        "Pool",
        [
            StateVar("uint", "poolSize"),
            StateVar("address", "keeper"),
            EventDef("Deposited", [("address", "who"), ("uint", "amount")]),
            Fn(
                "deposit",
                [],
                [
                    SAssign(Id("poolSize"), "+=", _msg("value")),
                    SEmit("Deposited", [_msg("sender"), _msg("value")]),
                ],
                mutability="payable",
            ),
            Fn(
                "audit",
                [],
                [SReturn(Bin(Id("poolSize"), "*", Lit(2)))],
                mutability="view",
                returns=[("uint", "")],
            ),
            Fn("rename", [("address", "k")], [SAssign(Id("keeper"), "=", Id("k"))]),
            Fn(
                "flush",
                [("address", "dest")],
                [SExpr(Call(VOpts(Member(Id("dest"), "call"), Id("poolSize")), [Lit('""')]))],
            ),
        ],
    )
    return build_unit("pool", [contract])


def caller() -> tuple[str, dict]:
    """Internal calls: a tainted argument marks the callee hypernode, so the
    otherwise-untainted helper is still selected; the untouched pair is not."""
    contract = Contract(
        "Caller",
        [
            StateVar("uint", "vault"),
            StateVar("uint", "counter"),
            Fn("stash", [("uint", "v")], [SAssign(Id("vault"), "=", Id("v"))], visibility="internal"),
            Fn("bump", [], [SAssign(Id("counter"), "+=", Lit(1))], visibility="internal"),
            Fn("take", [], [SExpr(Call(Id("stash"), [_msg("value")]))], mutability="payable"),
            Fn("tick", [], [SExpr(Call(Id("bump"), []))]),
        ],
    )
    return build_unit("caller", [contract])


def init_rule() -> tuple[str, dict]:
    """Constructor that touches no tainted name, in a contract whose state is
    tainted elsewhere: selected only under the constructor-inclusion flag."""
    contract = Contract(
        "Init",
        [
            StateVar("uint", "pot"),
            StateVar("uint", "limit"),
            Fn("", [], [SAssign(Id("limit"), "=", Lit(100))], kind="constructor"),
            Fn("fund", [], [SAssign(Id("pot"), "+=", _msg("value"))], mutability="payable"),
        ],
    )
    return build_unit("init_rule", [contract])


def two_contracts() -> tuple[str, dict]:
    """Two unrelated contracts in one unit, one with an unresolvable call."""
    alpha = Contract(
        "Alpha",
        [
            StateVar("uint", "stash"),
            Fn("keep", [], [SAssign(Id("stash"), "=", _msg("value"))], mutability="payable"),
        ],
    )
    beta = Contract(
        "Beta",
        [
            StateVar("uint", "tally"),
            Fn("count", [("uint", "n")], [SAssign(Id("tally"), "=", Id("n"))]),
            Fn("ping", [("uint", "n")], [SExpr(Call(Id("mystery"), [Id("n")]))]),
        ],
    )
    return build_unit("two_contracts", [alpha, beta])


def inherit() -> tuple[str, dict]:
    """Inherited state: the child drains a reserve the base fills, so the
    shared node lives at the base contract and the flow crosses contracts."""
    base = Contract(
        "Base",
        [
            StateVar("uint", "reserve"),
            Fn("put", [], [SAssign(Id("reserve"), "+=", _msg("value"))], mutability="payable"),
        ],
    )
    child = Contract(
        "Child",
        [
            Fn(
                "drain",
                [("address", "target")],
                [
                    SDecl("uint", "take", Bin(Id("reserve"), "/", Lit(2))),
                    SExpr(Call(Member(Call(Id("payable"), [Id("target")]), "send"), [Id("take")])),
                    SAssign(Id("reserve"), "-=", Id("take")),
                ],
            ),
        ],
        bases=["Base"],
    )
    return build_unit("inherit", [base, child])


def multi_base() -> tuple[str, dict]:
    """Multiple inheritance: both bases declare x and f, and Solidity's C3
    order (rightmost base most derived) binds the child's uses to B."""
    bases = [
        Contract(
            name,
            [
                StateVar("uint", "x"),
                Fn("f", [("uint", "v")], [SAssign(Id("x"), "=", Id("v"))]),
            ],
        )
        for name in ("A", "B")
    ]
    child = Contract(
        "C",
        [
            Fn(
                "go",
                [],
                [
                    SAssign(Id("x"), "=", _msg("value")),
                    SExpr(Call(Id("f"), [_msg("value")])),
                ],
                mutability="payable",
            ),
        ],
        bases=["A", "B"],
    )
    return build_unit("multi_base", [*bases, child])


def vaulted() -> tuple[str, dict]:
    """Inline assembly, lowered from its Yul AST as an opaque statement."""
    contract = Contract(
        "Vaulted",
        [
            StateVar("uint", "vault"),
            Fn(
                "lock",
                [],
                [
                    SAssign(Id("vault"), "=", _msg("value")),
                    SAsm(
                        "let v := sload(vault.slot)",
                        yul_block(yul_let("v", yul_call("sload", yul_id("vault.slot")))),
                    ),
                ],
                mutability="payable",
            ),
        ],
    )
    return build_unit("vaulted", [contract])


def gated() -> tuple[str, dict]:
    """Modifiers with and without arguments, inlined around the bodies."""
    contract = Contract(
        "Gated",
        [
            StateVar("address", "owner"),
            StateVar("uint", "pot"),
            Modifier(
                "onlyOwner",
                [],
                [
                    SExpr(Call(Id("require"), [Bin(_msg("sender"), "==", Id("owner"))])),
                    SPlaceholder(),
                ],
            ),
            Modifier(
                "atLeast",
                [("uint", "minv")],
                [
                    SExpr(Call(Id("require"), [Bin(_msg("value"), ">=", Id("minv"))])),
                    SPlaceholder(),
                ],
            ),
            Fn("", [], [SAssign(Id("owner"), "=", _msg("sender"))], kind="constructor"),
            Fn("sweep", [("uint", "amt")], [SAssign(Id("pot"), "=", Id("amt"))], modifiers=["onlyOwner"]),
            Fn(
                "join",
                [],
                [SAssign(Id("pot"), "+=", _msg("value"))],
                mutability="payable",
                modifiers=[("atLeast", [Lit(1)])],
            ),
        ],
    )
    return build_unit("gated", [contract])


def relay() -> tuple[str, dict]:
    """Call forms with value and gas options, and modifiers with their own
    scope: each option call is one site on its called function, `this.f`
    is a direct call, and a modifier reads its own parameters and locals."""
    value = _msg("value")
    call_x = Member(Id("x"), "call")
    deposit = Member(Member(Id("c"), "deposit"), "value")
    gas_then_value = Member(Call(Member(call_x, "gas"), [Id("g")]), "value")
    value_then_gas = Member(Call(Member(call_x, "value"), [value]), "gas")
    relay = Contract(
        "Relay",
        [
            StateVar("address", "x"),
            StateVar("Bank", "c"),
            StateVar("uint", "g"),
            StateVar("uint", "last"),
            Fn("f", [("uint", "v")], [SAssign(Id("last"), "=", Id("v"))]),
            Fn(
                "pay",
                [],
                [
                    SExpr(Call(Member(Id("this"), "f"), [value])),
                    SExpr(Call(Call(deposit, [value]), [Id("g")])),
                    SExpr(Call(Call(gas_then_value, [value]))),
                    SExpr(Call(Call(value_then_gas, [Id("g")]))),
                    SExpr(Call(Call(Member(call_x, "value"), [value]))),
                    SExpr(Call(VOpts(call_x, value), [Lit('""')])),
                ],
                mutability="payable",
            ),
        ],
    )
    bound = Contract(
        "Bound",
        [
            StateVar("uint", "total"),
            Modifier(
                "atLeast",
                [("uint", "v")],
                [SExpr(Call(Id("require"), [Bin(value, ">=", Id("v"))])), SPlaceholder()],
            ),
            Fn(
                "join",
                [("uint", "v")],
                [SAssign(Id("total"), "+=", value)],
                mutability="payable",
                modifiers=[("atLeast", [Id("v")])],
            ),
        ],
    )
    track = Contract(
        "Track",
        [
            StateVar("uint", "seen"),
            StateVar("uint", "pot"),
            Modifier("track", [], [SAssign(Id("seen"), "=", Id("pot")), SPlaceholder()]),
            Fn(
                "join",
                [],
                [SDecl("uint", "pot", value)],
                mutability="payable",
                modifiers=["track"],
            ),
        ],
    )
    fee = Contract(
        "Fee",
        [
            StateVar("uint", "pot"),
            Modifier(
                "fee",
                [],
                [SDecl("uint", "f", value), SAssign(Id("pot"), "=", Id("f")), SPlaceholder()],
            ),
            Fn("enter", [], [], mutability="payable", modifiers=["fee"]),
        ],
    )
    bank = Contract("Bank", [Fn("deposit", [("uint", "n")], [], mutability="payable")])
    return build_unit(
        "relay", [bank, relay, bound, track, fee], pragma="^0.6.12", compiler_version="0.6.12"
    )


def hollow() -> tuple[str, dict]:
    """No taint anywhere: empty slice, whole-source fallback at detect time."""
    return build_unit(
        "hollow",
        [
            Contract("Hollow", []),
            Contract("Noop", [Fn("nothing", [], [SReturn(None)])]),
        ],
    )


def legacy() -> tuple[str, dict]:
    """0.4-style constructor named after the contract."""
    contract = Contract(
        "Legacy",
        [
            StateVar("address", "owner"),
            Fn("", [], [SAssign(Id("owner"), "=", _msg("sender"))], kind="constructor", legacy_ctor=True),
        ],
    )
    return build_unit("legacy", [contract], pragma="^0.4.24", compiler_version="0.4.26")


REGISTRY = {
    "simple_ponzi": simple_ponzi,
    "mini_token": mini_token,
    "pool": pool,
    "caller": caller,
    "init_rule": init_rule,
    "two_contracts": two_contracts,
    "inherit": inherit,
    "multi_base": multi_base,
    "vaulted": vaulted,
    "gated": gated,
    "relay": relay,
    "hollow": hollow,
    "legacy": legacy,
}


# --- generated corpora --------------------------------------------------------


def _core_state() -> list[StateVar]:
    """The state of the corpus core: participants, what each is owed, the
    pot and the payout cursor."""
    return [
        StateVar("address[]", "members"),
        StateVar("uint[]", "owed"),
        StateVar("uint", "pot"),
        StateVar("uint", "cursor"),
    ]


def _deposit(who: Expr, value: Expr) -> list:
    """The corpus core's deposit: `value` joins the pot, and `who` joins the
    participants, owed twice `value`."""
    return [
        SAssign(Id("pot"), "+=", value),
        SExpr(Call(Member(Id("members"), "push"), [who])),
        SExpr(Call(Member(Id("owed"), "push"), [Bin(value, "*", Lit(2))])),
    ]


def _payout() -> Fn:
    """The participant-indexed payout loop that makes the core a Ponzi."""
    return Fn(
        "payout",
        [],
        [
            SWhile(
                Bin(Id("pot"), ">", Index(Id("owed"), Id("cursor"))),
                [
                    SAssign(Id("pot"), "-=", Index(Id("owed"), Id("cursor"))),
                    SExpr(
                        Call(
                            Member(Index(Id("members"), Id("cursor")), "send"),
                            [Index(Id("owed"), Id("cursor"))],
                        )
                    ),
                    SAssign(Id("cursor"), "+=", Lit(1)),
                ],
            )
        ],
    )


def _withdraw_body() -> list:
    """A caller taking `amount` out of the pot: no loop, no indexed send."""
    return [
        SAssign(Id("pot"), "-=", Id("amount")),
        SExpr(Call(Member(Call(Id("payable"), [_msg("sender")]), "send"), [Id("amount")])),
    ]


def random_unit(rng: random.Random, name: str, ponzi: bool) -> tuple[str, dict]:
    """One randomized contract whose shape matches its label.

    Positive programs carry a participant-indexed payout loop; negative
    programs never combine a loop with indexed value transfer, though some
    get a harmless loop so label and surface features stay decoupled.
    """
    cname = "C" + name.title().replace("_", "")
    members: list = _core_state()
    members.append(Fn("join", [], _deposit(_msg("sender"), _msg("value")), mutability="payable"))
    if ponzi:
        members.append(_payout())
    else:
        body = _withdraw_body()
        if rng.random() < 0.5:
            # A loop with no indexed transfer inside keeps surface features
            # from leaking the label.
            body.append(
                SWhile(Bin(Id("cursor"), "<", Lit(3)), [SAssign(Id("cursor"), "+=", Lit(1))])
            )
        members.append(Fn("withdraw", [("uint", "amount")], body))
    for i in range(rng.randrange(3)):
        members.append(
            Fn(
                f"helper{i}",
                [("uint", "x")],
                [SReturn(Bin(Id("x"), "+", Lit(rng.randrange(1, 9))))],
                mutability="pure",
                returns=[("uint", "")],
            )
        )
    return build_unit(name, [Contract(cname, members)])


# --- shape table ----------------------------------------------------------------


_SENDER, _VALUE, _A, _V = _msg("sender"), _msg("value"), Id("a"), Id("v")
_AV = [("address", "a"), ("uint", "v")]
_LAST_PERSON = Index(Id("persons"), Bin(Member(Id("persons"), "length"), "-", Lit(1)))


def _join(body: list, params: list = (), modifiers: list = ()) -> Fn:
    return Fn("join", params, body, mutability="payable", modifiers=modifiers)


def _enter(body: list, params: list = _AV) -> Fn:
    return Fn("enter", params, body, visibility="internal")


# Each shape routes the corpus core's deposit one way: (contracts the shape
# adds before the core's own, the core's members besides its state and its
# payout or withdraw). The payout reads pot, owed, members and cursor.
_SHAPES = {
    "inline": ([], [_join(_deposit(_SENDER, _VALUE))]),
    # join calls an internal helper with the sender and the value.
    "helper": (
        [],
        [_join([SExpr(Call(Id("enter"), [_SENDER, _VALUE]))]), _enter(_deposit(_A, _V))],
    ),
    # A modifier taking the sender and the value deposits them.
    "modifier": (
        [],
        [
            Modifier("deposits", _AV, _deposit(_A, _V) + [SPlaceholder()]),
            _join([], modifiers=[("deposits", [_SENDER, _VALUE])]),
        ],
    ),
    # The payable deposit is declared in a base contract.
    "inherited": ([Contract("Entry", _core_state() + [_join(_deposit(_SENDER, _VALUE))])], []),
    # The core overrides the base's helper and defers to it through super.
    "super": (
        [Contract("Entry", _core_state() + [_enter(_deposit(_A, _V))])],
        [
            _join([SExpr(Call(Id("enter"), [_SENDER, _VALUE]))]),
            _enter([SExpr(Call(Member(Id("super"), "enter"), [_A, _V]))]),
        ],
    ),
    # join calls the two-argument one of two overloads of its helper.
    "overload": (
        [],
        [
            _join([SExpr(Call(Id("enter"), [_SENDER, _VALUE]))]),
            _enter([SAssign(Id("pot"), "+=", _V)], [("uint", "v")]),
            _enter(_deposit(_A, _V)),
        ],
    ),
    # join records the participant as a struct, then deposits from it.
    "struct": (
        [],
        [
            StructDef("Person", [("address", "who"), ("uint", "amount")]),
            StateVar("Person[]", "persons"),
            _join(
                [
                    SExpr(
                        Call(Member(Id("persons"), "push"), [Call(Id("Person"), [_SENDER, _VALUE])])
                    ),
                    SDecl("Person storage", "p", _LAST_PERSON),
                    *_deposit(Member(Id("p"), "who"), Member(Id("p"), "amount")),
                ]
            ),
        ],
    ),
    # A block-local pot, gone by the time the state pot takes the value;
    # the participant and the amount owed come in as arguments.
    "block": (
        [],
        [
            _join(
                [
                    SIf(
                        Bin(Id("owing"), ">", Lit(0)),
                        [
                            SDecl("uint", "pot", Bin(Id("owing"), "/", Lit(2))),
                            SExpr(Call(Id("require"), [Bin(Id("pot"), ">", Lit(0))])),
                        ],
                    ),
                    SAssign(Id("pot"), "+=", _VALUE),
                    SExpr(Call(Member(Id("members"), "push"), [Id("who")])),
                    SExpr(Call(Member(Id("owed"), "push"), [Id("owing")])),
                ],
                [("address", "who"), ("uint", "owing")],
            )
        ],
    ),
}
SHAPES = tuple(_SHAPES)


def shape_unit(shape: str, ponzi: bool, pragma: str = "^0.8.19") -> tuple[str, dict]:
    """The corpus core with its deposit routed as `shape` (see `_SHAPES`):
    with the payout loop when `ponzi`, else with a Ponzi-free withdraw. The
    compiler version is `pragma` without its operator."""
    bases, members = _SHAPES[shape]
    own = [] if bases else _core_state()
    tail = _payout() if ponzi else Fn("withdraw", [("uint", "amount")], _withdraw_body())
    core = Contract("Core", own + members + [tail], [b.name for b in bases])
    version = pragma.lstrip("^>=<~ ")
    return build_unit(f"{shape}_shape", [*bases, core], pragma, version)


def tall_unit(name: str = "tall", lines: int = 500) -> tuple[str, dict]:
    """A contract stretched past `lines` source lines for throughput checks."""
    members: list = [
        StateVar("uint", "pot"),
        StateVar("uint", "spill"),
        Fn("fill", [], [SAssign(Id("pot"), "+=", _msg("value"))], mutability="payable"),
    ]
    i = 0
    while True:
        source, doc = build_unit(name, [Contract("Tall", members)])
        if source.count("\n") >= lines:
            return source, doc
        members.append(
            Fn(
                f"step{i}",
                [("uint", "x")],
                [
                    SDecl("uint", "y", Bin(Id("x"), "+", Lit(i))),
                    SIf(
                        Bin(Id("y"), ">", Id("pot")),
                        [SAssign(Id("spill"), "+=", Id("y"))],
                        [SAssign(Id("spill"), "-=", Lit(1))],
                    ),
                    SReturn(Id("y")),
                ],
                returns=[("uint", "")],
            )
        )
        i += 1


def pay_help_unit(pairs: int, name: str = "wide") -> tuple[str, dict]:
    """A wide-taint contract of `pairs` payable pay<i> functions, each adding
    msg.value to its own state variable and calling its internal help<i>,
    which reads that variable: the shape of the benchmark's large contracts,
    for allocation checks."""
    members: list = []
    for i in range(pairs):
        members += [
            StateVar("uint", f"s{i}"),
            StateVar("uint", f"r{i}"),
            Fn(
                f"pay{i}",
                [],
                [
                    SAssign(Id(f"s{i}"), "+=", _msg("value")),
                    SExpr(Call(Id(f"help{i}"), [Id(f"s{i}")])),
                ],
                mutability="payable",
            ),
            Fn(
                f"help{i}",
                [("uint", "x")],
                [
                    SDecl("uint", "y", Bin(Id(f"s{i}"), "+", Id("x"))),
                    SIf(
                        Bin(Id("y"), ">", Lit(i)),
                        [SAssign(Id(f"r{i}"), "+=", Id("y"))],
                        [SAssign(Id(f"r{i}"), "-=", Lit(1))],
                    ),
                    SReturn(Id("y")),
                ],
                visibility="internal",
                returns=[("uint", "")],
            ),
        ]
    return build_unit(name, [Contract("Wide", members)])


def deep_doc(depth: int, statements: bool = False) -> dict:
    """A one-function contract nested `depth` levels deep: a chain of binary
    operations, or of if statements when `statements`. The chain is spliced
    in as raw AST, since the builders above recurse once per level."""
    _source, doc = build_unit(
        "deep", [Contract("Deep", [StateVar("uint", "x"), Fn("run", [], [SReturn(Id("x"))])])]
    )
    body = doc["sources"]["deep.sol"]["ast"]["nodes"][-1]["nodes"][-1]["body"]
    (ret,) = body["statements"]
    x = dict(ret["expression"])
    node = ret if statements else ret["expression"]
    for _ in range(depth):
        if statements:
            block = {"nodeType": "Block", "statements": [node]}
            node = {"nodeType": "IfStatement", "condition": x, "trueBody": block}
        else:
            node = {
                "nodeType": "BinaryOperation",
                "operator": "+",
                "leftExpression": node,
                "rightExpression": x,
            }
    if statements:
        body["statements"] = [node]
    else:
        ret["expression"] = node
    return doc


def deep_json_text(depth: int) -> str:
    """An AST document whose JSON nests `depth` arrays deep."""
    nodes = "[" * depth + "]" * depth
    return '{"sources": {"deep.sol": {"ast": {"nodeType": "SourceUnit", "nodes": %s}}}}' % nodes
