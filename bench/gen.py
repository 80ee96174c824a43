"""Seeded benchmark inputs, built on the `tests/astgen.py` builders.

Every contract is rendered by exactly one `build_unit` call, so generation
time grows linearly with contract size (the `tests/programs.tall_unit`
helper rebuilds the unit after each added function and is quadratic).

    python3 bench/gen.py --workload monolith --seed 1 --out DIR

writes the inputs of one workload into DIR: `mono_<k>.json` AST documents
for `monolith`, or `<id>.json` documents plus `manifest.csv` for the
corpus workloads. The same seed always writes the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from astgen import (  # noqa: E402
    Bin,
    Call,
    Contract,
    Fn,
    Id,
    Index,
    Lit,
    Member,
    SAssign,
    SDecl,
    SExpr,
    SIf,
    SReturn,
    StateVar,
    SWhile,
    build_unit,
)

# monolith: per contract, PAIRS payable entry points (each with its own
# internal helper) and PLAIN untainted functions; about 20k source lines.
MONOLITH_FILES = 3
MONOLITH_PAIRS = 800
MONOLITH_PLAIN = 400

# Corpora: contracts come in blocks of SIZE_BANDS, one per size band, half
# of each block Ponzi-shaped, so any prefix of the corpus has about the
# same size and label mix whatever the seed.
CORPUS_SIZE = {"corpus_mock": 400, "corpus_http": 200}
SIZE_BANDS = 10
MAX_FILLERS = 30


def _msg(member: str) -> Member:
    return Member(Id("msg"), member)


def _plain(name: str, state: str, k: int) -> Fn:
    """Untainted public function: reads only its parameter and own state."""
    return Fn(
        name,
        [("uint", "x")],
        [
            SDecl("uint", "y", Bin(Id("x"), "+", Lit(k))),
            SIf(
                Bin(Id("y"), ">", Id(state)),
                [SAssign(Id(state), "=", Id("y"))],
                [SAssign(Id(state), "-=", Lit(1))],
            ),
            SReturn(Id("y")),
        ],
        returns=[("uint", "")],
    )


def monolith_unit(rng: random.Random, name: str, pairs: int, plain: int) -> tuple[str, dict]:
    """One wide-taint contract.

    Each pair is a payable `pay<i>` that adds msg.value to its own state
    variable and calls internal `help<i>`, which reads that variable: both
    functions are selected. Plain functions touch no tainted name.
    """
    state: list = []
    functions: list = []
    for i in range(pairs):
        state += [StateVar("uint", f"s{i}"), StateVar("uint", f"r{i}")]
        functions.append(
            Fn(
                f"pay{i}",
                [],
                [
                    SAssign(Id(f"s{i}"), "+=", _msg("value")),
                    SExpr(Call(Id(f"help{i}"), [Id(f"s{i}")])),
                ],
                mutability="payable",
            )
        )
        functions.append(
            Fn(
                f"help{i}",
                [("uint", "x")],
                [
                    SDecl("uint", "y", Bin(Id(f"s{i}"), "+", Id("x"))),
                    SIf(
                        Bin(Id("y"), ">", Lit(rng.randrange(1, 10**6))),
                        [SAssign(Id(f"r{i}"), "+=", Id("y"))],
                        [SAssign(Id(f"r{i}"), "-=", Lit(1))],
                    ),
                    SReturn(Id("y")),
                ],
                visibility="internal",
                returns=[("uint", "")],
            )
        )
    for j in range(plain):
        state.append(StateVar("uint", f"t{j}"))
        functions.append(_plain(f"step{j}", f"t{j}", rng.randrange(1, 10**6)))
    rng.shuffle(functions)
    return build_unit(name, [Contract("Mono" + name.title().replace("_", ""), state + functions)])


def corpus_unit(rng: random.Random, name: str, ponzi: bool, fillers: int) -> tuple[str, dict]:
    """One small contract whose shape matches its label.

    The core follows `tests/programs.random_unit`: positives carry a
    participant-indexed payout loop, negatives never combine a loop with an
    indexed transfer. Fillers set the size: half are payable and tainted,
    so they also grow the slice and the prompt.
    """
    members: list = [
        StateVar("address[]", "members"),
        StateVar("uint[]", "owed"),
        StateVar("uint", "pot"),
        StateVar("uint", "cursor"),
        Fn(
            "join",
            [],
            [
                SAssign(Id("pot"), "+=", _msg("value")),
                SExpr(Call(Member(Id("members"), "push"), [_msg("sender")])),
                SExpr(Call(Member(Id("owed"), "push"), [Bin(_msg("value"), "*", Lit(2))])),
            ],
            mutability="payable",
        ),
    ]
    if ponzi:
        members.append(
            Fn(
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
        )
    else:
        body = [
            SAssign(Id("pot"), "-=", Id("amount")),
            SExpr(Call(Member(Call(Id("payable"), [_msg("sender")]), "send"), [Id("amount")])),
        ]
        if rng.random() < 0.5:
            body.append(
                SWhile(Bin(Id("cursor"), "<", Lit(3)), [SAssign(Id("cursor"), "+=", Lit(1))])
            )
        members.append(Fn("withdraw", [("uint", "amount")], body))
    for k in range(fillers):
        if k % 2:
            members.append(StateVar("uint", f"t{k}"))
            members.append(_plain(f"step{k}", f"t{k}", rng.randrange(1, 1000)))
        else:
            members.append(StateVar("uint", f"tally{k}"))
            members.append(
                Fn(
                    f"tip{k}",
                    [],
                    [SAssign(Id(f"tally{k}"), "+=", Bin(_msg("value"), "/", Lit(rng.randrange(1, 9))))],
                    mutability="payable",
                )
            )
    return build_unit(name, [Contract("C" + name.title().replace("_", ""), members)])


def corpus_plan(rng: random.Random, size: int) -> list[tuple[str, bool, int]]:
    """(id, is_ponzi, fillers) per contract, stratified in blocks."""
    plan: list[tuple[str, bool, int]] = []
    band = (MAX_FILLERS + 1) / SIZE_BANDS
    for block in range(size // SIZE_BANDS):
        labels = [True, False] * (SIZE_BANDS // 2)
        rng.shuffle(labels)
        rows = [(labels[b], int(band * (b + rng.random()))) for b in range(SIZE_BANDS)]
        rng.shuffle(rows)
        for i, (ponzi, fillers) in enumerate(rows):
            idx = block * SIZE_BANDS + i
            plan.append((f"{'p' if ponzi else 'n'}{idx:04d}", ponzi, fillers))
    return plan


def write_inputs(workload: str, seed: int, out: Path, scale: float = 1.0) -> None:
    """Write one workload's inputs into `out` (created if missing).

    `scale` shrinks the inputs for the harness self-check only.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "monolith":
        pairs = max(1, int(MONOLITH_PAIRS * scale))
        plain = max(1, int(MONOLITH_PLAIN * scale))
        for k in range(MONOLITH_FILES):
            _source, doc = monolith_unit(rng, f"mono_{k}", pairs, plain)
            (out / f"mono_{k}.json").write_text(json.dumps(doc))
        return
    size = max(SIZE_BANDS, int(CORPUS_SIZE[workload] * scale) // SIZE_BANDS * SIZE_BANDS)
    rows = []
    for cid, ponzi, fillers in corpus_plan(rng, size):
        _source, doc = corpus_unit(rng, cid, ponzi, fillers)
        path = out / f"{cid}.json"
        path.write_text(json.dumps(doc))
        rows.append((cid, str(path), "ponzi" if ponzi else "non_ponzi"))
    with (out / "manifest.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "path_or_address", "label"])
        writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["monolith", *CORPUS_SIZE])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    write_inputs(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
