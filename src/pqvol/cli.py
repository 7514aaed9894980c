"""Command-line interface.

Subcommands map one-to-one onto the library layers: count and
enumeration (count), closed forms (formula), formula-vs-enumeration
ledgers with exception-set identities (verify), the geometric oracle
(ehrhart), single triangle extensions (recurrence), and the exhaustive
small-graph sweep (search).

Output is JSON by default (sorted keys, so identical inputs give
byte-identical bytes); --table renders the same data for reading.
Exit codes: 0 success, 1 a must-hold identity failed, 2 bad input or
out-of-range parameters, 3 a --cap-n or the recursion depth was
exceeded, 141 the reader closed stdout early (as `| head` does;
128 + SIGPIPE).  Rows that merely document a formula discrepancy do
not fail a run; that documentation is the point of the verify command.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import formulas, lost_sequences
from .draconian import ENGINES, count_draconian, enumerate_draconian
from .ehrhart import ehrhart_nvol
from .graphs import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    connected_components,
    delete_cycle,
    delete_path,
    doubling,
    load_graph,
    matching_triangles,
)
from .tripling import recurrence_hypotheses, search_triple_recurrence, verify_partition

DEFAULT_COUNT_CAP = 10
# ehrhart counts n dilates: K_7 takes about 0.5 s, K_8 about 3 s
DEFAULT_DILATE_CAP = 7
# a hard bound, like MAX_VERTICES, set by the task loop: the stream reaches
# n = 8 in seconds, and counting its 11 117 classes takes about 6 min with
# --jobs 2
SEARCH_MAX_N = 8


class UsageError(ValueError):
    """Bad family spec, range, or precondition; maps to exit code 2."""


class EnumerationCapExceeded(RuntimeError):
    """An input is over its command's --cap-n; maps to exit code 3."""


def check_cap(what: str, size: int, cap: int):
    """Refuse an input whose vertex count is over cap (exit 3).

    Every --cap-n is checked here, by the command, before any work
    starts, so each refusal reads the same: the quantity, its size, the
    cap and the option.  Hard bounds (MAX_VERTICES, SEARCH_MAX_N) have
    no option to raise them and exit 2.
    """
    if size > cap:
        raise EnumerationCapExceeded(
            f"{what} has {size} vertices, over the cap {cap}; raise --cap-n to force this"
        )


class Family(NamedTuple):
    """Everything the CLI knows about one family, keyed by name in FAMILIES.

    A spec's parameters are the arguments of build, formula and size.
    Only the families verify knows have a row builder, with the smallest
    n and the valid m range at n that cmd_verify checks before any row.
    """

    build: Callable[..., Graph]
    formula: Callable[..., object]
    arity: int
    size: Callable[..., int]
    smallest: int | None = None
    m_range: Callable[[int], tuple[int, int]] | None = None
    row: Callable[[int, int], dict] | None = None


def parse_family(spec: str, cap: int | None = None) -> tuple[str, tuple[int, ...]]:
    """Name and parameters of a family spec.

    A family's vertex count is known from its parameters, so a spec over
    cap (exit 3) or over MAX_VERTICES (exit 2), the bound graph files
    have, is refused before any edge is built or closed form evaluated.
    """
    name, _, tail = spec.partition(":")
    if name not in FAMILIES:
        raise UsageError(f"unknown family {name!r}, expected one of {tuple(FAMILIES)}")
    family = FAMILIES[name]
    want = family.arity
    if not tail:
        raise UsageError(f"family {name} needs parameters, e.g. {name}:"
                         + ",".join(("5", "2")[:want]))
    try:
        params = tuple(int(p) for p in tail.split(","))
    except ValueError:
        raise UsageError(f"family parameters must be integers, got {tail!r}")
    if len(params) != want:
        raise UsageError(f"family {name} takes {want} parameter(s), got {len(params)}")
    size = family.size(*params)
    if cap is not None:
        check_cap(f"family {spec}", size, cap)
    if size > MAX_VERTICES:
        raise UsageError(f"family {spec} has {size} vertices, over {MAX_VERTICES}")
    return name, params


def positive_int(text: str) -> int:
    """argparse type for --jobs and --cap-n: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_range(text: str, lo_default: int, hi_default: int) -> range:
    """A value 'k' or an inclusive range 'a..b'; either end may be omitted.

    An open end takes its default but never passes the other end, so
    only a range with both ends given can be empty.
    """
    text = text.strip()
    try:
        if ".." not in text:
            k = int(text)
            return range(k, k + 1)
        lo_s, hi_s = text.split("..", 1)
        lo = int(lo_s) if lo_s else lo_default
        hi = int(hi_s) if hi_s else max(hi_default, lo)
        if not lo_s:
            lo = min(lo, hi)
    except ValueError:
        raise UsageError(f"expected an integer or a range a..b, got {text!r}")
    if hi < lo:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def load_input_graph(args) -> Graph:
    """The graph named by --graph or --family, a family bounded by parse_family."""
    if args.graph:
        return load_graph(args.graph)
    if args.family:
        name, params = parse_family(args.family, args.cap_n)
        return FAMILIES[name].build(*params)
    raise UsageError("give a graph with --graph FILE or --family SPEC")


def emit(args, payload: dict, table_lines) -> None:
    if args.table:
        for line in table_lines:
            print(line)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def cmd_count(args) -> int:
    g = load_input_graph(args)
    comps = connected_components(g)
    check_cap("largest component", max(map(len, comps)), args.cap_n)
    if args.list:
        if len(comps) != 1:
            raise UsageError(
                "--list needs a connected graph: for disconnected input the volume "
                "is a product over components, not the size of one sequence set"
            )
        for c in enumerate_draconian(doubling(g), args.engine):
            print(" ".join(str(x) for x in c))
        return 0
    report = count_draconian(g, engine=args.engine)
    payload = report.to_dict()
    if not args.timing:
        del payload["elapsed_ms"]
    lines = [
        f"graph    {report.graph}",
        f"count    {report.count}",
        f"method   {report.method}",
    ] + [f"note     {note}" for note in report.notes]
    emit(args, payload, lines)
    return 0


def cmd_formula(args) -> int:
    name, params = parse_family(args.family)
    result = FAMILIES[name].formula(*params)
    # a closed form with several readings returns a NamedTuple, one value per field
    fields = result._asdict() if hasattr(result, "_asdict") else {"value": result}
    values = {k: str(v) for k, v in fields.items()}
    payload = {"family": name, "params": list(params), "values": values}
    lines = [f"{k:<11} {v}" for k, v in sorted(values.items())]
    emit(args, payload, lines)
    return 0


def _matching_row(n: int, m: int) -> dict:
    formula = formulas.nvol_matching_triangles(n, m)
    if m == 0:
        enum, partition_holds = count_draconian(complete_graph(n)).count, None
    else:
        # the step's extended graph is matching-triangles (n, m) itself
        prev = matching_triangles(n, m - 1)
        step = verify_partition(prev, (2 * m - 1, 2 * m), matching_mode=True)
        enum, partition_holds = step.extended_count, step.partition_holds
    return {
        "n": n,
        "m": m,
        "enumeration": str(enum),
        "formula": str(formula),
        "formula_matches": enum == formula,
        "partition_holds": partition_holds,
        "must_hold": enum == formula and partition_holds in (None, True),
    }


def _path_row(n: int, m: int) -> dict:
    report = lost_sequences.verify_path_identity(n, m)
    readings = formulas.nvol_path_deleted(n, m)
    actual = report.cardinalities["actual"]
    enum = actual["deleted_count"]
    which = {
        (True, True): "both",
        (True, False): "as_printed",
        (False, True): "grouped",
        (False, False): "neither",
    }[(readings.as_printed == enum, readings.grouped == enum)]
    return {
        "n": n,
        "m": m,
        "enumeration": str(enum),
        "formula_as_printed": str(readings.as_printed),
        "formula_grouped": str(readings.grouped),
        "matching_reading": which,
        "identity": report.to_dict(),
        "must_hold": report.identity_holds and enum == actual["complete_count"] - actual["union"],
    }


def _cycle_row(n: int, m: int) -> dict:
    report = lost_sequences.verify_cycle_identity(n, m)
    formula = formulas.nvol_cycle_deleted(n, m)
    enum = report.cardinalities["actual"]["deleted_count"]
    return {
        "n": n,
        "m": m,
        "enumeration": str(enum),
        "formula": str(formula),
        "formula_matches": formula == enum,
        "identity": report.to_dict(),
        "must_hold": report.identity_holds and bool(report.pairwise_disjoint),
    }


# family name -> Family, in the order refusals list them; matching-triangles:n,m
# glues one apex per matching edge, so it has n + m vertices
FAMILIES = {
    "complete": Family(complete_graph, formulas.nvol_complete, 1, lambda n: n),
    "matching-triangles": Family(
        matching_triangles, formulas.nvol_matching_triangles, 2, lambda n, m: n + m,
        smallest=2, m_range=lambda n: (0, n // 2), row=_matching_row),
    "path-deleted": Family(
        delete_path, formulas.nvol_path_deleted, 2, lambda n, m: n,
        smallest=4, m_range=lambda n: (2, n - 1), row=_path_row),
    "cycle-deleted": Family(
        delete_cycle, formulas.nvol_cycle_deleted, 2, lambda n, m: n,
        smallest=5, m_range=lambda n: (3, n), row=_cycle_row),
}


def _verify_line(row: dict) -> str:
    bits = [f"n={row['n']}", f"m={row['m']}", f"enum={row['enumeration']}"]
    if "formula" in row:
        bits.append(f"formula={row['formula']}")
        bits.append("match" if row["formula_matches"] else "MISMATCH")
    else:
        bits.append(f"as_printed={row['formula_as_printed']}")
        bits.append(f"grouped={row['formula_grouped']}")
        bits.append(f"reading={row['matching_reading']}")
    if "identity" in row:
        bits.append("identity=ok" if row["identity"]["identity_holds"] else "identity=FAIL")
    if row.get("partition_holds") is not None:
        bits.append("partition=ok" if row["partition_holds"] else "partition=FAIL")
    bits.append("must_hold=yes" if row["must_hold"] else "MUST-HOLD FAILED")
    return "  ".join(bits)


def cmd_verify(args) -> int:
    verifiable = [name for name, family in FAMILIES.items() if family.row is not None]
    if args.family not in verifiable:
        raise UsageError(f"verify knows {', '.join(verifiable)}; got {args.family!r}")
    family = FAMILIES[args.family]
    # an explicit top of --n is checked against the cap before --m is read
    ns = parse_range(args.n, family.smallest, args.cap_n)
    check_cap(f"K_{ns[-1]}, the top of --n {args.n},", ns[-1], args.cap_n)
    if ns[0] < family.smallest:
        raise UsageError(f"need n >= {family.smallest}, got {ns[0]}")
    plan = []
    for n in ns:
        lo, hi = family.m_range(n)
        ms = parse_range(args.m, lo, hi)
        if ms[0] < lo or ms[-1] > hi:
            raise UsageError(f"--m {args.m} is outside {lo}..{hi} at n = {n}")
        plan.append((n, ms))
    # an open top of --n is the largest n whose largest row, (n, top m at n), fits
    if args.n.strip().endswith(".."):
        while len(plan) > 1 and family.size(plan[-1][0], plan[-1][1][-1]) > args.cap_n:
            plan.pop()
    # row (n, m) enumerates graphs of at most family.size(n, m) vertices
    n, m = max(((n, ms[-1]) for n, ms in plan), key=lambda row: family.size(*row))
    check_cap(f"{args.family}:{n},{m}, the largest graph of --n {args.n} --m {args.m},",
              family.size(n, m), args.cap_n)
    rows = [family.row(n, m) for n, ms in plan for m in ms]
    ok = all(row["must_hold"] for row in rows)
    payload = {"family": args.family, "rows": rows, "all_must_hold": ok}
    emit(args, payload, map(_verify_line, rows))
    return 0 if ok else 1


def cmd_ehrhart(args) -> int:
    g = load_input_graph(args)
    check_cap("graph", g.n, args.cap_n)
    table = ehrhart_nvol(g)
    payload = {"graph": g.descriptor(), **table.to_dict()}
    lines = [
        f"graph      {g.descriptor()}",
        f"dimension  {table.dimension}",
        f"counts     {' '.join(str(c) for c in table.counts)}",
        f"nvol       {table.nvol}",
    ]
    emit(args, payload, lines)
    return 0


def cmd_recurrence(args) -> int:
    g = load_input_graph(args)
    check_cap("graph", g.n, args.cap_n)
    try:
        u, v = (int(x) for x in args.edge.split(","))
    except ValueError:
        raise UsageError(f"--edge wants 'u,v', got {args.edge!r}")
    report = verify_partition(g, (u, v))
    hyp = recurrence_hypotheses(g, (u, v))
    ratio = Fraction(report.extended_count, report.base_count) if report.base_count else None
    payload = report.to_dict()
    payload["hypotheses_hold"] = hyp
    payload["ratio"] = str(ratio) if ratio is not None else None
    lines = [
        f"graph       {report.graph}",
        f"edge        {report.edge[0]},{report.edge[1]}",
        f"base        {report.base_count}",
        f"extended    {report.extended_count}",
        f"ratio       {ratio}",
        f"triples     {report.triples}",
        f"hypotheses  {hyp}",
        f"partition   {report.partition_holds}",
    ]
    emit(args, payload, lines)
    return 0 if (not hyp or report.triples) else 1


def cmd_search(args) -> int:
    if args.n_max > SEARCH_MAX_N:
        raise UsageError(f"search is capped at {SEARCH_MAX_N} vertices, got --n-max {args.n_max}")
    if args.n_max < 2:
        raise UsageError(f"search needs --n-max of at least 2, got {args.n_max}")
    records = search_triple_recurrence(args.n_max, jobs=args.jobs)
    forbidden = [r for r in records if r["hypotheses_hold"] and not r["triples"]]
    if args.table:
        for r in records:
            print(f"{r['category']:<24} {r['graph_encoding']:<40} "
                  f"edge={r['edge'][0]},{r['edge'][1]} "
                  f"{r['counts']['base']} -> {r['counts']['extended']}")
    else:
        for r in records:
            print(json.dumps(r, sort_keys=True))
    if forbidden:
        print(
            f"ALARM: {len(forbidden)} record(s) satisfy the degree hypotheses "
            f"but do not triple; this contradicts a proved identity",
            file=sys.stderr,
        )
        return 1
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process, on main's first call.

    parse_args leaves the parser as it was and returns a new namespace,
    so later calls share it.  Building it takes about 0.8 ms (2 vCPUs,
    Python 3.11); it is not built at import.
    """
    parser = argparse.ArgumentParser(
        prog="pqvol",
        description="Normalized volumes of adjacency polytopes of ordered pairs, "
                    "by draconian sequence enumeration",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        p.add_argument("--graph", help="path to a graph file (line 1: n; then 'u v' lines)")
        p.add_argument("--family", help="family spec, e.g. complete:5 or path-deleted:5,2")

    def add_render(p):
        p.add_argument("--table", action="store_true", help="human-readable output, not JSON")

    def add_cap(p, default, help):
        p.add_argument("--cap-n", type=positive_int, default=default, metavar="N",
                       help=f"{help} (default {default})")

    p = sub.add_parser("count", help="count draconian sequences / normalized volume")
    add_graph_source(p)
    p.add_argument("--engine", choices=ENGINES, default="subset")
    p.add_argument("--list", action="store_true", help="print the sequences, one per line")
    add_cap(p, DEFAULT_COUNT_CAP, "refuse components larger than N")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed_ms (off by default so outputs are reproducible)")
    add_render(p)
    p.set_defaults(run=cmd_count)

    p = sub.add_parser("formula", help="closed-form values for a family")
    p.add_argument("--family", required=True)
    add_render(p)
    p.set_defaults(run=cmd_formula)

    p = sub.add_parser("verify", help="formula and set-identity ledger over parameter ranges")
    p.add_argument("--family", required=True)
    p.add_argument("--n", required=True, help="value or range a..b")
    p.add_argument("--m", default="..", help="value or range a..b (default: all valid)")
    add_cap(p, DEFAULT_COUNT_CAP, "enumeration cap")
    add_render(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("ehrhart", help="geometric volume via lattice-point counting")
    add_graph_source(p)
    add_cap(p, DEFAULT_DILATE_CAP, "dilate-counting cap")
    add_render(p)
    p.set_defaults(run=cmd_ehrhart)

    p = sub.add_parser("recurrence", help="measure one triangle extension")
    add_graph_source(p)
    p.add_argument("--edge", required=True, metavar="U,V")
    add_cap(p, DEFAULT_COUNT_CAP, "refuse graphs larger than N")
    add_render(p)
    p.set_defaults(run=cmd_recurrence)

    p = sub.add_parser("search", help="sweep small graphs for the tripling boundary")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=positive_int, default=1, help="worker processes (>= 1)")
    add_render(p)
    p.set_defaults(run=cmd_search)

    return parser


def glue_negative_ranges(argv: list[str]) -> list[str]:
    """argv with each value like -2..5 joined to the option before it.

    argparse reads a token that starts with '-' and is not a plain
    negative number as an option, so `verify --n -2..5` stopped at
    "expected one argument" before parse_range saw the range.  No option
    name holds '..', so such a token is always a value: `--n -2..5`
    becomes `--n=-2..5`, which argparse passes on as it is.
    """
    out: list[str] = []
    for token in argv:
        if (token.startswith("-") and ".." in token and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(glue_negative_ranges(argv))
    try:
        code = args.run(args)
        # flush here so a closed pipe surfaces below, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has all it wants; point stdout at devnull so the final
        # flush of what is still buffered cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("error: the input is deeper than Python's recursion limit: each walk "
              "recurses once per vertex or column in play", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
