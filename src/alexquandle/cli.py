"""Command-line interface.

Module specs:
    linear:n:a          Z_n with t = multiplication by a, gcd(n, a) = 1
    poly:n:c0,c1,...,1  Z_n[t] / (c0 + c1 t + ... + t^d), ascending, monic
    sum:<spec>+<spec>   direct sum of two or more non-sum specs
    0                   the trivial module, as classify 1 names it
    pair:F:I            t on the group Z_d1 + ... + Z_dk given inline, as
                        classify prints it: F is d1,...,dk and I the
                        coordinates of t(e_1);...;t(e_k), e.g. pair:3,9:2,0;1,2
    pair:@file.json     {"invariant_factors": [...], "t_generator_images": [[...], ...]}
    table:@file         a raw table, JSON {"order": n, "table": [[...]]} or
                        whitespace-separated rows

Each report command (orbits, im1t, classify, table1, table2) builds one
record and _print_report prints it in the --format asked for: JSON, CSV
rows or text lines.

A command imports the table layer (``quandle``), ``linear``, ``json`` and
``csv`` only when it uses them, so ``classify`` loads none of them.

Exit codes: 0 predicate true / success, 1 predicate false or axiom failure,
2 malformed spec or usage, 3 invalid input values, 4 internal error,
including disagreement between deciders, 141 (128 + SIGPIPE) when the
reader closes stdout early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .classify import classify_order, count_table, table1_report
from .lambda_module import (
    LambdaModule,
    _decimal,
    descriptor_from_json_dict,
    descriptor_str,
    identify_as_quotient,
    image_one_minus_t,
    module_from_descriptor,
)

DEFAULT_MAX_ORDER = 15  # the size guard when QUANDLE_MAX_ORDER is unset


class SpecParseError(ValueError):
    """A spec string that cannot be parsed; position is a 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _parse_int(token: str, position: int) -> int:
    try:
        return _decimal(token)
    except ValueError as exc:
        raise SpecParseError(str(exc), position) from None


def _integer(token: str) -> int:
    """An argparse type: the integer token spells, read as spec integers are."""
    try:
        return _decimal(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fields(text: str, position: int, sep: str):
    """Yield each sep-separated field of text, which starts at position,
    with the position of the field."""
    for field in text.split(sep):
        yield field, position
        position += len(field) + 1


def _parse_ints(text: str, position: int) -> tuple[int, ...]:
    """The comma-separated integers of text, which starts at position."""
    return tuple(_parse_int(token, at) for token, at in _fields(text, position, ","))


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _load_json(raw: str, path: str):
    import json

    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON in {path}: {exc}") from None


def _read_spec(text: str, base: int) -> tuple:
    """The descriptor a module spec names, read without building it; text
    starts at offset base of the whole spec, which error positions count from."""
    if text == "0":
        return ("sum", ())
    if text.startswith("linear:"):
        parts = text[7:].split(":")
        if len(parts) != 2:
            raise SpecParseError("linear spec needs exactly linear:n:a", base + 7)
        n = _parse_int(parts[0], base + 7)
        return ("linear", n, _parse_int(parts[1], base + 8 + len(parts[0])))
    if text.startswith("poly:"):
        parts = text[5:].split(":")
        if len(parts) != 2:
            raise SpecParseError("poly spec needs exactly poly:n:c0,c1,...", base + 5)
        n = _parse_int(parts[0], base + 5)
        return ("poly", n, _parse_ints(parts[1], base + 6 + len(parts[0])))
    if text.startswith("sum:"):
        pieces = []
        for comp, offset in _fields(text[4:], base + 4, "+"):
            if comp.startswith("sum:"):
                raise SpecParseError("sum components cannot be sums", offset)
            if not comp:
                raise SpecParseError("empty sum component", offset)
            if comp.startswith("table:"):
                raise SpecParseError("sum components must be modules", offset)
            pieces.append(comp if comp.startswith("pair:@") else _read_spec(comp, offset))
        if len(pieces) < 2:
            raise SpecParseError("sum needs at least two components", base + 4)
        # a pair:@ file is read only once the whole spec's syntax is known good
        return ("sum", tuple(_read_spec(p, 0) if isinstance(p, str) else p for p in pieces))
    if text.startswith("pair:"):
        body = text[5:]
        if body.startswith("@"):
            return descriptor_from_json_dict(_load_json(_read_file(body[1:]), body[1:]))
        parts = body.split(":")
        if len(parts) != 2:
            raise SpecParseError(
                "pair spec needs pair:d1,...,dk:image;...;image or pair:@file.json",
                base + 5,
            )
        factors = _parse_ints(parts[0], base + 5)
        images = _fields(parts[1], base + 6 + len(parts[0]), ";")
        return ("pair", factors, tuple(_parse_ints(*field) for field in images))
    raise SpecParseError(
        "spec must be 0 or start with linear:, poly:, sum:, pair:, or table:@", base
    )


def parse_spec(text: str):
    """Parse a spec string into a LambdaModule or QuandleTable.

    A module spec is read whole into its descriptor, and only then built
    by ``module_from_descriptor``. SpecParseError (syntax, with offending
    position) is distinct from ValueError (well-formed but invalid values,
    e.g. gcd(n, a) != 1, or an unreadable file).
    """
    if not text.startswith("table:"):
        return module_from_descriptor(_read_spec(text, 0))
    body = text[6:]
    if not body.startswith("@"):
        raise SpecParseError("table spec takes a file: table:@file", 6)
    from .quandle import table_from_json_dict, table_from_text

    raw = _read_file(body[1:])
    if raw.lstrip().startswith("{"):
        return table_from_json_dict(_load_json(raw, body[1:]))
    return table_from_text(raw)


def _as_table(thing):
    """The table of a parsed spec: a raw table once it passes the quandle
    axioms, or a module's Cayley table."""
    from .quandle import QuandleTable, alexander_table, check_axioms

    if isinstance(thing, QuandleTable):
        bad = check_axioms(thing)
        if bad is not None:
            axiom, witness = bad
            raise ValueError(
                f"table violates quandle axiom ({axiom}) at {witness}"
            )
        return thing
    return alexander_table(thing)


def _emit_table(table, args) -> None:
    from .quandle import table_to_json_dict, table_to_text

    if args.format == "text":
        out = table_to_text(table) + "\n"
    else:
        import json

        out = json.dumps(table_to_json_dict(table)) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    elif not hasattr(sys.stdout, "buffer"):
        # a text-only stream, such as io.StringIO, has no raw file behind it
        sys.stdout.write(out)
    else:
        # an unbuffered stdout writes through to a raw file, which may take
        # only part of a large table and drop the rest silently
        sys.stdout.flush()
        data = memoryview(out.encode(sys.stdout.encoding))
        while data:
            data = data[sys.stdout.buffer.write(data):]


def _cmd_build(args) -> int:
    module = parse_spec(args.spec)
    table = _as_table(module)
    _emit_table(table, args)
    return 0


def _cmd_axioms(args) -> int:
    from .quandle import QuandleTable, alexander_table, check_axioms

    thing = parse_spec(args.spec)
    table = thing if isinstance(thing, QuandleTable) else alexander_table(thing)
    bad = check_axioms(table)
    if bad is None:
        print("pass")
        return 0
    axiom, witness = bad
    print(f"axiom ({axiom}) fails at {witness}")
    return 1


def _cmd_iso(args) -> int:
    from .quandle import brute_iso, construct_quandle_iso, theorem1_iso

    left, right = parse_spec(args.left), parse_spec(args.right)
    modules = isinstance(left, LambdaModule) and isinstance(right, LambdaModule)
    if args.method in ("theorem1", "both") and not modules:
        raise ValueError("--method theorem1 and both need module specs, not tables")
    if args.method == "theorem1" and args.witness:
        witness = construct_quandle_iso(left, right)
        verdict = witness is not None
    elif args.method == "theorem1":
        verdict = theorem1_iso(left, right)
    elif args.method == "brute":
        witness = brute_iso(_as_table(left), _as_table(right))
        verdict = witness is not None
    else:
        verdict = theorem1_iso(left, right)
        brute = brute_iso(_as_table(left), _as_table(right))
        if verdict != (brute is not None):
            print(
                "internal error: theorem1 and brute-force deciders disagree on "
                f"{args.left} vs {args.right}",
                file=sys.stderr,
            )
            return 4
        witness = brute
    print("true" if verdict else "false")
    if verdict and args.witness:
        print(" ".join(str(v) for v in witness.map))
    return 0 if verdict else 1


def _cmd_dual(args) -> int:
    from .quandle import dual

    table = _as_table(parse_spec(args.spec))
    d = dual(table)
    if dual(d).rows != table.rows:
        print("internal error: dual is not an involution", file=sys.stderr)
        return 4
    _emit_table(d, args)
    return 0


def _print_report(args, data, text, rows=()) -> None:
    """Print one report in args.format: data as JSON, rows as CSV, or the
    text lines."""
    if args.format == "json":
        import json

        print(json.dumps(data))
    elif args.format == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in text:
            print(line)


def _cmd_orbits(args) -> int:
    from .quandle import orbits

    orbs = orbits(_as_table(parse_spec(args.spec)))
    connected = len(orbs) == 1
    text = [" ".join(map(str, orb)) for orb in orbs]
    text.append(f"connected: {'true' if connected else 'false'}")
    _print_report(args, {"orbits": orbs, "connected": connected}, text)
    return 0


def _cmd_im1t(args) -> int:
    module = parse_spec(args.spec)
    if not isinstance(module, LambdaModule):
        raise ValueError("im1t needs a module spec, not a table")
    sub = image_one_minus_t(module)
    members, abstract = sorted(sub.from_abstract), sub.as_module
    if args.power == 2:
        # (1-t)^2 M is the image of the abstract Im(1-t), read back into M
        inner = image_one_minus_t(abstract)
        members = sorted(map(sub.from_abstract.__getitem__, inner.from_abstract))
        abstract = inner.as_module
    factors = list(abstract.group.invariant_factors)
    info = {"members": members, "invariant_factors": factors}
    text = [
        "members: " + " ".join(map(str, members)),
        "group: " + (",".join(map(str, factors)) or "1"),
    ]
    if args.identify:
        desc = identify_as_quotient(abstract)
        info["identified"] = None if desc is None else descriptor_str(desc)
        text.append(f"identified: {info['identified'] or 'none'}")
    _print_report(args, info, text)
    return 0


# each linear subcommand's function in ``linear`` and the positionals it takes
_LINEAR = {
    "iso": ("linear_iso", ("n", "a", "b")),
    "connected": ("linear_connected", ("n", "a")),
    "dual": ("linear_dual", ("n", "a", "b")),
    "selfdual": ("linear_self_dual", ("n", "a")),
    "ncap": ("n_cap", ("n", "a")),
}


def _cmd_linear(args) -> int:
    from . import linear

    name, params = _LINEAR[args.linear_cmd]
    value = getattr(linear, name)(*(getattr(args, param) for param in params))
    if args.linear_cmd == "ncap":
        print(value)
        return 0
    print("true" if value else "false")
    return 0 if value else 1


def _check_guard(n: int) -> None:
    raw = os.environ.get("QUANDLE_MAX_ORDER", "")
    try:
        guard = _decimal(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        raise ValueError(f"QUANDLE_MAX_ORDER must be an integer, got {raw!r}") from None
    if n > guard:
        raise ValueError(
            f"order {n} exceeds the guard {guard}; raise QUANDLE_MAX_ORDER to allow"
        )


def _cmd_classify(args) -> int:
    _check_guard(args.order)
    data = classify_order(args.order).to_json_dict()
    if args.connected_only:
        data["classes"] = [c for c in data["classes"] if c["connected"]]
    text = [f"order {data['order']}: {data['distinct']} distinct, {data['connected']} connected"]
    rows = [["representative", "connected", "class_size_in_enumeration"]]
    for c in data["classes"]:
        rep, size = c["representative"], c["class_size_in_enumeration"]
        flag = "connected" if c["connected"] else "not connected"
        text.append(f"  {rep:<40} {flag:<14} size {size}")
        rows.append([rep, "true" if c["connected"] else "false", size])
    _print_report(args, data, text, rows)
    return 0


def _cmd_table1(args) -> int:
    data, text = [], []
    for group, desc, img in table1_report():
        module, image = descriptor_str(desc), descriptor_str(img)
        data.append({"group": list(group), "module": module, "image": image})
        label = "+".join(f"Z{d}" for d in group)
        text.append(f"{label:<10} {module:<44} -> {image}")
    _print_report(args, data, text)
    return 0


def _cmd_table2(args) -> int:
    _check_guard(args.max)
    rows = [("n", "distinct", "connected"), *count_table(args.max)]
    data = [{"order": n, "distinct": d, "connected": c} for n, d, c in rows[1:]]
    _print_report(args, data, [f"{n:>3} {d:>9} {c:>10}" for n, d, c in rows], rows)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    each parse_args call fills a fresh namespace from its defaults."""
    parser = argparse.ArgumentParser(
        prog="alexquandle",
        description="Finite Alexander quandles: build, test, classify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *positionals, type=None, parent=sub, **kwargs):
        """Add subcommand name, run by func, with its positionals."""
        p = parent.add_parser(name, **kwargs)
        for dest in positionals:
            p.add_argument(dest, type=type)
        p.set_defaults(func=func)
        return p

    def add_format(p, *more, default="text"):
        p.add_argument("--format", choices=["text", "json", *more], default=default)

    p = command("build", _cmd_build, "spec", help="emit the Cayley table of a module spec")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    add_format(p, default="json")
    command("axioms", _cmd_axioms, "spec", help="check the quandle axioms")
    p = command("iso", _cmd_iso, "left", "right", help="decide isomorphism of two quandles")
    p.add_argument("--method", choices=["theorem1", "brute", "both"], default="theorem1")
    p.add_argument("--witness", action="store_true", help="print an explicit bijection")
    p = command("dual", _cmd_dual, "spec", help="emit the dual table")
    p.add_argument("-o", "--output")
    add_format(p, default="json")
    add_format(command("orbits", _cmd_orbits, "spec", help="list orbits and connectivity"))
    p = command("im1t", _cmd_im1t, "spec", help="the Im(1-t) submodule of a module spec")
    p.add_argument("--power", type=_integer, choices=[1, 2], default=1)
    p.add_argument("--identify", action="store_true")
    add_format(p)
    p = sub.add_parser("linear", help="closed-form linear quandle predicates")
    lsub = p.add_subparsers(dest="linear_cmd", required=True)
    for name, (_, params) in _LINEAR.items():
        command(name, _cmd_linear, *params, type=_integer, parent=lsub)
    p = command(
        "classify", _cmd_classify, "order", type=_integer,
        help="classify all quandles of one order",
    )
    p.add_argument("--connected-only", action="store_true")
    add_format(p, "csv")
    add_format(command("table1", _cmd_table1, help="reference module/image identifications"))
    p = command("table2", _cmd_table2, help="distinct/connected counts per order")
    p.add_argument("--max", type=_integer, default=DEFAULT_MAX_ORDER)
    add_format(p, "csv")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early, which is no failure of ours; with stdout
        # on devnull the interpreter's final flush stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except SpecParseError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means "false", so a failure must not fall through to it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
