"""Command-line front end: compile, validate, run, equiv, metrics, inus, expand.

Exit codes: 0 on success, 1 when error diagnostics (or data errors) occur,
2 on usage errors. All output is deterministic for fixed inputs and seed.
``main`` is the one error path: it prints each error once, on the streams it
was given, argparse's usage lines and ``--help`` among them.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from . import equivalence, microworld, transitions
from .diagnostics import format_diagnostics
from .discourse import CausalField, check_inus
from .errors import XfoError
from .foundry import Foundry
from .lang import compile_modules, expand_activity_family, parse_module


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xfo", description="XFO model compiler and runtime")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="compile modules and print the fingerprint")
    compile_p.add_argument("files", nargs="+")

    validate_p = sub.add_parser("validate", help="compile modules and print diagnostics")
    validate_p.add_argument("files", nargs="+")

    run_p = sub.add_parser("run", help="run a world, optionally driving a chain")
    run_p.add_argument("files", nargs="+")
    run_p.add_argument("--world", required=True)
    run_p.add_argument("--chain")
    run_p.add_argument("--ticks", type=int, default=10_000)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--trace")

    equiv_p = sub.add_parser("equiv", help="check functional equivalence of two chains")
    equiv_p.add_argument("files", nargs="+")
    equiv_p.add_argument("--a", required=True, dest="chain_a")
    equiv_p.add_argument("--b", required=True, dest="chain_b")
    equiv_p.add_argument("--space", required=True,
                         help="comma-separated name:Schema pairs; determinables sweep")

    metrics_p = sub.add_parser("metrics", help="foundry quality measures")
    metrics_p.add_argument("files", nargs="+")
    metrics_p.add_argument("--orthogonality", nargs=2, metavar=("A", "B"))
    metrics_p.add_argument("--specificity", metavar="NAME")
    metrics_p.add_argument("--exhaustivity", metavar="TERMS",
                           help="comma-separated term list")

    inus_p = sub.add_parser("inus", help="INUS check over a declared causal field")
    inus_p.add_argument("field_file")
    inus_p.add_argument("--condition", required=True)

    expand_p = sub.add_parser("expand", help="expand an activity family from a verb stem")
    expand_p.add_argument("--root", required=True)

    return parser


_PARSER = build_arg_parser()  # built once per process; parse_args leaves it unchanged


def _read(path: str) -> str:
    """The text of a UTF-8 file; a leading byte-order mark is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise XfoError(f"cannot read {path}: {getattr(exc, 'strerror', exc)}") from exc


def _load(paths: list[str]):
    modules = []
    for raw in paths:
        path = Path(raw)
        module, diagnostics = parse_module(_read(raw), name=path.stem, file=path.name)
        modules.append((module, diagnostics))
    parse_diagnostics = [d for _, diags in modules for d in diags]
    result = compile_modules([m for m, _ in modules])
    result.diagnostics = parse_diagnostics + result.diagnostics
    return result


def _report(result, err) -> int:
    if result.ok:
        return 0
    print(format_diagnostics(result.diagnostics), file=err)
    return 1


def _cmd_compile(args, result, out, err) -> int:
    print(result.registry.fingerprint, file=out)
    return 0


def _cmd_run(args, result, out, err) -> int:
    world_def = result.world(args.world)
    if world_def is None:
        raise XfoError(f"unknown world: {args.world}")
    world = microworld.build_world(result.registry, world_def, seed=args.seed)
    instance = None
    if args.chain is not None:
        bindings = {spawn.instance: spawn.instance for spawn in world_def.spawns}
        instance = transitions.instantiate_chain(world, args.chain, bindings)
    outcome = microworld.run(world, instance, max_ticks=args.ticks)
    if args.trace:
        try:
            Path(args.trace).write_text(world.timeline_ndjson(), encoding="utf-8")
        except OSError as exc:
            raise XfoError(f"cannot write {args.trace}: {exc.strerror}") from exc
    if instance is not None and instance.abort_reason:
        print(f"aborted: {instance.abort_reason}", file=err)
    print(
        f"status={outcome.status} ticks={outcome.ticks_used} "
        f"fingerprint={world.fingerprint()}",
        file=out,
    )
    return 0


def _parse_space(spec: str) -> equivalence.StateSpace:
    instances = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, schema = chunk.partition(":")
        if not sep or not name.strip() or not schema.strip():
            raise XfoError(f"bad space entry {chunk!r}; expected name:Schema")
        instances.append((name.strip(), schema.strip()))
    if not instances:
        raise XfoError("state space is empty")
    return equivalence.StateSpace(tuple(instances))


def _cmd_equiv(args, result, out, err) -> int:
    space = _parse_space(args.space)
    verdict = equivalence.check_equivalence(
        result.registry, args.chain_a, args.chain_b, space
    )
    if verdict.equivalent:
        print(f"equivalent states={verdict.states_checked}", file=out)
    else:
        witness = " ".join(f"{key}={value}" for key, value in verdict.counterexample)
        print(f"counterexample: {witness}", file=out)
    return 0


def _cmd_metrics(args, result, out, err) -> int:
    if not (args.orthogonality or args.specificity or args.exhaustivity):
        raise XfoError("nothing requested; give --orthogonality, --specificity or --exhaustivity")
    foundry = Foundry(result.registry)
    for info in result.modules:
        foundry.register_facet(info.facet)
        foundry.register_module(info)
    if args.orthogonality:
        module_a, module_b = args.orthogonality
        value = foundry.orthogonality(module_a, module_b)
        print(f"orthogonality\t{module_a} {module_b}\t{value}", file=out)
    if args.specificity:
        value = foundry.specificity(args.specificity)
        print(f"specificity\t{args.specificity}\t{value}", file=out)
    if args.exhaustivity:
        terms = tuple(t.strip() for t in args.exhaustivity.split(",") if t.strip())
        if not terms:
            raise XfoError("exhaustivity term list is empty")
        value = foundry.exhaustivity(terms)
        print(f"exhaustivity\t{','.join(terms)}\t{value}", file=out)
    return 0


def _parse_field_file(path: str) -> CausalField:
    outcome = None
    conditions: list[str] = []
    sufficient: list[frozenset[str]] = []
    for raw in _read(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        names = [n.strip() for n in rest.replace(",", " ").split() if n.strip()]
        if keyword == "outcome" and names:
            outcome = names[0]
        elif keyword in ("condition", "conditions"):
            conditions.extend(names)
        elif keyword == "sufficient":
            if not names:
                raise XfoError("empty sufficient set in field file")
            sufficient.append(frozenset(names))
        else:
            raise XfoError(f"bad field line: {raw!r}")
    if outcome is None or not conditions or not sufficient:
        raise XfoError("field file needs an outcome, conditions, and sufficient sets")
    return CausalField(outcome, tuple(dict.fromkeys(conditions)), tuple(sufficient))


def _cmd_inus(args, out, err) -> int:
    field = _parse_field_file(args.field_file)
    verdict = check_inus(field, args.condition)
    witness = "+".join(sorted(verdict.witness)) if verdict.witness else "-"
    print(
        f"condition={verdict.condition} inus={'true' if verdict.inus else 'false'} "
        f"witness={witness}",
        file=out,
    )
    return 0


def _cmd_expand(args, out, err) -> int:
    family = expand_activity_family(args.root)
    print(f"role {family.role.name} on {family.role.bearer_kind}", file=out)
    print(
        f"process {family.process.name} participants "
        f"{','.join(family.process.participants)}",
        file=out,
    )
    print(f"object {family.facility.name}", file=out)
    for predicate, subject, obj in family.links:
        print(f"link {predicate}({subject}, {obj})", file=out)
    return 0


# Commands over ``files`` get the compiled result once it has loaded and
# reported no error; the others get their arguments only.
_COMPILED_COMMANDS = {
    "compile": _cmd_compile,
    "validate": lambda args, result, out, err: 0,  # loading and reporting is all it does
    "run": _cmd_run,
    "equiv": _cmd_equiv,
    "metrics": _cmd_metrics,
}
_COMMANDS = {"inus": _cmd_inus, "expand": _cmd_expand}


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        with redirect_stdout(out), redirect_stderr(err):  # argparse writes to sys's streams
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command in _COMMANDS:
            return _COMMANDS[args.command](args, out, err)
        result = _load(args.files)
        return _report(result, err) or _COMPILED_COMMANDS[args.command](
            args, result, out, err
        )
    except XfoError as exc:
        print(f"error: {exc}", file=err)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
