"""Command-line front end.

One verb per invocation; reports are canonical JSON on stdout (or a
derived human-readable text form, never parsed back).  Exit codes: 0 for
a true verdict or successful construction, 1 for a false verdict, 2 for
malformed input, a bad command line or an exceeded enumeration cap.  Wall-clock timing only
appears in text output so JSON reports stay byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .canon import materialize, open_key, write_canonical
from .errors import CocycleViolation, FinsheafError, ParseError
from . import serialize as ser
from .gluing import check_glued_invariant, glue
from .presheaf import (
    BasisPresheaf,
    Presheaf,
    check_F0,
    check_sheaf,
    check_simple_equivalence,
    extend_from_basis,
    limit_of_sheaves,
)
from .functors import check_adjunction, pullback, pushforward, sheafify
from .stalks import stalk, support

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_BAD_INPUT = 2


def _failures_payload(report) -> list[dict]:
    out = []
    for f in report.failures:
        item = {
            "open": open_key(f.open_set),
            "kind": f.kind,
            "witness": f.witness,
        }
        if f.covering is not None:
            item["covering"] = sorted(open_key(p) for p in f.covering.parts)
        out.append(item)
    return out


def _load_presheaf(path: str) -> Presheaf | BasisPresheaf:
    return ser.load_file(path, ser.presheaf_from_payload)


def _constructed(args, p: Presheaf) -> dict[str, int]:
    """Writes ``p`` to ``--out`` when given; returns its section counts."""
    if args.out:
        ser.dump_json(args.out, ser.presheaf_to_payload(p))
    return {open_key(u): len(p.sections[u]) for u in p.space.sorted_opens()}


def _need_full(p, what: str) -> Presheaf:
    if isinstance(p, BasisPresheaf):
        raise ParseError(f"{what} needs a full presheaf, got basis data")
    return p


def _need_basis(p, what: str) -> BasisPresheaf:
    if not isinstance(p, BasisPresheaf):
        raise ParseError(f"{what} needs a basis presheaf (file with a 'basis' field)")
    return p


def cmd_validate(args) -> tuple[dict, bool]:
    verdict = _load_presheaf(args.presheaf).functorial
    return {"functorial": verdict}, verdict


def cmd_check_sheaf(args) -> tuple[dict, bool]:
    p = _need_full(_load_presheaf(args.presheaf), "check-sheaf")
    report = check_sheaf(p)
    return {"failures": _failures_payload(report)}, report.verdict


def cmd_check_f0(args) -> tuple[dict, bool]:
    bp = _need_basis(_load_presheaf(args.presheaf), "check-f0")
    report = check_F0(bp)
    return {"failures": _failures_payload(report)}, report.verdict


def cmd_extend_basis(args) -> tuple[dict, bool]:
    bp = _need_basis(_load_presheaf(args.presheaf), "extend-basis")
    ext = extend_from_basis(bp)
    return {
        "sections": _constructed(args, ext.presheaf),
        "canonical_bijective": {
            open_key(b): ext.can(b).is_bijective()
            for b in bp.basis.sorted_members()
        },
    }, True


def cmd_stalk(args) -> tuple[dict, bool]:
    p = _need_full(_load_presheaf(args.presheaf), "stalk")
    st = stalk(p, args.point)
    payload = {
        "point": st.point,
        "object": ser.value_to_payload(st.object),
        "canonical": {
            open_key(u): dict(st.canonical[u].map)
            for u in sorted(st.canonical, key=lambda v: tuple(sorted(v)))
        },
    }
    return payload, True


def cmd_support(args) -> tuple[dict, bool]:
    p = _need_full(_load_presheaf(args.presheaf), "support")
    return {"support": sorted(support(p))}, True


def cmd_pushforward(args) -> tuple[dict, bool]:
    psi = ser.load_file(args.map, ser.map_from_payload)
    p = _need_full(_load_presheaf(args.presheaf), "pushforward")
    return {"sections": _constructed(args, pushforward(psi, p))}, True


def cmd_pullback(args) -> tuple[dict, bool]:
    psi = ser.load_file(args.map, ser.map_from_payload)
    p = _need_full(_load_presheaf(args.presheaf), "pullback")
    inv = pullback(psi, p)
    return {
        "sections": _constructed(args, inv.sheaf),
        "unit": ser.morphism_tables(inv.unit),
    }, True


def cmd_sheafify(args) -> tuple[dict, bool]:
    p = _need_full(_load_presheaf(args.presheaf), "sheafify")
    inv = sheafify(p)
    return {
        "sections": _constructed(args, inv.sheaf),
        "unit": ser.morphism_tables(inv.unit),
        "unit_is_isomorphism": inv.unit.is_isomorphism(),
    }, True


def cmd_adjunction_test(args) -> tuple[dict, bool]:
    psi = ser.load_file(args.map, ser.map_from_payload)
    g = _need_full(_load_presheaf(args.presheaf), "adjunction-test")
    f = _need_full(_load_presheaf(args.sheaf), "adjunction-test")
    witness = check_adjunction(psi, g, f, max_homs=args.max_homs)
    payload = {
        "hom_upstairs": witness.hom_upstairs,
        "hom_downstairs": witness.hom_downstairs,
        "transpositions": (
            {"nu": ser.morphism_tables(nu), "flat": ser.morphism_tables(image)}
            for nu, image in witness.transpositions
        ),
    }
    return payload, witness.verdict


def cmd_glue(args) -> tuple[dict, bool]:
    datum = ser.load_file(args.gluing, ser.gluing_from_payload)
    try:
        result = glue(datum)
    except CocycleViolation as exc:
        return {"cocycle_violations": exc.violations}, False
    return {
        "sections": _constructed(args, result.sheaf),
        "invariant": check_glued_invariant(datum, result),
    }, True


def cmd_limit(args) -> tuple[dict, bool]:
    result = limit_of_sheaves(ser.load_file(args.diagram, ser.diagram_from_payload))
    sections = _constructed(args, result.presheaf)
    sheaf_ok = check_sheaf(result.presheaf).verdict
    return {"sections": sections, "is_sheaf": sheaf_ok}, sheaf_ok


def cmd_simple_check(args) -> tuple[dict, bool]:
    p = _need_full(_load_presheaf(args.presheaf), "simple-check")
    report = check_simple_equivalence(p)
    payload = {
        "is_constant": report.is_constant,
        "sheaf_when_constant": report.sheaf_when_constant,
        "unit_iso_when_constant": report.unit_iso_when_constant,
        "locally_simple": report.locally_simple,
        "constant_forced": report.constant_forced,
    }
    return payload, report.verdict


def _render_text(report: dict, elapsed: float) -> str:
    lines = [f"verb: {report['verb']}"]
    if "verdict" in report:
        lines.append(f"verdict: {'pass' if report['verdict'] else 'FAIL'}")
    for key, value in sorted(report.get("payload", {}).items()):
        lines.append(f"{key}: {materialize(value)}")
    lines.append(f"elapsed: {elapsed:.3f}s")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    """Raises ``ParseError`` on a bad command line instead of printing usage
    and exiting, so that ``main`` reports it like any malformed input."""

    def error(self, message):
        raise ParseError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; callers share it unchanged."""
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument("--out", help="write the constructed artifact here")
    common.add_argument(
        "--max-homs", type=_positive_int, default=10 ** 6,
        help="cap on the work of each Hom-set enumeration: candidate maps "
             "listed plus candidates tried (error, never truncate)")
    parser = _Parser(
        prog="finsheaf",
        description="check and build sheaves on finite topological spaces",
        parents=[common])
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, *specs):
        sp = sub.add_parser(name, parents=[common])
        for flag, kwargs in specs:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn)

    presheaf_arg = ("--presheaf", {"required": True, "help": "presheaf file"})
    map_arg = ("--map", {"required": True, "help": "continuous map file"})
    add("validate", cmd_validate, presheaf_arg)
    add("check-sheaf", cmd_check_sheaf, presheaf_arg)
    add("check-f0", cmd_check_f0, presheaf_arg)
    add("extend-basis", cmd_extend_basis, presheaf_arg)
    add("stalk", cmd_stalk, presheaf_arg,
        ("--point", {"required": True}))
    add("support", cmd_support, presheaf_arg)
    add("pushforward", cmd_pushforward, map_arg, presheaf_arg)
    add("pullback", cmd_pullback, map_arg, presheaf_arg)
    add("sheafify", cmd_sheafify, presheaf_arg)
    add("adjunction-test", cmd_adjunction_test, map_arg, presheaf_arg,
        ("--sheaf", {"required": True, "help": "sheaf file on the source space"}))
    add("glue", cmd_glue, ("--gluing", {"required": True, "help": "gluing data file"}))
    add("limit", cmd_limit, ("--diagram", {"required": True, "help": "sheaf diagram file"}))
    add("simple-check", cmd_simple_check, presheaf_arg)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        payload, verdict = args.fn(args)
    except FinsheafError as exc:
        write_canonical(sys.stderr, {
            "schema": ser.REPORT_SCHEMA,
            "error": type(exc).__name__,
            "message": str(exc),
        })
        return EXIT_BAD_INPUT
    elapsed = time.monotonic() - started
    report = {
        "schema": ser.REPORT_SCHEMA,
        "verb": args.verb,
        "verdict": verdict,
        "payload": payload,
    }
    if args.format == "json":
        write_canonical(sys.stdout, report)
    else:
        sys.stdout.write(_render_text(report, elapsed))
    return EXIT_TRUE if verdict else EXIT_FALSE


if __name__ == "__main__":
    raise SystemExit(main())
