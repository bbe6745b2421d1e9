"""Command-line front end: compute invariants, verify identities, list
pseudo-bases, and describe the built-in corpus.

Exit codes: 0 success, 2 input error, 3 internal assertion failure,
4 identity falsified.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .corpus import corpus_summary
from .errors import (GeometryError, InputError, InternalAssertion,
                     NotAQuotient, ParseError)
from .genfun import EquivariantPolynomial
from .invariants import (_IDENTITIES, _INVARIANTS, _run_identity,
                         compute_invariant)
from .io import load_input
from .matroid import FlagMatroid, pseudo_basis_masks, _set_of
from .polynomial import AuxPolynomial

INVARIANTS = tuple(_INVARIANTS)
IDENTITIES = tuple(_IDENTITIES)
_EQUIVARIANT = sorted(n for n, e in _INVARIANTS.items() if e.equivariant)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_FALSIFIED = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flagtutte",
        description="Exact Tutte-type invariants of matroids, quotients and "
                    "flag matroids.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    common.add_argument("--seed", type=int, default=0,
                        help="accepted for compatibility and changes no "
                        "result")
    common.add_argument("--threads", type=int, default=None,
                        help="worker count (default: FLAGTUTTE_THREADS or "
                             "available parallelism)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compute", parents=[common],
                       help="compute one invariant of one input")
    p.add_argument("--invariant", required=True,
                   help="one of: %s" % ", ".join(INVARIANTS))
    p.add_argument("--input", required=True,
                   help="path to a matroid JSON file, or inline JSON")
    p.add_argument("--equivariant", action="store_true",
                   help="emit the torus-equivariant refinement (%s)"
                        % ", ".join(_EQUIVARIANT))

    p = sub.add_parser("verify", parents=[common],
                       help="check one identity, on an input or on built-in "
                            "instances")
    p.add_argument("--identity", required=True,
                   help="one of: %s" % ", ".join(IDENTITIES))
    p.add_argument("--input", default=None,
                   help="path to a matroid JSON file, or inline JSON")

    p = sub.add_parser("pseudobases", parents=[common],
                       help="list pseudo-bases of a two-step flag matroid")
    p.add_argument("--input", required=True,
                   help="path to a flag-matroid JSON file, or inline JSON")

    sub.add_parser("corpus", parents=[common],
                   help="describe the deterministic built-in corpus")
    return parser


def _resolve_threads(value):
    if value is None:
        env = os.environ.get("FLAGTUTTE_THREADS")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise InputError("FLAGTUTTE_THREADS must be an integer, "
                                 "got %r" % env) from None
        else:
            value = os.cpu_count() or 1
    if value < 1:
        raise InputError("thread count must be at least 1")
    return value


def _jsonable(value):
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, EquivariantPolynomial):
        return value.to_json()
    if isinstance(value, AuxPolynomial):
        return value.canonical_str()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _emit_json(doc):
    print(json.dumps(_jsonable(doc), sort_keys=True, indent=2))


# ------------------------------------------------------------------- compute


def _single_object(spec):
    obj = load_input(spec)
    if isinstance(obj, list):
        raise ParseError("expected a single matroid or flag document, got a "
                         "JSON list")
    return obj


def _run_compute(args):
    if args.equivariant and args.invariant not in _EQUIVARIANT:
        raise InputError("--equivariant applies only to %s"
                         % " and ".join(_EQUIVARIANT))
    obj = _single_object(args.input)
    result = compute_invariant(args.invariant, obj,
                               equivariant=args.equivariant, seed=args.seed)
    value = result.equivariant if args.equivariant else result.polynomial
    if args.format == "json":
        doc = {
            "invariant": args.invariant,
            "equivariant": bool(args.equivariant),
            "input": result.metadata["input"],
            "threads": args.threads,
            "value": value,
        }
        _emit_json(doc)
    else:
        print(value.canonical_str())
    return EXIT_OK


# -------------------------------------------------------------------- verify


def _run_verify(args):
    obj = load_input(args.input) if args.input is not None else None
    reports = _run_identity(args.identity, obj)
    observational = _IDENTITIES[args.identity].observational
    passed = all(r.passed for r in reports)
    if args.format == "json":
        doc = {
            "identity": args.identity,
            "passed": passed,
            "observational": observational,
            "reports": [
                {"name": r.name,
                 "passed": r.passed,
                 "checks": [{"label": lbl, "ok": ok} for lbl, ok in r.details],
                 "data": r.data}
                for r in reports
            ],
        }
        _emit_json(doc)
    else:
        for r in reports:
            for label, ok in r.details:
                print("  %s: %s" % (label, "ok" if ok else "FAIL"))
            for key in sorted(r.data):
                print("  %s = %s" % (key, _text_value(r.data[key])))
        print("PASS" if passed else "FAIL")
    if passed or observational:
        return EXIT_OK
    return EXIT_FALSIFIED


def _text_value(value):
    if isinstance(value, (AuxPolynomial, EquivariantPolynomial)):
        return value.canonical_str().replace("\n", "\n    ")
    return str(value)


# --------------------------------------------------------- pseudobases/corpus


def _run_pseudobases(args):
    obj = _single_object(args.input)
    if not (isinstance(obj, FlagMatroid) and obj.k == 2):
        raise NotAQuotient("pseudobases needs a two-step flag matroid")
    m1, m2 = obj.constituents
    masks = pseudo_basis_masks(m1, m2)
    groups = {}
    for mask in masks:
        groups.setdefault(mask.bit_count(), []).append(mask)
    if args.format == "json":
        doc = {
            "sizes": {str(c): len(ms) for c, ms in sorted(groups.items())},
            "pseudo_bases": [sorted(_set_of(m)) for m in masks],
        }
        _emit_json(doc)
    else:
        for c, ms in sorted(groups.items()):
            sets = " ".join(
                "{%s}" % ",".join(str(e) for e in sorted(_set_of(m)))
                for m in ms)
            print("size %d (%d): %s" % (c, len(ms), sets))
    return EXIT_OK


def _run_corpus(args):
    summary = corpus_summary()
    if args.format == "json":
        _emit_json(summary)
    else:
        print("matroids: %d" % summary["matroids"])
        for n, c in sorted(summary["matroids_by_n"].items()):
            print("  n=%d: %d" % (n, c))
        print("quotient pairs: %d" % summary["quotients"])
        for n, c in sorted(summary["quotients_by_n"].items()):
            print("  n=%d: %d" % (n, c))
    return EXIT_OK


# ---------------------------------------------------------------------- main


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    run = {"compute": _run_compute, "verify": _run_verify,
           "pseudobases": _run_pseudobases, "corpus": _run_corpus}[args.verb]
    try:
        args.threads = _resolve_threads(args.threads)
        return run(args)
    except (ParseError, InputError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (GeometryError, InternalAssertion) as exc:
        print("internal assertion: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
