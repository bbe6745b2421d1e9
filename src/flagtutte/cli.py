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

from .corpus import corpus_summary, matroid_corpus
from .errors import (GeometryError, InputError, InternalAssertion,
                     NotAQuotient, ParseError, UnknownIdentity)
from .genfun import EquivariantPolynomial
from .invariants import (_as_flag, brion_example_report, check_beta_higgs,
                         check_direct_sum, check_duality,
                         check_kchi_conjecture, check_latticepoints,
                         check_lvt_delcont, check_lvt_special,
                         compute_invariant, verify_delcont, verify_h_uv,
                         verify_kt22)
from .io import load_input
from .matroid import FlagMatroid, Matroid, flag, pseudo_basis_masks, _set_of
from .polynomial import AuxPolynomial

INVARIANTS = ("tutte", "characteristic", "lvt", "kt", "h", "h-lv", "beta",
              "beta-reduced", "beta-invariant", "poincare", "kchar")
IDENTITIES = ("delcont", "kt22", "lvt-special", "lvt-delcont", "duality",
              "direct-sum", "latticepoints", "h-uv", "beta-higgs",
              "kchi-conjecture", "brion-example")

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
                        help="seed for the deterministic weight fallbacks")
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
                   help="emit the torus-equivariant refinement (kt, lvt)")

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
    threads = _resolve_threads(args.threads)
    if args.equivariant and args.invariant not in ("kt", "lvt"):
        raise InputError("--equivariant applies only to kt and lvt")
    obj = _single_object(args.input)
    result = compute_invariant(args.invariant, obj,
                               equivariant=args.equivariant, seed=args.seed)
    value = result.equivariant if args.equivariant else result.polynomial
    if args.format == "json":
        doc = {
            "invariant": args.invariant,
            "equivariant": bool(args.equivariant),
            "input": result.metadata["input"],
            "threads": threads,
            "value": value,
        }
        _emit_json(doc)
    else:
        print(value.canonical_str())
    return EXIT_OK


# -------------------------------------------------------------------- verify


def _as_pair(obj, what):
    if isinstance(obj, FlagMatroid) and obj.k == 2:
        return obj.constituents
    if isinstance(obj, Matroid):
        return obj, obj
    raise InputError("%s needs a two-step flag matroid input" % what)


def _as_matroid_obj(obj, what):
    if isinstance(obj, Matroid):
        return obj
    if isinstance(obj, FlagMatroid) and obj.k == 1:
        return obj.constituents[0]
    raise InputError("%s needs a single matroid input" % what)


def _verify_reports(name, obj, seed):
    """Produce the list of reports for one identity invocation."""
    U = Matroid.uniform
    if name == "brion-example":
        return [brion_example_report()]
    if name == "kt22":
        if obj is None:
            obj = flag(U(1, 3), U(2, 3))
        return [verify_kt22(_as_flag(obj))]
    if name == "delcont":
        m = U(2, 4) if obj is None else _as_matroid_obj(obj, "delcont")
        bad = m.loops() | m.coloops()
        reports = []
        for e in range(1, m.n + 1):
            if e in bad:
                continue
            reports.append(verify_delcont(m, e, ell=2))
            if m.n <= 5:
                reports.append(verify_delcont(m, e, ell=3))
        if not reports:
            raise InputError("every element is a loop or a coloop; the "
                             "three-term identity does not apply")
        return reports
    if name == "lvt-special":
        m1, m2 = ((U(1, 3), U(2, 3)) if obj is None
                  else _as_pair(obj, "lvt-special"))
        return [check_lvt_special(m1, m2)]
    if name == "lvt-delcont":
        m1, m2 = ((U(1, 3), U(2, 3)) if obj is None
                  else _as_pair(obj, "lvt-delcont"))
        return [check_lvt_delcont(m1, m2)]
    if name == "duality":
        fm = flag(U(1, 3), U(2, 3)) if obj is None else _as_flag(obj)
        return [check_duality(fm)]
    if name == "direct-sum":
        if obj is None:
            pairs = [(flag(U(1, 2)), flag(U(1, 3))),
                     (flag(U(1, 2), U(2, 2)), flag(U(1, 3), U(2, 3)))]
        else:
            if not (isinstance(obj, list) and len(obj) == 2):
                raise InputError("direct-sum needs a JSON list of exactly "
                                 "two flag documents")
            pairs = [(_as_flag(obj[0]), _as_flag(obj[1]))]
        return [check_direct_sum(a, b) for a, b in pairs]
    if name == "latticepoints":
        fm = flag(U(1, 3), U(2, 3)) if obj is None else _as_flag(obj)
        return [check_latticepoints(fm)]
    if name == "h-uv":
        fm = flag(U(2, 4), U(3, 4)) if obj is None else _as_flag(obj)
        return [verify_h_uv(fm)]
    if name == "beta-higgs":
        m1, m2 = ((U(1, 3), U(2, 3)) if obj is None
                  else _as_pair(obj, "beta-higgs"))
        return [check_beta_higgs(m1, m2)]
    if name == "kchi-conjecture":
        if obj is None:
            ms = [m for m in matroid_corpus() if m.n <= 5 and not m.loops()]
        else:
            ms = [_as_matroid_obj(obj, "kchi-conjecture")]
        return [check_kchi_conjecture(m) for m in ms]
    raise UnknownIdentity("no identity named %r (expected one of %s)"
                          % (name, ", ".join(IDENTITIES)))


def _run_verify(args):
    _resolve_threads(args.threads)
    obj = load_input(args.input) if args.input is not None else None
    reports = _verify_reports(args.identity, obj, args.seed)
    observational = args.identity == "kchi-conjecture"
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
    if isinstance(value, Fraction) and value.denominator == 1:
        return str(int(value))
    return str(value)


# --------------------------------------------------------- pseudobases/corpus


def _run_pseudobases(args):
    _resolve_threads(args.threads)
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
    _resolve_threads(args.threads)
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
    try:
        if args.verb == "compute":
            return _run_compute(args)
        if args.verb == "verify":
            return _run_verify(args)
        if args.verb == "pseudobases":
            return _run_pseudobases(args)
        return _run_corpus(args)
    except (ParseError, InputError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (GeometryError, InternalAssertion) as exc:
        print("internal assertion: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
