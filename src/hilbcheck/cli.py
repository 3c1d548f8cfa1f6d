"""Command-line front end.

    hilbcheck colength FILE            vector space dimension of S/I
    hilbcheck hf FILE                  local Hilbert function
    hilbcheck tangent [--graded] FILE  tangent space dimension(s)
    hilbcheck initial -w 1,1,1 FILE    weight-vector initial ideal
    hilbcheck pfaffian FILE            the skew-form criterion for (1,4,3)
    hilbcheck smoothable FILE          full smoothability verdict
    hilbcheck points-ideal PTS         vanishing ideal of a point list
    hilbcheck census -d D -n N         local Hilbert function census
    hilbcheck verify-paper [...]       run the bundled verification suite

Files use the ideal file grammar (field/vars/ideal: header).  Text output is
deterministic; randomized subcommands read their seed from --seed or the
HILBCHECK_SEED environment variable and print it.
"""

import argparse
import json
import os
import sys

from .artin import enumerate_local_hfs, local_hilbert_function
from .census import census_report
from .errors import HilbcheckError, ParseError, PreconditionError
from .fields import field_from_tag
from .fixtures import DEFAULT_SEED
from .groebner import Ideal, buchberger, initial_ideal, points_ideal
from .poly import (VariableContext, format_ideal_file, parse_ideal_file,
                   parse_points_file, poly_str)
from .reportschema import ANALYZE_REPORT_SCHEMA, VERIFY_REPORT_SCHEMA, validate
from .smooth import classify_smoothable, salmon_turnbull_pfaffian
from .tangent import tangent_report
from .verify import CASE_NAMES, run_suite


# `colength`, `hf`, `tangent`, `pfaffian` and `initial` with a negative
# weight refuse a quotient of dimension above this.  `hf` builds dense n x n
# multiplication operators, up to about n^4 work: on a 2-core VM with the
# `fractions` backend, the Hilbert function of <x^k, y^2> and of
# <x^k, y^2 - x^5 + 2x^3y> took 0.03-0.04 s at n = 64 and 0.10-0.20 s at
# n = 100.  `tangent` and `pfaffian` build the quotient model, and a negative
# weight normal-forms every monomial below the socle degree.  Counting stops
# at COLENGTH_CAP + 1 standard monomials, so an ideal such as x^100000000 is
# refused at once.
COLENGTH_CAP = 64


def _read_ideal(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ctx, polys = parse_ideal_file(text)
    return ctx, Ideal(ctx, polys)


def _emit(args, command, payload, text):
    if getattr(args, "json", False):
        obj = {"command": command, "result": payload}
        if getattr(args, "file", None):
            obj["file"] = args.file
        validate(obj, ANALYZE_REPORT_SCHEMA)
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _capped_basis(ideal):
    """Groebner basis of the ideal, refused when its colength is above
    COLENGTH_CAP."""
    G = buchberger(ideal)
    if G.colength(limit=COLENGTH_CAP + 1) > COLENGTH_CAP:
        raise PreconditionError(f"colength > {COLENGTH_CAP}: above the cap of colength, hf, "
                                "tangent, pfaffian and initial with a negative weight")
    return G


def cmd_colength(args):
    _, ideal = _read_ideal(args.file)
    n = _capped_basis(ideal).colength()
    _emit(args, "colength", n, str(n))
    return 0


def cmd_hf(args):
    _, ideal = _read_ideal(args.file)
    hf = local_hilbert_function(_capped_basis(ideal))
    _emit(args, "hf", list(hf), repr(hf))
    return 0


def cmd_tangent(args):
    _, ideal = _read_ideal(args.file)
    rep = tangent_report(_capped_basis(ideal), graded=args.graded)
    if args.graded:
        payload = {"total": rep.total,
                   "graded": {str(k): v for k, v in sorted(rep.graded.items())}}
        text = f"{rep.total}  graded: " + " ".join(
            f"[{k}]={v}" for k, v in sorted(rep.graded.items()))
    else:
        payload = {"total": rep.total}
        text = str(rep.total)
    _emit(args, "tangent", payload, text)
    return 0


def cmd_initial(args):
    ctx, ideal = _read_ideal(args.file)
    try:
        w = tuple(int(x) for x in args.w.split(","))
    except ValueError:
        raise ParseError(f"bad weight vector {args.w!r}")
    if min(w) < 0:
        # the nonnegative path enumerates no quotient, so only this one is capped
        ideal = _capped_basis(ideal)
    out = initial_ideal(ideal, w)
    G = buchberger(out)
    text = format_ideal_file(ctx, list(G.elements)).rstrip("\n")
    _emit(args, "initial", [poly_str(g) for g in G.elements], text)
    return 0


def cmd_pfaffian(args):
    _, ideal = _read_ideal(args.file)
    rep = salmon_turnbull_pfaffian(_capped_basis(ideal))
    payload = {"pfaffian": str(rep.pfaffian_block),
               "intrinsic": str(rep.pfaffian_intrinsic),
               "vanishes": rep.vanishes}
    text = (f"pfaffian {rep.pfaffian_block} (intrinsic {rep.pfaffian_intrinsic}); "
            + ("vanishes" if rep.vanishes else "does not vanish"))
    _emit(args, "pfaffian", payload, text)
    return 0


def cmd_smoothable(args):
    _, ideal = _read_ideal(args.file)
    v = classify_smoothable(ideal)
    payload = {"outcome": v.outcome, "evidence": list(v.evidence)}
    lines = [v.outcome] + [f"  - {e}" for e in v.evidence]
    _emit(args, "smoothable", payload, "\n".join(lines))
    return 0


def cmd_points_ideal(args):
    if args.ctx:
        with open(args.ctx, encoding="utf-8") as fh:
            ctx, _ = parse_ideal_file(fh.read())
        field = ctx.field
        names = ctx.names
    else:
        if args.d is None:
            raise HilbcheckError("points-ideal needs -d or --ctx")
        if args.d < 1:
            raise ParseError(f"-d must be at least 1, got {args.d}")
        try:
            if args.field in ("Q", "Qt"):
                field = field_from_tag(args.field)
            else:
                field = field_from_tag("F", int(args.field))
        except ValueError as exc:
            raise ParseError(f"bad --field {args.field!r}: {exc}")
        names = tuple(f"x{i+1}" for i in range(args.d))
        ctx = VariableContext(field, names)
    with open(args.file, encoding="utf-8") as fh:
        pts = parse_points_file(fh.read(), field, d=len(names))
    G = points_ideal(pts, ctx)
    text = format_ideal_file(ctx, list(G.elements)).rstrip("\n")
    _emit(args, "points-ideal", [poly_str(g) for g in G.elements], text)
    return 0


def cmd_census(args):
    hfs = sorted(enumerate_local_hfs(args.d, args.n))
    if args.json:
        payload = {"d": args.d, "n": args.n, "functions": [list(h) for h in hfs]}
        print(json.dumps({"command": "census", "result": payload}, sort_keys=True))
        return 0
    for h in hfs:
        print(repr(h))
    rep = census_report()
    for note in rep.notes:
        print(f"# note: {note}")
    return 0


def cmd_verify_paper(args):
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("HILBCHECK_SEED", DEFAULT_SEED))
    report = run_suite(case_filter=args.case, seed=seed)
    if args.json:
        obj = report.to_json_obj(timings=args.timings)
        validate(obj, VERIFY_REPORT_SCHEMA)
        print(json.dumps(obj, sort_keys=True))
    else:
        sys.stdout.write(report.to_text(timings=args.timings))
    return 0 if report.all_pass() else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hilbcheck",
        description="exact smoothability checks for ideals of colength at most 8")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("colength", cmd_colength, help="dimension of S/I")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("hf", cmd_hf, help="local Hilbert function at the origin")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("tangent", cmd_tangent, help="tangent space dimension")
    p.add_argument("file")
    p.add_argument("--graded", action="store_true", help="include graded pieces")
    p.add_argument("--json", action="store_true")

    p = add("initial", cmd_initial, help="weight-vector initial ideal")
    p.add_argument("file")
    p.add_argument("-w", required=True, help="comma-separated integer weights")
    p.add_argument("--json", action="store_true")

    p = add("pfaffian", cmd_pfaffian, help="skew-form criterion for (1,4,3) ideals")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("smoothable", cmd_smoothable, help="smoothability verdict")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = add("points-ideal", cmd_points_ideal, help="vanishing ideal of points")
    p.add_argument("file", help="one point per line, comma-separated coordinates")
    p.add_argument("-d", type=int, default=None, help="ambient dimension")
    p.add_argument("--field", default="Q", help="Q, Qt, or a prime p")
    p.add_argument("--ctx", default=None, help="ideal file supplying field and vars")
    p.add_argument("--json", action="store_true")

    p = add("census", cmd_census, help="local Hilbert function census")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = add("verify-paper", cmd_verify_paper,
            help="run the bundled verification suite")
    p.add_argument("--case", default=None,
                   help="run one case (or a name prefix); known: " + ", ".join(CASE_NAMES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times (breaks byte-identical output)")
    return ap


def main(argv=None):
    # argparse reads a weight vector that starts with a minus sign, such as
    # -1,1,1, as an option of its own, so `-w W` is passed on as `-w=W`
    words = []
    for arg in sys.argv[1:] if argv is None else argv:
        if words and words[-1] == "-w":
            words[-1] = f"-w={arg}"
        else:
            words.append(arg)
    ap = build_parser()
    args = ap.parse_args(words)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except HilbcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
