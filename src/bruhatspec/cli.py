"""Command-line interface.

Verbs: interval, partition, pushout-check, pipeline, selftest, export.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import json
import sys

from . import acceptance
from . import bruhat as br
from . import coxeter as cx
from . import poset as ps
from . import spectra as sp


def _matrix(arg):
    """Builtin name like A3/D4/affineA2, or a path to a JSON matrix file."""
    try:
        return cx.matrix_by_name(arg)
    except cx.CoxeterError:
        pass
    try:
        with open(arg) as f:
            return cx.CoxeterMatrix.from_json_dict(json.load(f))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise UsageError("cannot read Coxeter matrix %r: %s" % (arg, e))


def _word(arg):
    try:
        return tuple(int(t) for t in arg.split(",") if t != "")
    except ValueError:
        raise UsageError("malformed word %r (expected comma-separated "
                         "generator indices)" % (arg,))


class UsageError(Exception):
    pass


def _emit(text, path):
    if path:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as e:
            raise UsageError("cannot write %r: %s" % (path, e)) from e
    else:
        sys.stdout.write(text)


def cmd_interval(args):
    iv = br.interval(_matrix(args.matrix), _word(args.word))
    prof = iv.rank_profile()
    print("%d elements, ranks %s" % (len(iv), ",".join(map(str, prof))))
    if args.format:
        _emit(ps.export(iv.to_poset(), args.format), args.output)
    return 0


def cmd_partition(args):
    part = br.partition(_matrix(args.matrix), _word(args.word), args.gen)
    for name, block in (("W1", part.W1), ("W2", part.W2),
                        ("W3", part.W3), ("W4", part.W4)):
        labs = sorted(br.word_label(w)
                      for w in block)
        print("%s (%d): %s" % (name, len(block), " ".join(labs) or "-"))
    return 0


def cmd_pushout_check(args):
    rep = ps.pushout_square(_matrix(args.matrix), _word(args.word), args.gen)
    for key in ("nu1_bijective_op", "nu2_injective_op", "top_bijective_op",
                "square_commutes", "top_inverse_restrictions_op"):
        print("%s: %s" % (key, "ok" if rep[key] else "FAIL"))
    print("sizes: %s" % (rep["sizes"],))
    return 0 if rep["ok"] else 1


def cmd_pipeline(args):
    try:
        if args.builtin:
            spec = sp.builtin(args.builtin)
        else:
            with open(args.file) as f:
                spec = sp.load_pipeline(json.load(f))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise UsageError("cannot load pipeline %r: %s"
                         % (args.builtin or args.file, e))
    res = sp.run_pipeline(spec)
    for rep in res.steps:
        sz = rep["sizes"]
        extra = ""
        if rep["kind"] != "none":
            extra = ", square=%s" % ("ok" if rep["square_commutes"] else "FAIL")
        print("step %d (%s, %s): P=%d P1=%d P2=%d P3=%d -> %d%s"
              % (rep["step"], rep["var"], rep["kind"],
                 sz["P"], sz["P1"], sz["P2"], sz["P3"], sz["new"], extra))
    prof = res.final_poset.rank_profile()
    print("final: %d elements, ranks %s, word %s"
          % (len(res.final_poset), ",".join(map(str, prof)),
             ".".join(map(str, res.word))))
    if args.format:
        _emit(ps.export(res.final_poset, args.format), args.output)
    return 0


def cmd_selftest(args):
    return 0 if acceptance.run_all() else 1


def cmd_export(args):
    iv = br.interval(_matrix(args.matrix), _word(args.word))
    _emit(ps.export(iv.to_poset(), args.format), args.output)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="bruhatspec",
        description="Bruhat intervals, poset pushouts, and combinatorial "
                    "prime-spectrum pipelines.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, word=True, gen=False):
        q.add_argument("--matrix", required=True,
                       help="builtin name (A3, D4, affineA2) or JSON file")
        if word:
            q.add_argument("--word", required=True,
                           help="comma-separated generator indices")
        if gen:
            q.add_argument("--gen", required=True, type=int,
                           help="generator index a")

    q = sub.add_parser("interval", help="size/rank profile of [1,w]")
    common(q)
    q.add_argument("--format", choices=["dot", "json"])
    q.add_argument("--output")
    q.set_defaults(func=cmd_interval)

    q = sub.add_parser("partition", help="W1-W4 blocks of [1, w*a]")
    common(q, gen=True)
    q.set_defaults(func=cmd_partition)

    q = sub.add_parser("pushout-check", help="verify the pushout square")
    common(q, gen=True)
    q.set_defaults(func=cmd_pushout_check)

    q = sub.add_parser("pipeline", help="run a spectrum pipeline")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--builtin", help="e.g. qaffine3, weyl3, qmatrix2, "
                                     "horton3, m2-ext-A3, m2-ext-affineA2")
    g.add_argument("--file", help="pipeline JSON file")
    q.add_argument("--format", choices=["dot", "json"])
    q.add_argument("--output")
    q.set_defaults(func=cmd_pipeline)

    q = sub.add_parser("selftest", help="run the acceptance suite")
    q.set_defaults(func=cmd_selftest)

    q = sub.add_parser("export", help="export [1,w] as DOT or JSON")
    common(q)
    q.add_argument("--format", choices=["dot", "json"], required=True)
    q.add_argument("--output")
    q.set_defaults(func=cmd_export)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (cx.CoxeterError, br.BruhatError, sp.SpectraInputError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ps.PosetError, sp.SpectraError) as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
