"""Command-line interface.

Verbs: interval, partition, pushout-check, pipeline, selftest, export.
Exit codes: 0 success, 1 verification failure, 2 usage error, 141 the
reader closed stdout before the output was written (128 + SIGPIPE, as a
shell reports a process that a closed pipe killed).
"""

import argparse
import os
import sys

from . import bruhat as br
from . import coxeter as cx
from . import poset as ps
from . import spectra as sp


def _matrix(arg):
    """Builtin name like A3/D4/affineA2, or a path to a JSON matrix file."""
    try:
        return cx.matrix_by_name(arg)
    except cx.CoxeterError:
        if not os.path.exists(arg):
            raise
    import json
    try:
        with open(arg) as f:
            return cx.CoxeterMatrix.from_json_dict(json.load(f))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise UsageError("cannot read Coxeter matrix %r: %s" % (arg, e))


def _word(arg):
    """Comma-separated generator indices; "" is the empty word."""
    try:
        return tuple(int(t) for t in arg.split(",")) if arg else ()
    except ValueError:
        raise UsageError("malformed word %r (expected comma-separated "
                         "generator indices)" % (arg,))


class UsageError(Exception):
    pass


def _check_output(path, fmt):
    """Fail before any work if path is given without a format or cannot be
    written; leaves no new file."""
    if path:
        if not fmt:
            raise UsageError("--output requires --format")
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as e:
            raise UsageError("cannot write %r: %s" % (path, e)) from e
        if not existed:
            os.remove(path)


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
    _check_output(args.output, args.format)
    iv = br.interval(_matrix(args.matrix), _word(args.word))
    prof = iv.rank_profile()
    print("%d elements, ranks %s" % (len(iv), ",".join(map(str, prof))))
    if args.format:
        _emit(ps.export(iv, args.format, iv.by_length_word()), args.output)
    return 0


def cmd_partition(args):
    m = _matrix(args.matrix)
    part = br.partition(m, br.interval(m, _word(args.word)), args.gen)
    for name, block in (("W1", part.W1), ("W2", part.W2),
                        ("W3", part.W3), ("W4", part.W4)):
        labs = sorted(part.interval_wbara.labels[i] for i in ps._bits(block))
        print("%s (%d): %s" % (name, block.bit_count(),
                               " ".join(labs) or "-"))
    return 0


def cmd_pushout_check(args):
    rep = ps.pushout_square(_matrix(args.matrix), _word(args.word), args.gen)
    for key in ("nu1_bijective_op", "nu2_injective_op", "top_bijective_op",
                "square_commutes", "top_inverse_restrictions_op"):
        print("%s: %s" % (key, "ok" if rep[key] else "FAIL"))
    print("sizes: %s" % (rep["sizes"],))
    return 0 if rep["ok"] else 1


def cmd_pipeline(args):
    _check_output(args.output, args.format)
    try:
        if args.builtin:
            spec = sp.builtin(args.builtin)
        else:
            import json
            with open(args.file) as f:
                spec = sp.load_pipeline(json.load(f))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise UsageError("cannot load pipeline %r: %s"
                         % (args.builtin or args.file, e))
    res = sp.run_pipeline(spec)
    for rep in res.steps:
        sz = rep["sizes"]
        # run_pipeline raises at a square that fails, so each one here holds
        extra = "" if rep["kind"] == "none" else ", square=ok"
        print("step %d (%s, %s): P=%d P1=%d P2=%d P3=%d -> %d%s"
              % (rep["step"], rep["var"], rep["kind"],
                 sz["P"], sz["P1"], sz["P2"], sz["P3"], sz["new"], extra))
    prof = res.final_poset.rank_profile()
    print("final: %d elements, ranks %s, word %s"
          % (len(res.final_poset), ",".join(map(str, prof)),
             ".".join(map(str, res.word))))
    if args.format:
        _emit(ps.export(res.final_poset, args.format, res.order),
              args.output)
    return 0


def cmd_selftest(args):
    from . import acceptance
    return 0 if acceptance.run_all() else 1


def cmd_export(args):
    _check_output(args.output, args.format)
    iv = br.interval(_matrix(args.matrix), _word(args.word))
    _emit(ps.export(iv, args.format, iv.by_length_word()), args.output)
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not raise
        # again (the idiom of Python's signal documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
