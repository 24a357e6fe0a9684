"""The bruhatspec benchmark: one command, one workload per call.

    python3 benchmarks/run.py --workload pipelines --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's ops until --seconds have passed (at
least one round), one op at a time, in child interpreters that
import the program from ``src``.  Every op's output is checked against the
independent model in model.py.  With --trace 1 the run is one untraced round
and one traced round, and it reports per-layer calls and self times instead
of the end-to-end metrics.  The last line of stdout is the result as JSON.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "op_s.p50": "s", "op_s.p95": "s"}

# The wrapped calls whose counts and self times are reported by name.
NAMED_CALLS = (
    "coxeter.GroupElement", "coxeter.GroupElement.times_gen",
    "coxeter.element_from_word", "coxeter.is_reduced",
    "coxeter.right_descent",
    "bruhat.interval", "bruhat.bruhat_leq", "bruhat.BruhatInterval.to_poset",
    "bruhat.partition",
    "poset.build", "poset.product", "poset.induced", "poset.disjoint_union",
    "poset.PosetMap", "poset.pushout_square", "poset.find_isomorphism",
    "extension.ore_step", "extension.validate_setup", "extension.extend_iso",
    "extension.commuting_square",
    "spectra.classify", "spectra.run_pipeline",
)


def per_layer_units():
    units = {}
    for layer in spans.LAYERS:
        units[layer + ".self_s"] = "s"
    for name in NAMED_CALLS:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.coverage"] = "ratio"
    return units


def run_child(job):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=str(ROOT), env=env,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("child interpreter exited %d: %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout)


def run_round(workload, ops, trace, spans_dir=None):
    """Run every op once; returns (per-op records, child reports)."""
    if workloads.FRESH_INTERPRETER[workload]:
        batches = [[op] for op in ops]
    else:
        batches = [ops]
    records, reports = [], []
    for k, batch in enumerate(batches):
        job = {"workload": workload, "ops": batch, "trace": trace}
        if spans_dir is not None:
            job["spans"] = str(spans_dir / ("child%03d.spans" % k))
        rep = run_child(job)
        reports.append(rep)
        records.extend(zip(batch, rep["ops"]))
    return records, reports


def check_records(workload, records):
    """(failed count, list of wrong-output messages)."""
    failed, wrong = 0, []
    check = checks.CHECK[workload]
    for op, rec in records:
        if "error" in rec:
            failed += 1
            continue
        why = check(op, rec["out"])
        if why:
            wrong.append("%s: %s" % (json.dumps(op), why))
    return failed, wrong


def end_to_end(setups, rounds):
    walls = [rec["wall_s"] for recs, _ in rounds for _, rec in recs]
    cpu = sum(rec["cpu_s"] for recs, _ in rounds for _, rec in recs)
    rss = max(rep["peak_rss_mb"] for _, reps in rounds for rep in reps)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(walls) / sum(walls),
        "cpu_s": cpu / len(rounds),
        "peak_rss_mb": rss,
        "op_s.p50": statistics.median(walls),
        "op_s.p95": nearest_rank(walls, 0.95),
    }


def nearest_rank(values, q):
    """The smallest value with at least a share q of the values at or below
    it; unlike an interpolated quantile it is always a measured op time."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def per_layer(untraced, traced):
    calls, self_s, cover = Counter(), Counter(), []
    for rep in traced[1]:
        calls.update(rep["trace"]["calls"])
        self_s.update(rep["trace"]["self_s"])
        cover.extend(rep["trace"]["op_cover"])
    values = {}
    for layer in spans.LAYERS:
        values[layer + ".self_s"] = sum(
            (s for name, s in self_s.items() if name.startswith(layer + ".")),
            0.0)
    for name in NAMED_CALLS:
        values[name + ".calls"] = calls.get(name, 0)
        values[name + ".self_s"] = self_s.get(name, 0.0)

    def wall(rnd):
        return sum(rec["wall_s"] for _, rec in rnd[0])

    values["trace.overhead_s"] = wall(traced) - wall(untraced)
    values["trace.coverage"] = min(cover)
    return values


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.MAKE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bruhatspec" / "__init__.py").is_file():
        print("error: no program source at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    ops = workloads.make_ops(args.workload, args.seed)
    setups, rounds = [], []
    if args.trace:
        spans_dir = OUT / ("spans-%s" % args.workload)
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
        rounds.append(run_round(args.workload, ops, False))
        rounds.append(run_round(args.workload, ops, True, spans_dir))
    else:
        setups = [run_child({"workload": args.workload, "ops": ops,
                             "setup_only": True})["setup_s"]
                  for _ in range(SETUP_PROBES)]
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            # odd rounds run the list backwards: op times must not depend
            # on what ran before them
            order = ops if len(rounds) % 2 == 0 else ops[::-1]
            rounds.append(run_round(args.workload, order, False))

    failed, wrong = 0, []
    for recs, _ in rounds:
        f, w = check_records(args.workload, recs)
        failed, wrong = failed + f, wrong + w
    for msg in wrong[:20]:
        print("wrong output: %s" % msg, file=sys.stderr)
    if args.trace:
        values = per_layer(*rounds)
        units = per_layer_units()
    else:
        values = end_to_end(setups, rounds)
        units = END_TO_END

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s": setups,
              "rounds": [[{"op": op, "wall_s": rec["wall_s"],
                           "cpu_s": rec["cpu_s"],
                           "error": rec.get("error")} for op, rec in recs]
                         for recs, _ in rounds],
              "metrics": values}
    with open(OUT / ("%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(detail, f, indent=1)

    attempted = sum(len(recs) for recs, _ in rounds)
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
