"""Runs a list of bruhatspec operations in this interpreter.

Started by run.py with ``src`` on PYTHONPATH.  Reads a job from stdin:
``{"workload": ..., "ops": [...], "trace": bool, "setup_only": bool,
"spans": path or null}``, and writes one JSON object to stdout with the
set-up time, the peak resident memory, and for each op its wall and CPU
time and its output (or the error it raised).  Outputs are extracted after
the op's clock stops; run.py checks them against the model.
"""

import json
import resource
import sys
import time


def _poset_fields(P):
    return {"labels": list(P.labels),
            "rank": [P.rank[i] for i in range(len(P))],
            "hasse": [list(e) for e in P.hasse]}


def _prepare_pipeline(bs, op):
    spec = bs.spectra.builtin(op["name"])
    schedule = [[st.gen, st.side] for st in spec.steps]

    def run():
        return bs.spectra.run_pipeline(spec)

    def output(res):
        out = _poset_fields(res.final_poset)
        out.update(schedule=schedule, word=list(res.word),
                   nabla=dict(res.nabla.assignment))
        return out

    return run, output


def _prepare_interval(bs, op):
    m = bs.coxeter.matrix_by_name(op["group"])
    word = tuple(op["word"])

    def run():
        iv = bs.bruhat.interval(m, word)
        return iv, iv.to_poset()

    def output(res):
        iv, P = res
        out = _poset_fields(P)
        out.update(size=len(iv), profile=list(iv.rank_profile()))
        return out

    return run, output


def _prepare_pushout(bs, op):
    m = bs.coxeter.matrix_by_name(op["group"])
    word, a = tuple(op["word"]), op["a"]

    def run():
        return bs.poset.pushout_square(m, word, a)

    return run, dict


PREPARE = {"pipelines": _prepare_pipeline, "intervals": _prepare_interval,
           "sweep": _prepare_pushout}


def main():
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    # Importing the program and building its inputs is the set-up phase.
    import bruhatspec
    import bruhatspec.bruhat
    import bruhatspec.coxeter
    import bruhatspec.poset
    import bruhatspec.spectra
    prepare = PREPARE[job["workload"]]
    ops = [prepare(bruhatspec, op) for op in job["ops"]]
    setup_s = time.perf_counter() - t0
    report = {"setup_s": setup_s, "ops": []}
    if job.get("setup_only"):
        json.dump(report, sys.stdout)
        return
    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install()
    results = []
    for run, _ in ops:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            res = tracer.run_op(run) if tracer else run()
            err = None
        except Exception as e:  # a failed op is counted, not fatal
            res, err = None, "%s: %s" % (type(e).__name__, e)
        results.append((time.perf_counter() - w0, time.process_time() - c0,
                        res, err))
    report["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.write(job["spans"])
    for (wall, cpu, res, err), (_, output) in zip(results, ops):
        rec = {"wall_s": wall, "cpu_s": cpu}
        if err is None:
            rec["out"] = output(res)
        else:
            rec["error"] = err
        report["ops"].append(rec)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
