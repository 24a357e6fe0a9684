"""The benchmark's workloads: each turns a seed into one round of ops.

The seed picks elements, their reduced words and the order of the ops; the
make-up of a round (groups, lengths, interval sizes, op counts) is fixed, so
rounds from different seeds do the same amount of work.
"""

import random

import model

# Every shipped pipeline, with the group its schedule runs in.
PIPELINES = {
    "qaffine1": "A1", "qaffine2": "A2", "qaffine3": "A3", "qaffine4": "A4",
    "qaffine5": "A5", "qmatrix2": "A3", "m2-ext-A3": "A3",
    "m2-ext-affineA2": "affineA2", "weyl1": "A1", "weyl2": "A2",
    "weyl3": "A3", "weyl4": "A4", "horton3": "D4", "horton4": "D5",
}

# (group, length, |[1,w]|, ops per round).  Fixing the interval size fixes
# the size of the order to build, which dominates the op; the seed picks
# which elements of that size and which of their reduced words.
INTERVAL_CLASSES = (
    ("A4", 10, 120, 1),       # w0
    ("A4", 8, 72, 2),
    ("D5", 7, 72, 4),
    ("affineA2", 12, 120, 1),
)

# (group, bound): every (w, a) with l(w) <= bound and a not a right descent
# of w.  The seed picks each w's reduced word and the order of the ops.
SWEEP_CELLS = (("A3", 5), ("A4", 5), ("D4", 4), ("affineA2", 6))

# Ops of these workloads each run in a fresh interpreter, so that no op
# inherits state (such as a warm cache) from the ops before it.
FRESH_INTERPRETER = {"pipelines": True, "intervals": True, "sweep": False}


def pipeline_ops(rng):
    names = sorted(PIPELINES)
    rng.shuffle(names)
    return [{"name": n} for n in names]


def interval_ops(rng):
    ops = []
    for g, length, size, count in INTERVAL_CLASSES:
        group = model.Group(g)
        words = [model.random_reduced_word(group, w, rng)
                 for w in model.elements_by_length(group, length)[length]]
        members = [word for word in words
                   if len(model.Interval(group, word)) == size]
        ops.extend({"group": g, "word": word}
                   for word in rng.sample(members, count))
    rng.shuffle(ops)
    return ops


def sweep_ops(rng):
    ops = []
    for g, bound in SWEEP_CELLS:
        group = model.Group(g)
        for layer in model.elements_by_length(group, bound):
            for w in layer:
                word = model.random_reduced_word(group, w, rng)
                cur = group.length(w)
                ops.extend({"group": g, "word": word, "a": a}
                           for a in group.generators
                           if group.length(group.times_gen(w, a)) > cur)
    rng.shuffle(ops)
    return ops


MAKE = {"pipelines": pipeline_ops, "intervals": interval_ops,
        "sweep": sweep_ops}


def make_ops(workload, seed):
    """One round of the workload's ops for this seed."""
    return MAKE[workload](random.Random(seed))
