"""Checks of each op's output against the independent model.

Each check returns None when the output is right and a one-line reason
when it is not.  Nothing here trusts a stored copy of an earlier output.
"""

from functools import lru_cache

import model
from workloads import PIPELINES

PUSHOUT_LEGS = ("nu1_bijective_op", "nu2_injective_op", "top_bijective_op",
                "square_commutes", "top_inverse_restrictions_op", "ok")


@lru_cache(maxsize=None)
def model_interval(group, word):
    """The model's [1, w] and its cover relation."""
    iv = model.Interval(model.Group(group), word)
    return iv, frozenset(iv.covers())


def _elements(iv, labels):
    """Model elements of the word labels, or a reason they are not [1, w]."""
    g = iv.group
    elems = {}
    for lab in labels:
        word = model.parse_label(lab)
        x = g.element(word)
        if iv.length.get(x) != len(word):
            return None, "label %s is not a reduced word of an element " \
                "of [1,w]" % lab
        elems[lab] = x
    if len(set(elems.values())) != len(iv) or len(elems) != len(iv):
        return None, "%d labels for the %d elements of [1,w]" \
            % (len(elems), len(iv))
    return elems, None


def _check_order(iv, covers, elem_of, labels, rank, hasse):
    """elem_of maps each poset label to a model element of [1, w]."""
    for i, lab in enumerate(labels):
        if rank[i] != iv.length[elem_of[lab]]:
            return "rank of %s is %d, model length %d" \
                % (lab, rank[i], iv.length[elem_of[lab]])
    got = {(elem_of[labels[a]], elem_of[labels[b]]) for a, b in hasse}
    if len(got) != len(hasse) or got != covers:
        return "Hasse edges differ from the model's covers (%d of %d " \
            "right, %d edges)" % (len(got & covers), len(covers), len(hasse))
    return None


def check_interval(op, out):
    iv, covers = model_interval(op["group"], tuple(op["word"]))
    if out["size"] != len(iv):
        return "size %d, model %d" % (out["size"], len(iv))
    if tuple(out["profile"]) != iv.rank_profile():
        return "rank profile %s, model %s" % (out["profile"], iv.rank_profile())
    elem_of, why = _elements(iv, out["labels"])
    if why:
        return why
    return _check_order(iv, covers, elem_of, out["labels"], out["rank"],
                        out["hasse"])


def schedule_word(schedule):
    """The word a schedule builds: right steps append, left steps prepend."""
    word = ()
    for gen, side in schedule:
        if gen is not None:
            word = (gen,) + word if side == "left" else word + (gen,)
    return word


def check_pipeline(op, out):
    word = schedule_word(out["schedule"])
    if tuple(out["word"]) != word:
        return "final word %s, schedule gives %s" % (out["word"], list(word))
    iv, covers = model_interval(PIPELINES[op["name"]], word)
    if len(out["labels"]) != len(iv):
        return "%d primes, model [1,w] has %d" % (len(out["labels"]), len(iv))
    nabla = out["nabla"]
    elem_of, why = _elements(iv, list(nabla))
    if why:
        return why
    pulled = {nabla[lab]: x for lab, x in elem_of.items()}
    if len(pulled) != len(iv) or set(pulled) != set(out["labels"]):
        return "nabla is not a bijection onto the final poset"
    return _check_order(iv, covers, pulled, out["labels"], out["rank"],
                        out["hasse"])


def check_pushout(op, out):
    word = tuple(op["word"])
    for leg in PUSHOUT_LEGS:
        if out.get(leg) is not True:
            return "%s is %r" % (leg, out.get(leg))
    small = len(model_interval(op["group"], word)[0])
    big = len(model_interval(op["group"], word + (op["a"],))[0])
    want = {"A": small, "interval_wbar": small,
            "B": big, "interval_wbara": big}
    if out["sizes"] != want:
        return "sizes %s, model %s" % (out["sizes"], want)
    return None


CHECK = {"pipelines": check_pipeline, "intervals": check_interval,
         "sweep": check_pushout}
