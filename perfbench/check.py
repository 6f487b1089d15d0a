"""Result checker: label-invariant summaries of CLI output against references.

`summarize` turns one job's stdout into the part of its result that does
not depend on how the generators are labelled, and raises CheckError when
the output is malformed or internally inconsistent.  `check` compares that
summary with the stored reference.  References were made from the seed
commit's outputs by make_refs.py.
"""
from __future__ import annotations

import json


class CheckError(Exception):
    """The output is malformed, inconsistent, or differs from the reference."""


def _stats(text):
    table = json.loads(text)["table"]
    return {"c": [row["c"] for row in table], "d": [row["d"] for row in table]}


def _ball(text):
    """Elements and one-descent elements per length; all words distinct."""
    c, d, words = [], [], set()
    for line in text.splitlines():
        rec = json.loads(line)
        i, word, desc = rec["i"], rec["w"], rec["desc"]
        if i == len(c):
            c.append(0)
            d.append(0)
        elif i != len(c) - 1:
            raise CheckError(f"length {i} out of order after length {len(c) - 1}")
        if len(word) != i or (i > 0) != bool(desc):
            raise CheckError(f"inconsistent record {rec}")
        words.add(word)
        c[i] += 1
        d[i] += len(desc) == 1
    if len(words) != sum(c):
        raise CheckError(f"{sum(c) - len(words)} repeated words")
    return {"c": c, "d": d}


def _verify(text):
    payload = json.loads(text)
    for suite in payload["suites"]:
        if suite["failures"] or suite["verdict"] != "holds":
            raise CheckError(f"suite {suite['lemma']} fails")
    if not payload["all_hold"]:
        raise CheckError("all_hold is false")
    return {"suites": [[s["lemma"], s["verdict"]] for s in payload["suites"]],
            "skipped": [[s["suite"], s["kind"]] for s in payload["skipped"]]}


def _series(text):
    payload = json.loads(text)
    if not payload["agreement"] or payload["coeffs"] != payload["enumerated"]:
        raise CheckError("series coefficients disagree with the enumeration")
    return {key: payload[key] for key in ("num", "den", "coeffs", "verdicts")}


def _info(text):
    subsets = json.loads(text)["spherical_subsets"]
    return {"count": len(subsets), "types": sorted(s["type"] for s in subsets)}


_SUMMARIES = {"stats": _stats, "ball": _ball, "verify": _verify,
              "series": _series, "info": _info}


def summarize(kind, text):
    """Label-invariant summary of one command's stdout."""
    try:
        return _SUMMARIES[kind](text)
    except (ValueError, KeyError, TypeError) as err:
        raise CheckError(f"unreadable {kind} output: {err!r}") from err


def check(kind, text, reference):
    """Raise CheckError unless the output summarizes to the reference."""
    got = summarize(kind, text)
    if got != reference:
        diff = sorted(k for k in reference if got.get(k) != reference[k])
        raise CheckError(f"{kind} output differs from the reference in {diff}")
