"""Record the goldens every benchmark job is checked against.

Run from the repository root::

    PYTHONPATH=src python3 bench/make_goldens.py

Each job runs once on its undisguised presentation (no Nielsen walk).  The
record holds the cover representation (so a walked input can carry it along),
the invertibility verdict, every projected log ``logs[k]`` as exact
orbit-class rationals, and the metafinite polynomial.  Regenerate only when
the invariants are meant to change; a benchmark run treats any difference as
a failed job.
"""

from __future__ import annotations

import json

from k1alex import k1_invariant, metabelian_rep, metafinite_polynomial

from worker import GOLDENS, base_presentation
from workloads import WORKLOADS


def _pairs(coeffs: dict) -> list:
    return [[list(e), str(q)] for e, q in sorted(coeffs.items())]


def golden(job) -> dict:
    p = base_presentation(job.knot)
    rep = metabelian_rep(p, job.cover)
    poly = metafinite_polynomial(p, rep)
    out = {
        "rep": {"divisors": list(rep.group.divisors),
                "kappa": [list(row) for row in rep.kappa.matrix],
                "images": [list(e) for e in rep.images]},
        "poly": [[d, _pairs(poly.terms[d].coeffs)] for d in sorted(poly.terms)],
    }
    if job.kind == "compute":
        report = k1_invariant(p, rep, job.precision)
        out["verdict"] = report.invertible
        out["logs"] = ({str(k): _pairs(report.logs[k].coeffs) for k in report.logs.degrees()}
                       if report.invertible == "yes" else {})
    return out


def main() -> None:
    jobs = {job.id: job for w in WORKLOADS.values() for job in w.jobs}
    records = {}
    for jid in sorted(jobs):
        records[jid] = golden(jobs[jid])
        print(jid, records[jid].get("verdict", "poly"), flush=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        # one job per line keeps a changed golden readable in a diff
        fh.write('{"jobs": {\n')
        fh.write(",\n".join(f"{json.dumps(jid)}: {json.dumps(rec, sort_keys=True)}"
                             for jid, rec in records.items()))
        fh.write("\n}}\n")


if __name__ == "__main__":
    main()
