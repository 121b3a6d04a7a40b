"""One timed pass over a workload, in a fresh interpreter.

Usage (normally started by run.py, with ``src`` on PYTHONPATH)::

    python3 bench/worker.py --workload log --seed 3 [--trace --spans FILE]
    python3 bench/worker.py --workload log --seed 3 --setup-only

The process imports k1alex, loads the goldens, builds the seeded inputs and
runs every job once, then checks each result exactly against its golden.  It
prints one JSON object as its last line of output.  ``ready`` is the
CLOCK_MONOTONIC time at which the first job starts, so the caller can time
interpreter start-up plus set-up from its own clock.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from k1alex import cover, grouprings, k1core, upsilon
from k1alex.grouprings import FiniteAbelianGroup, GroupAlgebraElem, GroupAut, MetaRep
from k1alex.presentation import (
    MeridianPresentation,
    NielsenMove,
    apply_nielsen,
    builtin,
    parse_presentation,
    transport_rep,
)
from k1alex.upsilon import LaurentPolyGA, poly_equiv

from tracing import Tracer, wrapped_names
from workloads import STABILIZED, WORKLOADS, Job, nielsen_walk

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
JOB_TIMEOUT_S = 60.0


class JobTimeout(Exception):
    """A job ran past its time limit."""


class WarmStateError(RuntimeError):
    """A pass would start with state left over from earlier work."""


@dataclass
class Input:
    job: Job
    presentation: MeridianPresentation
    rep: MetaRep  # the golden representation carried along the walk
    golden: dict


def base_presentation(knot: str) -> MeridianPresentation:
    if knot in STABILIZED:
        return parse_presentation(STABILIZED[knot], name=knot)
    return builtin(knot)


def _elem_map(pairs) -> dict:
    return {tuple(e): Fraction(q) for e, q in pairs}


def parse_golden(raw: dict, cover_n: int) -> dict:
    """Golden record with exact values: rep, verdict, logs and polynomial."""
    H = FiniteAbelianGroup(raw["rep"]["divisors"])
    rep = MetaRep(H, GroupAut(H, raw["rep"]["kappa"]),
                  tuple(tuple(e) for e in raw["rep"]["images"]), cover_n)
    poly = LaurentPolyGA(H, {d: GroupAlgebraElem(H, _elem_map(c))
                             for d, c in raw["poly"]})
    out = {"rep": rep, "poly": poly}
    if "verdict" in raw:
        out["verdict"] = raw["verdict"]
        out["logs"] = {int(k): _elem_map(v) for k, v in raw["logs"].items()}
    return out


def load_goldens(path: Path = GOLDENS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


def make_inputs(workload: str, seed: int, goldens: dict) -> list[Input]:
    """Each job's presentation moved by its seeded Nielsen walk."""
    out = []
    for idx, job in enumerate(WORKLOADS[workload].jobs):
        golden = parse_golden(goldens[job.id], job.cover)
        p, rep = base_presentation(job.knot), golden["rep"]
        for kind, i, j in nielsen_walk(seed, workload, idx, p.rank):
            move = NielsenMove(kind, i, j)
            p, rep = apply_nielsen(p, move), transport_rep(rep, move)
        out.append(Input(job, p, rep, golden))
    return out


def run_job(inp: Input):
    """The calls ``k1alex compute`` makes (a poly job skips k1_invariant)."""
    p, job = inp.presentation, inp.job
    rep = cover.metabelian_rep(p, job.cover)
    report = (k1core.k1_invariant(p, rep, job.precision)
              if job.kind == "compute" else None)
    poly = upsilon.metafinite_polynomial(p, rep)
    return rep, report, poly


def isomorphism(src: MetaRep, dst: MetaRep) -> dict | None:
    """Table of the automorphism of H carrying src onto dst, if there is one.

    It must send kappa_src^k(image_i) to kappa_dst^k(image_i) for every k and
    i; the table is built along every such generator and refused if two paths
    disagree or the map is not a bijection of H.
    """
    g, h = src.group, dst.group
    if g != h:
        return None
    gens = [(src.kappa.apply(a, k), dst.kappa.apply(b, k))
            for a, b in zip(src.images, dst.images) for k in range(src.cover_n)]
    table = {g.identity(): h.identity()}
    frontier = [g.identity()]
    while frontier:
        nxt = []
        for e in frontier:
            for a, b in gens:
                e2, v = g.add(e, a), h.add(table[e], b)
                seen = table.get(e2)
                if seen is None:
                    table[e2] = v
                    nxt.append(e2)
                elif seen != v:
                    return None
        frontier = nxt
    if len(table) != g.order or len(set(table.values())) != g.order:
        return None
    return table


def check(inp: Input, output) -> str | None:
    """None when the output matches the golden exactly, else the mismatch."""
    rep, report, poly = output
    golden, target = inp.golden, inp.rep
    phi = isomorphism(rep, target)
    if phi is None:
        return "cover: representation is not isomorphic to the golden one"
    if report is not None:
        if report.invertible != golden["verdict"]:
            return f"verdict {report.invertible!r} != golden {golden['verdict']!r}"
        if report.invertible == "yes":
            kappa = target.kappa
            logs = {}
            for k in report.logs.degrees():
                cls: dict = {}
                for e, c in report.logs[k].coeffs.items():
                    e2 = min(kappa.orbit(phi[e]))
                    cls[e2] = cls.get(e2, 0) + c
                logs[k] = {e: c for e, c in cls.items() if c}
            if logs != golden["logs"]:
                return "logs differ from the golden"
    H = target.group
    mapped = LaurentPolyGA(H, {d: GroupAlgebraElem(H, {phi[e]: c for e, c in a.coeffs.items()})
                               for d, a in poly.terms.items()})
    if not poly_equiv(mapped, golden["poly"]):
        return "metafinite polynomial differs from the golden"
    return None


def _on_alarm(signum, frame):
    raise JobTimeout("job ran past its time limit")


@dataclass
class PassResult:
    ready: float
    wall_s: float
    job_s: list[float]
    errors: list[str | None]
    rss_mb: float
    outputs: list


def run_pass(inputs: list[Input], tracer: Tracer | None = None,
             job_timeout: float = JOB_TIMEOUT_S) -> PassResult:
    """Run every job once, then check the outputs (checking is not timed)."""
    if grouprings._INVERSE_CACHE:
        raise WarmStateError(f"gr_inverse cache holds {len(grouprings._INVERSE_CACHE)} "
                             "entries at the start of a pass")
    signal.signal(signal.SIGALRM, _on_alarm)
    clock = time.perf_counter
    job_s, outputs, errors = [], [], []
    ready = time.monotonic()
    start = clock()
    for idx, inp in enumerate(inputs):
        if tracer is not None:
            tracer.job = idx
        t0 = clock()
        try:
            signal.setitimer(signal.ITIMER_REAL, job_timeout)
            try:
                outputs.append(run_job(inp))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            errors.append(None)
        except Exception as exc:  # a failing job is counted, the pass goes on
            outputs.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        job_s.append(clock() - t0)
    wall = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for idx, inp in enumerate(inputs):
        if errors[idx] is None:
            errors[idx] = check(inp, outputs[idx])
    return PassResult(ready, wall, job_s, errors, rss_mb, outputs)


def max_coeff_bits(outputs) -> int:
    """Largest numerator or denominator bit length in the Witt parts, logs and polynomials."""
    vals = []
    for out in outputs:
        if out is None:
            continue
        _, report, poly = out
        vals += [q for a in poly.terms.values() for q in a.coeffs.values()]
        if report is not None and report.invertible == "yes":
            vals += [q for a in report.witt.coeffs for q in a.coeffs.values()]
            vals += [q for k in report.logs.degrees() for q in report.logs[k].coeffs.values()]
    return max((max(q.numerator.bit_length(), q.denominator.bit_length()) for q in vals),
               default=0)


def layer_metrics(tracer: Tracer, inputs: list[Input], result: PassResult) -> dict:
    """Per-layer metrics of one traced pass (times are self times)."""
    st = tracer.self_times()
    reports = [out[1] for out in result.outputs if out is not None and out[1] is not None]
    nontrivial = tracer.count("gr_inverse_nontrivial")
    hits = tracer.count("gr_inverse_hits")
    return {
        "novikov.ns_log_s": st.get("novikov.ns_log", 0.0),
        "novikov.series_mul_calls": tracer.count("series_mul"),
        "grouprings.ga_mul_calls": tracer.count("ga_mul"),
        "grouprings.gr_inverse_calls": tracer.calls("grouprings.gr_inverse"),
        "grouprings.gr_inverse_s": st.get("grouprings.gr_inverse", 0.0),
        "grouprings.gr_inverse_nontrivial_calls": nontrivial,
        "grouprings.gr_inverse_cache_hit_ratio": hits / nontrivial if nontrivial else 0.0,
        "grouprings.max_coeff_bits": max_coeff_bits(result.outputs),
        "novikov.ns_invert_s": st.get("novikov.ns_invert", 0.0),
        "novikov.ns_invert_calls": tracer.calls("novikov.ns_invert"),
        "novikov.witt_normalize_s": st.get("novikov.witt_normalize", 0.0),
        "k1core.pivot_unit_test_s": st.get("k1core.pivot_unit_test", 0.0),
        "k1core.pivot_unit_tests": tracer.calls("k1core.pivot_unit_test"),
        "k1core.eliminate_self_s": st.get("k1core.eliminate", 0.0),
        "k1core.pivots": sum(len(r.pivot_trace) for r in reports),
        "k1core.non_witt_pivots": sum(not s.witt_type for r in reports for s in r.pivot_trace),
        "k1core.swaps": sum(r.swaps for r in reports),
        "upsilon.upsilon_matrix_s": st.get("upsilon.upsilon_matrix", 0.0),
        "upsilon.det_commutative_s": st.get("upsilon.det_commutative", 0.0),
        "upsilon.block_dim": max(inp.presentation.rank * inp.job.cover for inp in inputs),
        "upsilon.is_unit_laurent_calls": tracer.calls("upsilon.is_unit_laurent"),
        "cover.metabelian_rep_s": st.get("cover.metabelian_rep", 0.0),
        "cover.smith_normal_form_s": st.get("cover.smith_normal_form", 0.0),
        "k1core.build_fox_matrix_s": st.get("k1core.build_fox_matrix", 0.0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="file to write the traced spans to")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop where the first job would start")
    args = ap.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed, load_goldens())
    if args.setup_only:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_pass(inputs, tracer)
    payload = {
        "ready": result.ready,
        "wall_s": result.wall_s,
        "job_s": result.job_s,
        "geomean_job_s": math.exp(sum(map(math.log, result.job_s)) / len(result.job_s)),
        "errors": result.errors,
        "rss_mb": result.rss_mb,
        "wrapped": wrapped_names(),
    }
    if tracer is not None:
        payload["layers"] = layer_metrics(tracer, inputs, result)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
