"""Workload definitions and the seeded input generator.

A workload is a list of jobs run one after another by a single caller
(closed loop, one client).  A ``compute`` job mirrors ``k1alex compute``:
``metabelian_rep(p, N)``, ``k1_invariant(p, rep, K)`` and
``metafinite_polynomial(p, rep)``; a ``poly`` job calls only the first and
the last.  This module imports nothing from k1alex, so the orchestrator can
read it without paying the library's import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Genus-2 presentations made by adding a trivial handle to 4_1 and 5_2
# (the same texts as the stabilization tests).
STABILIZED = {
    "s4_1": ("genus 2\n"
             "y1 = x1 x2 ; z1 = x1\n"
             "y2 = x2 x1 x2 ; z2 = x2\n"
             "y3 = x1 x4 ; z3 = x2\n"
             "y4 = 1 ; z4 = x3\n"),
    "s5_2": ("genus 2\n"
             "y1 = x1^-2 ; z1 = x2 x1^-2\n"
             "y2 = x1^-1 x2 ; z2 = x2\n"
             "y3 = x2^-1 x4 ; z3 = x1 x2\n"
             "y4 = 1 ; z4 = x3\n"),
}


@dataclass(frozen=True)
class Job:
    knot: str   # built-in name, or a key of STABILIZED
    cover: int  # N
    precision: int = 0  # K; 0 for a poly job
    kind: str = "compute"  # "compute" | "poly"

    @property
    def id(self) -> str:
        if self.kind == "poly":
            return f"{self.knot}/N{self.cover}/poly"
        return f"{self.knot}/N{self.cover}/K{self.precision}"


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple[Job, ...]


WORKLOADS = {
    # The power-sum logarithm dominates every job.  Dense products in large
    # groups (the mechanism of packed Q[H] products and of logs read off
    # det Upsilon) sit next to many tiny products in long series on small
    # groups, where per-call overhead dominates: geomean_job_s weighs the
    # small jobs as much as the large ones, so a change that wins only on
    # large groups shows.
    "log": Workload(
        "compute jobs dominated by the power-sum log: dense on |H| = 63 and 121, tiny products on |H| <= 7",
        (Job("4_1", 5, 16), Job("5_2", 4, 16),
         Job("3_1", 6, 32), Job("4_1", 2, 32), Job("5_2", 2, 32))),
    # The only workload where pivot search, ns_invert, gr_inverse and the
    # 4N x 4N Smith normal form carry weight.
    "elim_g2": Workload(
        "genus-2 compute jobs where elimination, ns_invert and gr_inverse carry weight",
        (Job("s4_1", 3, 10), Job("s4_1", 4, 10), Job("s5_2", 3, 10), Job("s5_2", 4, 10))),
    # Bypasses novikov entirely: a log or elimination change should not move it.
    "untwist": Workload(
        "metafinite polynomial only: the subset-DP determinant, bypassing the log",
        (Job("3_1", 9, kind="poly"), Job("5_2", 6, kind="poly"),
         Job("4_1", 7, kind="poly"), Job("s5_2", 6, kind="poly"))),
    # Small jobs for the benchmark's self-tests; not part of BENCHMARK.json.
    "tiny": Workload(
        "small jobs of both kinds for the self-tests",
        (Job("3_1", 2, 8), Job("4_1", 2, 8), Job("s4_1", 2, 8),
         Job("5_2", 3, kind="poly"))),
}

WALK_LENGTH = 6


def nielsen_walk(seed: int, workload: str, index: int, rank: int) -> list[tuple]:
    """Seeded walk of swap and invert moves, as (kind, i, j) triples.

    Left- and right-multiply moves and meridian conjugation are left out on
    purpose: they can change a job's cost many times over, which would turn
    a property of the program into run-to-run noise.
    """
    rng = random.Random(f"{seed}/{workload}/{index}")
    moves = []
    for _ in range(WALK_LENGTH):
        i = rng.randint(1, rank)
        if rng.random() < 0.5:
            moves.append(("invert", i, 0))
        else:
            j = rng.choice([k for k in range(1, rank + 1) if k != i])
            moves.append(("swap", i, j))
    return moves
