#!/usr/bin/env python3
"""Step counts of the seeded sweep of random problems on the 12-stage ladder.

Seed k draws its shape from ``default_rng(k).integers(4, 50, size=2)``,
then, from the same generator, its weights (standard normal, or uniform
on [0, 1] when k is a multiple of 3) and its marginals (uniform on
[0.5, 1.5], the columns scaled to the row total).  Even seeds maximize,
odd seeds minimize.  Each problem is solved on the 12-stage x1.5 ladder
to eta 1e-4 with a budget of 20,000 steps per stage.

Prints one JSON object: the total step count, the per-problem counts
keyed by seed, the same two for row fits (steps plus the mixed steps
undone and redone, ``SolveResult.stage_fits``) and for warm-up
temperatures (the distinct trace etas above the first stage's, run
before it when its start is cold), and the seeds whose solve did not
converge.  The default
seeds 1000-1239 are the 240-problem sweep whose counts the change log
quotes; iteration counts are deterministic, so a change that moves one
of them shows here.

With ``--compare OLD.json``, OLD.json being this script's output from
another commit, it prints instead one line per seed whose count moved,
with its old count, new count and their ratio, then both totals, and
the same for row fits when OLD.json has them; warm-up temperatures are
not compared, so older outputs without them still read:

    python scripts/run_count_sweep.py > old.json        # on the old commit
    python scripts/run_count_sweep.py --compare old.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from balanced_transport import MAXIMIZE, MINIMIZE, OTProblem, make_schedule, solve


def sweep_problem(seed: int) -> OTProblem:
    """The sweep's problem for one seed."""
    rng = np.random.default_rng(seed)
    n, m = (int(k) for k in rng.integers(4, 50, size=2))
    a = rng.standard_normal((n, m)) if seed % 3 else rng.uniform(0.0, 1.0, size=(n, m))
    r = rng.uniform(0.5, 1.5, size=n)
    c = rng.uniform(0.5, 1.5, size=m)
    c *= r.sum() / c.sum()
    return OTProblem(a, r, c, MAXIMIZE if seed % 2 == 0 else MINIMIZE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--first", type=int, default=1000, help="first seed (default 1000)")
    parser.add_argument("--count", type=int, default=240, help="number of seeds (default 240)")
    parser.add_argument("--compare", metavar="OLD.json", type=Path,
                        help="print the seeds whose count moved against this earlier output, and both totals")
    args = parser.parse_args()

    schedule = make_schedule(1e-4, 12, 1.5, 1e-2)
    counts, fits, warm_ups, unconverged = {}, {}, {}, []
    for seed in range(args.first, args.first + args.count):
        result = solve(sweep_problem(seed), schedule, max_iters=20_000)
        counts[str(seed)] = result.iterations
        fits[str(seed)] = sum(result.stage_fits)
        warm_ups[str(seed)] = len({eta for eta in result.trace.etas if eta > schedule.stages[0][0]})
        if not result.converged:
            unconverged.append(seed)
    if args.compare is None:
        print(json.dumps({"total": sum(counts.values()), "counts": counts, "fits_total": sum(fits.values()),
                          "fits": fits, "warm_ups_total": sum(warm_ups.values()), "warm_ups": warm_ups,
                          "unconverged": unconverged}, indent=1))
        return 0
    old = json.loads(args.compare.read_text())
    compare(old["counts"], counts, "steps")
    if "fits" in old:
        compare(old["fits"], fits, "fits")
    return 0


def compare(old: dict, new: dict, unit: str) -> None:
    """Print each seed whose count moved from ``old`` to ``new``, then both totals."""
    moved = [seed for seed in new if seed in old and old[seed] != new[seed]]
    for seed in moved:
        print(f"seed {seed}: {old[seed]} -> {new[seed]} {unit}, ratio {new[seed] / old[seed]:.4f}")
    old_total = sum(old[seed] for seed in new if seed in old)
    print(f"{len(moved)} of {len(new)} moved; total {old_total} -> {sum(new.values())} {unit}")


if __name__ == "__main__":
    sys.exit(main())
