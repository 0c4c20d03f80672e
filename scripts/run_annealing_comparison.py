#!/usr/bin/env python3
"""Annealed ladder versus single-stage run at the same final temperature.

On the default 64 x 64 grid the 12-stage ladder takes about 33 times
fewer steps than a single stage at its final temperature (232 against
7,603); at full scale (256 x 256) about 28 times (179 against 4,970).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from balanced_transport import GridSpec, generate_grid, make_schedule, run_single_stage, solve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--final-eta", type=float, default=1e-4)
    parser.add_argument("--stages", type=int, default=12)
    parser.add_argument("--factor", type=float, default=1.5)
    parser.add_argument("--tol", type=float, default=1e-2)
    parser.add_argument("--max-iters", type=int, default=500_000)
    args = parser.parse_args()

    problem = generate_grid(GridSpec(args.size))
    schedule = make_schedule(args.final_eta, args.stages, args.factor, args.tol)

    t0 = time.perf_counter()
    annealed = solve(problem, schedule, max_iters=args.max_iters)
    t_annealed = time.perf_counter() - t0
    print(
        f"annealed ({args.stages} stages, factor {args.factor}): "
        f"{annealed.iterations} iterations in {t_annealed:.2f}s"
    )
    print(f"  per stage: {list(annealed.stage_iterations)}")

    t0 = time.perf_counter()
    single = run_single_stage(problem, args.final_eta, args.tol, args.max_iters)
    t_single = time.perf_counter() - t0
    print(f"single stage (eta={args.final_eta:g}): {single.iterations} iterations in {t_single:.2f}s")
    print(f"iteration reduction factor: {single.iterations / annealed.iterations:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
