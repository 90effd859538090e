"""Detection-boundary scan for the weak sparse-mixture regime.

Sweeps a (p, q) grid at fixed m and labels each cell by its side of the
two analytic boundaries: p + q = 1/2 (sum test) and 2p + q = 1 (higher
criticism).  Cells inside a boundary should show non-trivial power for
the corresponding test; cells above 2p + q = 1 should collapse to the
test size.

Example:
    python scripts/run_boundary_scan.py --p 0.1,0.2,0.3,0.4 \
        --q 0.1,0.3,0.5,0.7 --m 10000 --out scan.csv
"""

import argparse
import sys
import time
from pathlib import Path

from wmkit.simulation import boundary_scan, csv_text


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", default="0.1,0.2,0.3,0.4", help="comma-separated p values")
    ap.add_argument("--q", default="0.1,0.3,0.5,0.7", help="comma-separated q values")
    ap.add_argument("--m", type=int, default=10_000)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--alpha", type=float, default=0.01)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=Path("boundary_scan.csv"))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    p_list = [float(s) for s in args.p.split(",")]
    q_list = [float(s) for s in args.q.split(",")]
    t0 = time.time()
    table = boundary_scan(p_list, q_list, args.m, reps=args.reps, alpha=args.alpha, seed=args.seed)
    args.out.write_text(csv_text(table))
    for row in table:
        print(
            f"p={row['p']:.2f} q={row['q']:.2f}  {row['statistic']:<4s} "
            f"power={row['power']:.4f}  [{row['region']}]"
        )
    print(f"wrote {args.out} in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
