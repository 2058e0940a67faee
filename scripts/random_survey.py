#!/usr/bin/env python3
"""Random survey: the theorem verdicts over seeded random injective maps.

Samples seeded random injective rose endomorphisms, runs the full pipeline on
each, and tallies the theorem checks plus ind(F) = 1 - rk(F) - a(F) on every
verified class.  Cross-check 1 enforces that equality (a mismatch is a
structure error), so its tally always reads full and is no evidence for the
theorem.  The seed defaults to sampling.DEFAULT_SEED.

Usage:
    python scripts/random_survey.py [--count N] [--rank R] [--max-image-len M]
                                    [--seed S]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nielsenkit.sampling import DEFAULT_SEED, run_survey


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--rank", type=int, default=2)
    ap.add_argument("--max-image-len", type=int, default=4)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args()

    t0 = time.time()
    stats = run_survey(args.count, rank=args.rank,
                       max_image_len=args.max_image_len, seed=args.seed)
    dt = time.time() - t0

    print(f"seed {args.seed}: {stats.requested} injective endomorphisms of rank "
          f"{args.rank}, image length <= {args.max_image_len}  ({dt:.1f}s)")
    print(f"  analyzed:            {stats.analyzed}")
    print(f"  failed classification: {stats.skipped_unclassified} "
          f"(skip rate {stats.skip_rate:.1%})")
    print(f"  theorem violations:  {len(stats.violations)}")
    for v in stats.violations[:10]:
        print(f"    {v}")
    print(f"  ind == 1 - rk - a:   {stats.conjecture_equal}/"
          f"{stats.conjecture_checked} verified classes")
    return 0 if stats.ok else 1


if __name__ == "__main__":
    sys.exit(main())
