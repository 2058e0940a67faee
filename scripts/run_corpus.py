#!/usr/bin/env python3
"""Emit the instance corpus and print the invariant table of every file.

Usage:
    python scripts/run_corpus.py [--dir CORPUS_DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nielsenkit.invariants import analyze
from nielsenkit.io import emit_corpus, load_instance


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default="corpus", help="where to write the corpus")
    args = ap.parse_args()

    target = Path(args.dir)
    emit_corpus(target)
    print(f"corpus written to {target}/")
    print(f"{'file':22} {'L':>3} {'chi':>4}  classes (members: ind, rk, a, ichr)")
    failures = 0
    for path in sorted(target.glob("*.json")):
        f, _ = load_instance(path)
        rep = analyze(f)
        cells = []
        for c in rep.classes:
            rk = c.rank if c.rank is not None else "?"
            a = c.attract if c.attract is not None else "?"
            ichr = c.improved_char if c.improved_char is not None else "?"
            cells.append(f"{{{','.join(c.members)}}}: {c.index}, {rk}, {a}, {ichr}")
        verdictsum = "ok" if all(v != "fail" for v in rep.verdicts.values()) else "FAIL"
        if verdictsum != "ok":
            failures += 1
        print(f"{path.name:22} {rep.lefschetz:>3} {rep.chi:>4}  "
              + "; ".join(cells) + f"  [{verdictsum}]")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
