#!/usr/bin/env python3
"""Long-running randomized soak test for the dynamic bit vector.

Replays random op scripts against the flat-list oracle, checking
contents, well-formedness and the red-black invariant after every
single op.  Even-numbered scripts start from an empty vector; odd ones
from ``from_bits`` of up to 8*high random bits, so the bulk-built
shapes (evenly filled leaves, a red last level) go through splits,
borrows and merges too.  Any divergence aborts with a nonzero exit
code and the failing seed, so a run is reproducible with --seed.
"""

import argparse
import random
import sys
import time

from succinct import SizeBounds, from_bits
from succinct.verify import ScriptRunner, VerifyError, random_script


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scripts", type=int, default=200)
    parser.add_argument("--ops", type=int, default=500)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--low", type=int, default=8)
    parser.add_argument("--high", type=int, default=32)
    args = parser.parse_args()

    base = args.seed if args.seed is not None else random.randrange(2**32)
    bounds = SizeBounds(args.low, args.high)
    print(f"bounds=({args.low},{args.high}) scripts={args.scripts} ops={args.ops} seed={base}")

    start = time.perf_counter()
    for k in range(args.scripts):
        seed = base + k
        rng = random.Random(seed)
        tree, size = None, 0
        if k % 2:
            size = rng.randint(0, 8 * args.high)
            tree = from_bits([rng.getrandbits(1) for _ in range(size)], bounds)
        try:
            runner = ScriptRunner(bounds, verify=True, tree=tree)
            runner.run(random_script(rng, args.ops, size))
        except VerifyError as e:
            print(f"FAILED at script seed {seed}: {e}", file=sys.stderr)
            return 1
        if (k + 1) % 50 == 0:
            rate = (k + 1) * args.ops / (time.perf_counter() - start)
            print(f"  {k + 1}/{args.scripts} scripts, {rate:,.0f} checked ops/s")
    print(f"ok: {args.scripts * args.ops} ops in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
