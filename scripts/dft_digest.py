#!/usr/bin/env python3
"""One digest of the DFT limit and the oracle over every length-N pattern holding 0.

    python3 scripts/dft_digest.py --n 16

For each missing set that holds position 0, in the order of its bits
(pattern i misses 0 and every j with bit j - 1 of i set), the digest reads
``dft_sparsity_limit(p).to_json()`` and the oracle's answer at every K from
1 to ``(N - q) // 2 + 1``, one past the largest K the N - q samples allow.
Every nonempty pattern is a shift of one that holds 0, and shifts change
no limit, so these stand for all of them. Prints the SHA-256 hex digest and, when one is recorded below
for N, exits 1 unless it matches. A change to how the limit or the oracle
sweeps, such as which column subsets stand for an orbit, must leave it as
it is. N=16 takes about a minute on one BLAS thread (54 s on a 2-core
x86-64 host).
"""

import argparse
import hashlib
import sys

from cscert import MissingSamplePattern, dft_sparsity_limit, dft_uniqueness_oracle

# The digest for each N, recorded while the column test still swept one
# subset per shift orbit, before it swept one per bracelet.
RECORDED = {
    2: "335499a5ee81ccf1e039b409713d4065aa88a48c4da639838abcc7ac155fa485",
    4: "88081e527324d818dc04c5079ff676b3e3bee9d950c1d957a237904e4dcc8a24",
    8: "b5c0d2747c0bcfd91cbd853f7e5893ed8077d455efc3a38926e138193a3ad943",
    16: "d620379f9fcfaee745d28989a3acf915428ae6ff7e83041f13ed3c855b8d8a2f",
}


def digest(n: int) -> str:
    """The SHA-256 hex digest of every length-n pattern holding 0, its limit and oracle answers."""
    h = hashlib.sha256()
    for bits in range(1 << (n - 1)):
        missing = [0] + [j for j in range(1, n) if bits >> (j - 1) & 1]
        p = MissingSamplePattern.of(n, missing)
        answers = "".join("1" if dft_uniqueness_oracle(p, k) else "0"
                          for k in range(1, (n - len(missing)) // 2 + 2))
        h.update(f"{dft_sparsity_limit(p).to_json()} {answers}\n".encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=16, help="signal length, a power of two (default 16)")
    args = parser.parse_args(argv)
    got = digest(args.n)
    print(got)
    want = RECORDED.get(args.n)
    if want is not None and got != want:
        print(f"N={args.n}: the recorded digest is {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
