"""Census of sign-pair blocks over random division algebras.

Generates a corpus across dimensions 2/4/8 (isotopes of the classical
algebras by invertible operator pairs), tabulates how often each block
appears per dimension (one stacked sign_pair_many call per dimension),
and then walks one decorated algebra around all four blocks with the
twist functors to show the orbit is full.

Usage: python3 scripts/block_census.py [--count N] [--seed S]
"""

import argparse
from collections import Counter

import numpy as np

from divalg.core import SignPair, sign_pair, sign_pair_many
from divalg.decorated import functor_i
from divalg.samples import decorated_corpus, division_corpus

BLOCKS = ("++", "+-", "-+", "--")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=240,
                        help="corpus size (cycled over dims 2/4/8)")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args(argv)


def census(count: int, seed: int) -> dict[int, Counter]:
    tensors: dict[int, list] = {2: [], 4: [], 8: []}
    for alg in division_corpus(count, seed=seed):
        tensors[alg.dim].append(alg.c)
    table = {}
    for dim, cs in tensors.items():
        signs = sign_pair_many(np.stack(cs)) if cs else []
        table[dim] = Counter(SignPair(int(ell), int(r)).block
                             for ell, r in signs)
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    table = census(args.count, args.seed)
    header = "dim  " + "".join(f"{b:>6}" for b in BLOCKS) + "  total"
    print(header)
    print("-" * len(header))
    for dim in (2, 4, 8):
        row = table[dim]
        cells = "".join(f"{row.get(b, 0):>6}" for b in BLOCKS)
        print(f"{dim:>3}  {cells}  {sum(row.values()):>5}")

    x = decorated_corpus(1, seed=args.seed)[0]
    print(f"\ntwist orbit of one decorated algebra (dim {x.alg.dim}):")
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        block = sign_pair(functor_i(i, j, x).alg).block
        print(f"  I[{i}{j}] -> {block}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
