"""The set-based bead loop that schur_oracle.rim_hook_product replaced, kept
as its reference.

The same rim-hook rule (Bertram, Ciocan-Fontanine and Fulton, J. Algebra
219, 1999) over the same lr_expansion, with the abacus held as a set of
beta-numbers nu_i + k - i: an n-rim hook moves a bead from b to an empty
b - n >= 0, signed by (-1)^(k - 1 - the beads strictly between), and a
shape that cannot reach the k x (n-k) box adds nothing.  It shares no bead
code with the library, so the two cannot fail the same way.

Run as a script, it compares the two on every ordered pair of quantum
G(k,n) and exits 1 on a difference:

    PYTHONPATH=src:tests python tests/rim_hook_reference.py 5 10
"""

import sys

from schubert.exterior_core import Partition
from schubert.grassmann_contexts import box_partitions
from schubert.schur_oracle import lr_expansion, rim_hook_product


def rim_hook_reference(lam: Partition, mu: Partition, k: int, n: int) -> dict:
    """rim_hook_product(lam, mu, k, n) for partitions in the k x (n-k) box,
    by the set-based bead loop."""
    out = {}
    for nu, c in lr_expansion(min(lam, mu), max(lam, mu), k):
        beads = {part + k - 1 - i for i, part in enumerate(nu.padded(k))}
        d = 0
        while movable := [b for b in beads if b >= n and b - n not in beads]:
            b = movable[0]
            c *= (-1) ** (k - 1 - sum(b - n < x < b for x in beads))
            beads = beads - {b} | {b - n}
            d += 1
        if max(beads) < n:
            core = Partition(b - (k - 1 - i) for i, b in enumerate(sorted(beads, reverse=True)))
            out[(core, d)] = out.get((core, d), 0) + c
    return dict(sorted((key, c) for key, c in out.items() if c))


def mismatches(k: int, n: int) -> list:
    """The ordered pairs of quantum G(k,n) on which rim_hook_product and
    the reference differ, in value, key order or key type."""
    parts = box_partitions(k, n)
    bad = []
    # both orders of a pair back to back: all four calls share one
    # lr_expansion, which the bounded cache then still holds
    for i, lam in enumerate(parts):
        for mu in parts[i:]:
            for a, b in dict.fromkeys(((lam, mu), (mu, lam))):
                got, want = rim_hook_product(a, b, k, n), rim_hook_reference(a, b, k, n)
                if repr(list(got.items())) != repr(list(want.items())):
                    bad.append((tuple(a), tuple(b)))
    return bad


if __name__ == "__main__":
    k, n = map(int, sys.argv[1:3])
    bad = mismatches(k, n)
    print(f"rim_hook_product against the bead-set reference on G({k},{n}):",
          f"{len(box_partitions(k, n)) ** 2} ordered pairs, {len(bad)} differ", bad[:5])
    sys.exit(bool(bad))
