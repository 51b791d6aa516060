"""Write digests.json: the sha256 of every op output of the default seed.

Usage, from the root of a checkout at the commit whose outputs are the
reference:

    python3 perfbench/make_digests.py

Every op (warm-up and unscored ops included) runs once; an op whose
exact identity check fails stops the script, so only checked outputs
are stored.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from run import DIGESTS, SRC, load_linkhom


def main() -> int:
    sys.path.insert(0, SRC)
    lh = load_linkhom()
    digests: dict[str, str] = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make(lh, workloads.DEFAULT_SEED)
        for op in [wl.warmup] + wl.ops + wl.extra:
            out = op.call()
            if not op.check(out):
                print(f"{name}: identity check failed for {op.key}", file=sys.stderr)
                return 1
            digests[op.key] = hashlib.sha256(op.text(out).encode()).hexdigest()
        print(f"{name}: {len(wl.ops)} ops", file=sys.stderr)
    with open(DIGESTS, "w") as f:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": dict(sorted(digests.items()))}, f, indent=0)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
