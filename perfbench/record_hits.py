"""Record the hit count of every search the `search` workload can run.

    python3 perfbench/record_hits.py

Writes ``expected_hits.json``: for each (p, q, nu, budget) of the list,
the number of hits `search_isoparametric_pencil` returned when the table
was recorded.  The benchmark checks every later search against it.
"""

from __future__ import annotations

import json
import sys

import generate
from eikq.constructors import search_isoparametric_pencil


def main() -> int:
    rows = [[p, q, nu, budget, len(search_isoparametric_pencil(p, q, nu, budget=budget))]
            for p, q, nu, budget in generate.SEARCHES]
    generate.HITS_FILE.write_text(json.dumps({"hits": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
