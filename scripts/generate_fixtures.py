#!/usr/bin/env python3
"""Write the chain-5 and tree-12 benchmark fixtures as JSON files.

Usage: python3 scripts/generate_fixtures.py [OUTDIR]   (default: fixtures/)
"""

import os
import sys

from gasadapt.fileio import write_json
from gasadapt.fixtures import (
    chain5_network_dict,
    chain5_scenario_dict,
    tree12_network_dict,
    tree12_scenario_dict,
)


def main() -> int:
    outdir = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    os.makedirs(outdir, exist_ok=True)
    files = {
        "chain-5.network.json": chain5_network_dict(),
        "chain-5.scenario.json": chain5_scenario_dict(),
        "tree-12.network.json": tree12_network_dict(),
        "tree-12.scenario.json": tree12_scenario_dict(),
    }
    for name, doc in files.items():
        path = os.path.join(outdir, name)
        write_json(doc, path)
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
