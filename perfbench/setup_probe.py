"""Set-up probe: a fresh interpreter imports satguide and reads workload inputs.

Usage: python3 setup_probe.py <repo root> problems|records <path>...

``problems`` parses each CNF problem file into its own signature;
``records`` loads each proof-search record.  The parent times the whole
process, interpreter start included.
"""

import os
import sys


def main(argv: list[str]) -> int:
    root, kind, *paths = argv
    sys.path.insert(0, os.path.join(root, "src"))
    from satguide import saturation, tptp
    from satguide.clauses import Signature

    for path in paths:
        if kind == "problems":
            with open(path, encoding="utf-8") as fp:
                tptp.parse_problem(fp.read(), Signature(), path)
        elif kind == "records":
            saturation.load_record(path)
        else:
            print(f"unknown input kind {kind!r}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
