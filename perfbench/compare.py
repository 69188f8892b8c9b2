"""Compare two benchmark outcome files case by case.

    python3 perfbench/compare.py perfbench/out/A.json perfbench/out/B.json

Cases are matched by id; runs with the same workload and seed give a case
id the same inputs. A case decided in both runs must have the same outcome
digest; so must a case that failed in both. A case decided in only one run
(a deadline hit in the other) is reported as timing-dependent. Exits 1 if
any matched case differs.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict[str, dict]:
    doc = json.loads(open(path).read())
    return {c["id"]: c for c in doc["cases"] if not c["traced"]}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    common = sorted(set(a) & set(b), key=lambda i: [int(p) for p in i.split(".")])
    same, differ, timing = 0, [], []
    for case_id in common:
        x, y = a[case_id], b[case_id]
        if x["verdict"] != y["verdict"]:
            (timing if "undecided" in (x["verdict"], y["verdict"]) else differ).append(case_id)
        elif x["verdict"] == "undecided" or x["digest"] == y["digest"]:
            same += 1
        else:
            differ.append(case_id)
    print(f"{len(common)} common cases: {same} identical, {len(differ)} differ, "
          f"{len(timing)} decided in one run only; {len(a) - len(common)} and "
          f"{len(b) - len(common)} cases ran in one file only")
    for case_id in differ:
        print(f"differs {case_id}: {a[case_id]['reason']} vs {b[case_id]['reason']}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
