"""Record the reference outputs the workloads check against.

    PYTHONPATH=src python3 perfbench/record.py [SEED ...]

Writes ref/ctrb_blend_example1.txt (stdout of `dimvar ctrb
cases/example1.json --blend`) and ref/ladder_exact.json (the exact
`check` results of every ladder_exact case for each seed, default
seeds 0-9).  Run it only on a commit whose exact results are trusted:
the references exist to catch a later change of those results.
"""

from __future__ import annotations

import json
import sys

import workloads


def main(argv):
    seeds = [int(a) for a in argv] or list(range(10))
    rc, out = workloads._cli(["ctrb", str(workloads.EXAMPLE1), "--blend"])
    if rc != 0:
        raise SystemExit(f"ctrb --blend exited with {rc}")
    (workloads.REF / "ctrb_blend_example1.txt").write_text(out)

    path = workloads.REF / "ladder_exact.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds:
        refs[str(seed)] = {key: workloads._check_pipeline(*exact)
                           for key, _, _, _, exact, _ in workloads.ladder_cases(seed)}
        print(f"seed {seed} recorded", file=sys.stderr)
    path.write_text("{\n" + ",\n".join(
        f" {json.dumps(s)}: {json.dumps(refs[s], sort_keys=True)}"
        for s in sorted(refs, key=int)) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
