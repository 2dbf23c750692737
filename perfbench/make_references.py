#!/usr/bin/env python3
"""Rewrite references.json, the stored outputs that benchmark runs are checked against.

    python3 perfbench/make_references.py [--seeds 32] [--workloads desk_c5,paper_train,attack_eval]

For seeds 0..N-1 (and seed 0 of the smoke sizes) it runs each named workload
once, untimed, and keeps: for desk_c5 the epoch that first met the c5 target
and the final training loss, for paper_train the final training loss, for
attack_eval the SHA-256 of the image files that ``capnet generate`` wrote.
Run it from the repository root, and only when a change is meant to alter
those outputs; the renderer's bytes are meant to stay stable.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--workloads", default="desk_c5,paper_train,attack_eval",
                        help="the workloads to regenerate; the others keep their references")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    path = os.path.join(HERE, "references.json")
    with open(path, encoding="utf-8") as f:
        refs = json.load(f)
    work = os.path.join(ROOT, ".perfbench_work", f"references-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for cls in (workloads.WORKLOADS[name] for name in args.workloads.split(",")):
            refs[cls.name] = {}
            for size, seeds in (("full", range(args.seeds)), ("smoke", [0])):
                for seed in seeds:
                    workload = cls(seed, getattr(cls, size.upper()), {}, work)
                    phases = []
                    state = workload.setup(phases)
                    facts = workload.run(state, phases)
                    checks, outputs = workload.verify(state, facts, phases)
                    if not all(checks.values()) or any(p.failed for p in phases):
                        raise SystemExit(f"{cls.name} seed {seed} ({size}) failed: {checks}")
                    refs.setdefault(cls.name, {}).setdefault(size, {})[str(seed)] = (
                        cls.reference(outputs, facts))
                    print(cls.name, size, seed, refs[cls.name][size][str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
