"""Record the pinned outputs of every deterministic task into pins.json.

    python3 perfbench/pin.py

Run it only when a change is meant to alter pinned outputs (a value, a
witness, a node count or a CLI report); the benchmark treats any other
difference as a failed task.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    pins = {}
    for name in workloads.WORKLOADS:
        variants = (False, True) if name == "cli" else (False,)
        for in_process in variants:
            for task in workloads.build(name, 0, in_process).tasks:
                out = task.run()
                errors = task.verify(out)
                if errors:
                    raise SystemExit(f"{task.name}: {errors}")
                digest = task.digest(out)
                if digest is not None:
                    pins[task.name] = digest
                    print(task.name, flush=True)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
