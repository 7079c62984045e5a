"""One benchmark step in a fresh interpreter, so every pass starts cold.

Reads one JSON request on standard input and prints one JSON line:

* ``{"role": "prepare", "workload", "seed"}``: the workload's inputs;
* ``{"role": "pass", "workload", "inputs", "workdir", "spans"}``: one pass;
  with ``spans`` set to a path, the pass is traced and its spans go there.

Imports ``qq22`` from the ``src`` directory next to this one.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402


def main():
    req = json.load(sys.stdin)
    role, workload = req["role"], req["workload"]
    if role == "prepare":
        out = workloads.prepare(workload, req["seed"])
    elif role == "pass":
        spans = req.get("spans")
        tr = tracer.Tracer() if spans else None
        out = workloads.run_pass(workload, req["inputs"], req["workdir"], tr)
        if tr is not None:
            tr.write(spans)
    else:
        raise ValueError("unknown role %r" % role)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
