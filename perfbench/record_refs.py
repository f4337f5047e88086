"""Record the cli workload's reference values from the current sources.

    python3 perfbench/record_refs.py

Runs every op of the cli mix that should succeed, once per tabulated
variant where the op uses one, parses its stdout and writes the values
to perfbench/cli_refs.json.  The committed file was recorded at the
commit that introduced the benchmark; re-record only when an output is
meant to change, and say why in the commit.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads as wl


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                            text=True).stdout.strip() or "unknown"
    values = {}
    for op in wl.MIX:
        if op.expect != 0:
            continue
        for variant in range(len(wl.TABULATED)) if op.tabulated else (0,):
            proc = subprocess.run([sys.executable, "-m", "ringsagnac.cli", *op.command(variant)],
                                  cwd=wl.ROOT, env=wl.child_env(), capture_output=True,
                                  text=True, timeout=wl.CLI_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{op.key}@{variant}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            values[op.ref_key(variant)] = wl.parse_output(proc.stdout, op.stride)
    wl.REFS_PATH.write_text(json.dumps({"commit": commit, "values": values}, indent=1) + "\n")
    print(f"wrote {len(values)} references to {wl.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
