"""Record the reference outputs that verify.py compares against.

    python3 perfbench/record_references.py

Runs every fixed (unseeded) command of every workload once through the CLI
of this checkout and rewrites references.json.  Run it only on a commit
whose outputs are known good; the references are the exactness contract.
"""

from __future__ import annotations

import json
import sys

import run
import verify
import workloads


def main() -> int:
    env = run.child_env()
    run.BUILD.mkdir(parents=True, exist_ok=True)
    references = {}
    for name in workloads.WORKLOADS:
        for cmd in workloads.commands(name, seed=0):
            if cmd.kind == "member" or cmd.label in references:
                continue
            result = run.run_child(run.cli_argv(cmd), env)
            if result.returncode != 0:
                print(f"{cmd.label}: exit {result.returncode}\n{result.stderr}", file=sys.stderr)
                return 1
            references[cmd.label] = verify.reference_entry(cmd, result.stdout)
            print(f"recorded {cmd.label}")
    verify.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
