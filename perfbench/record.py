"""Record the reference output hashes of every invocation any seed can generate.

    python3 perfbench/record.py

Run from the repository root, at a commit whose outputs are known good.  It
runs each distinct invocation of every workload variant once, requires exit
code 0 and agreement of each cross-checked pair, prints each invocation's
wall time and writes ``references.json``.
"""

import json
import sys

import run
import workloads


def main() -> int:
    references: dict[str, str] = {}
    ok = True
    for name in sorted(workloads.WORKLOADS):
        for variant in range(workloads.VARIANTS):
            invocations = workloads.build(name, variant)
            digests = []
            for inv in invocations:
                key = run.ref_key(inv.argv)
                if key in references:
                    digests.append(references[key])
                    continue
                out = run.launch(inv.argv, run.INVOCATION_TIMEOUT_S)
                print(f"{out.wall:6.2f} s  {name}/{variant}  {key}", flush=True)
                if out.error is not None:
                    print(f"FAILED: {out.error}", file=sys.stderr)
                    ok = False
                references[key] = out.digest
                digests.append(out.digest)
            for inv, digest in zip(invocations, digests):
                if inv.same_as is not None and digest != digests[inv.same_as]:
                    print(f"MISMATCH: {' '.join(inv.argv)}", file=sys.stderr)
                    ok = False
    if not ok:
        return 1
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
