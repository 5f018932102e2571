#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all), runs the traced run twice and the
end-to-end run twice with one seed, and checks that

  * every run is correct and prints every metric BENCHMARK.json names;
  * the count metrics, which every single-caller workload makes exactly
    repeatable for a seed, are identical across the two runs;
  * no span was lost and no child span's time exceeds its parent's.

Exits non-zero on the first workload that fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"
SECONDS = "1"
# Counts that depend on timing, not only on the operations run.
TIMING_DEPENDENT = {"trace.overhead", "txn.commit_uncovered_share"}
COUNT_UNITS = {"count", "bytes", "ratio", "words/op"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = [json.loads(l) for l in out.strip().splitlines()]
    return lines[-2]["info"], lines[-1]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] in COUNT_UNITS and m["name"] not in TIMING_DEPENDENT]
    problems = []
    for w in workloads:
        for trace, names, key in ((1, counts, "per_layer"), (0, ["space_amp"], "end_to_end")):
            (info1, r1), (info2, r2) = run(w, trace), run(w, trace)
            for info, r in ((info1, r1), (info2, r2)):
                if not r["correct"] or r["failed"]:
                    problems.append("%s trace %d: incorrect (%s)" % (w, trace, info.get("first_error")))
                missing = {m["name"] for m in bench[key]} - set(r["metrics"])
                if missing:
                    problems.append("%s trace %d: missing %s" % (w, trace, sorted(missing)))
                if trace == 1 and (info["spans_lost"] or info["nesting_violations"]):
                    problems.append("%s: %d spans lost, %d children exceed their parent"
                                    % (w, info["spans_lost"], info["nesting_violations"]))
            for name in names:
                a, b = r1["metrics"][name]["value"], r2["metrics"][name]["value"]
                if a != b:
                    problems.append("%s: %s differs between runs of one seed: %r vs %r" % (w, name, a, b))
        print("%s: %s" % (w, "ok" if not problems else "FAILED"), flush=True)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
