#!/usr/bin/env python3
"""Smoke self-test of the repository benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For every workload in BENCHMARK.json it runs
perfbench/run.py with --tiny and checks that

  * the run exits 0 and its last line is a result with correct = true,
    failed = 0 and attempted >= 1;
  * with --trace 0 every end_to_end metric appears with its declared unit
    and a finite value above 0, and the text report names every workload
    metric perfbench/manifest.json assigns to the workload, error_rate 0;
  * with --trace 1 every per_layer metric appears with its declared unit;
  * the determinism digest is identical at 1 pool lane and at min(4, nproc)
    lanes.

It also checks that the benchmark refuses to run, exit status non-zero and
no result line, in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what, flush=True)


def run(workload, trace, lanes):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--lanes", str(lanes)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    tag = "%s trace=%d lanes=%d" % (workload, trace, lanes)
    check(proc.returncode == 0, tag + ": exit status %d\n%s" %
          (proc.returncode, proc.stderr[-2000:]))
    if not lines:
        check(False, tag + ": no output")
        return None, ""
    try:
        result = json.loads(lines[-1])
    except ValueError:
        check(False, tag + ": last line is not JSON")
        return None, proc.stdout
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          tag + ": result keys " + str(sorted(result)))
    check(result.get("correct") is True, tag + ": correct is not true")
    check(result.get("failed") == 0, tag + ": failed != 0")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          tag + ": attempted < 1")
    return result, proc.stdout


def digest_of(text):
    m = re.search(r"^\s+digest\s+([0-9a-f]{8})$", text, re.M)
    return m.group(1) if m else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "manifest.json")) as f:
        manifest = json.load(f)
    lanes = max(1, min(4, os.cpu_count() or 1))

    for wl in [w["name"] for w in bench["workloads"]]:
        result, text = run(wl, 0, 1)
        if result is not None:
            check(set(result["metrics"]) ==
                  {m["name"] for m in bench["end_to_end"]},
                  "%s: trace 0 metrics differ from end_to_end" % wl)
            for m in bench["end_to_end"]:
                got = result["metrics"].get(m["name"])
                check(got is not None, "%s: missing %s" % (wl, m["name"]))
                if got is None:
                    continue
                check(got.get("unit") == m["unit"],
                      "%s: %s unit %s" % (wl, m["name"], got.get("unit")))
                v = got.get("value")
                check(isinstance(v, (int, float)) and math.isfinite(v) and v > 0,
                      "%s: %s value %r" % (wl, m["name"], v))
            for m in manifest["workload_metrics"]:
                if wl not in m["workloads"]:
                    continue
                pat = r"^\s+%s\s+(\S+) %s$" % (re.escape(m["name"]),
                                               re.escape(m["unit"]))
                found = re.search(pat, text, re.M)
                check(found is not None,
                      "%s: report lacks %s [%s]" % (wl, m["name"], m["unit"]))
                if found and m["name"] == "error_rate":
                    check(float(found.group(1)) == 0.0,
                          "%s: error_rate %s" % (wl, found.group(1)))
        _, text_lanes = run(wl, 0, lanes)
        d1, dn = digest_of(text), digest_of(text_lanes)
        check(d1 is not None and d1 == dn,
              "%s: digest %s at 1 lane, %s at %d lanes" % (wl, d1, dn, lanes))

        traced, _ = run(wl, 1, lanes)
        if traced is not None:
            check(set(traced["metrics"]) ==
                  {m["name"] for m in bench["per_layer"]},
                  "%s: trace 1 metrics differ from per_layer" % wl)
            for m in bench["per_layer"]:
                got = traced["metrics"].get(m["name"])
                check(got is not None and got.get("unit") == m["unit"],
                      "%s: per-layer %s missing or unit differs" %
                      (wl, m["name"]))
        print("%s: checked (digest %s)" % (wl, d1), flush=True)

    # A directory holding only the benchmark must be refused.
    bare = os.path.join(ROOT, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                              timeout=180)
        check(proc.returncode != 0, "bare directory: exit status 0")
        check('"correct"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
