#!/usr/bin/env python3
"""The isim benchmark: build the simulator from source, run one workload,
print its metrics (METRICS.md beside this file).

  python3 isimbench/run.py --workload apps_cycle|dse_sampled|service_mix \\
      --seed N --seconds S --trace 0|1
  python3 isimbench/run.py --selfcheck

Run it from the repository root.  The build goes to
$CARGO_TARGET_DIR/isimbench (default .bench_build/isimbench).  The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; its metric names and units are checked against
BENCHMARK.json.  The exit code is 0 only when every correctness check
passed.

--selfcheck runs every workload briefly: twice on one seed, untraced and
traced, asserting identical core.sim_cycles.* and sampled_err_pct, and
once on another seed, which must still validate.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("apps_cycle", "dse_sampled", "service_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("isimbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "isimbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "isimbench")


def run_build_step(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        fail("build step failed: " + " ".join(cmd))


def commit_id():
    """The git commit, or a digest of src/ when the tree is not a repo."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    h = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha1:" + h.hexdigest()[:16]


def expected_metrics(trace):
    """{name: unit} the run must report, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, commit, echo=True):
    """Run one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--commit", commit]
    if trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "trace-%s-%s.json" % (workload, seed))]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = p.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        if echo:
            sys.stdout.write(p.stdout)
        return p.returncode or 1, None
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result line has keys %s" % sorted(result), 3)
    if want is not None and got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "units %s" % (sorted(set(want) - set(got)),
                           sorted(set(got) - set(want)),
                           sorted(k for k in want
                                  if k in got and got[k] != want[k])), 3)
    if echo:
        sys.stdout.write(p.stdout)
    return p.returncode, result


def selfcheck(binary, commit):
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        runs = {}
        for key, seed, trace in (("a", 1, False), ("b", 1, False),
                                 ("ta", 1, True), ("tb", 1, True),
                                 ("other", 2, False)):
            code, res = run_workload(binary, w, seed, 1, trace, commit,
                                     echo=False)
            if code != 0 or res is None or not res["correct"]:
                problems.append("%s seed %d trace %d: exit %d, result %s"
                                % (w, seed, trace, code,
                                   res and {k: res[k] for k in
                                            ("correct", "attempted",
                                             "failed")}))
            runs[key] = res["metrics"] if res else {}
        err = [runs[k].get("sampled_err_pct", {}).get("value")
               for k in ("a", "b")]
        if err[0] is None or err[0] != err[1]:
            problems.append("%s: sampled_err_pct differs across runs: %s"
                            % (w, err))
        for name in sorted(runs["ta"]):
            if name.startswith("core.sim_cycles."):
                pair = [runs[k].get(name, {}).get("value")
                        for k in ("ta", "tb")]
                if pair[0] != pair[1] or not pair[0]:
                    problems.append("%s: %s differs across runs: %s"
                                    % (w, name, pair))
        found = len(problems) - before
        print("selfcheck %-12s %s" % (w, "%d problem(s)" % found if found
                                       else "ok"))
    for p in problems:
        print("selfcheck FAILED: " + p)
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload is required")
    binary = build()
    commit = commit_id()
    if args.selfcheck:
        return selfcheck(binary, commit)
    code, _ = run_workload(binary, args.workload, args.seed, args.seconds,
                           bool(args.trace), commit)
    return code


if __name__ == "__main__":
    sys.exit(main())
