#!/usr/bin/env python3
"""Build and run the emcgm end-to-end benchmark.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build (first call only) and run one workload. The last line of
      stdout is the summary JSON; the line before it is the full report.
  python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
      Run every workload, one process each, one after the other.
  python3 perfbench/run.py ... --out FILE
      Also write the full report of the run (or runs, with --all) to FILE.
  python3 perfbench/run.py compare OLD NEW
      Compare two reports: exact counts must match, end-to-end metrics
      are flagged when NEW is worse than OLD by more than their bound.

The benchmark is compiled from the checkout's sources into .bench_build/
at the checkout root; build output goes to stderr.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "emcgm_perfbench")
REPORT_KEY = "perfbench_report"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_one(argv, out_reports):
    proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    for line in proc.stdout.splitlines():
        if line.startswith('{"' + REPORT_KEY + '"'):
            out_reports.append(json.loads(line)[REPORT_KEY])
    return proc.returncode


def load_reports(path):
    reports = []
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
        docs = doc if isinstance(doc, list) else [doc]
    except json.JSONDecodeError:
        docs = [json.loads(l) for l in text.splitlines()
                if l.startswith('{"' + REPORT_KEY + '"')]
    for d in docs:
        reports.append(d.get(REPORT_KEY, d))
    return {(r["meta"]["workload"], r["meta"]["trace"]): r for r in reports}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(old_path, new_path):
    spec = benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load_reports(old_path), load_reports(new_path)
    bad_counts, flags = 0, 0
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        print(f"== {key[0]} (trace {key[1]}): seed {a['meta']['seed']} vs "
              f"{b['meta']['seed']}; columns OLD, NEW, change (+ = better)")
        if a["meta"]["seed"] == b["meta"]["seed"]:
            for name in sorted(set(a["counts"]) | set(b["counts"])):
                va, vb = a["counts"].get(name), b["counts"].get(name)
                same = va == vb
                bad_counts += not same
                print(f"  count {name:28s} {va!s:>16} {vb!s:>16}  "
                      f"{'same' if same else 'MISMATCH'}")
        else:
            print("  seeds differ: exact counts are not comparable")
        for name, m in sorted(a["end_to_end"].items()):
            if name not in b["end_to_end"] or name not in bounds:
                continue
            va, vb = m["value"], b["end_to_end"][name]["value"]
            worse = (vb - va) / va if bounds[name]["better"] == "lower" \
                else (va - vb) / va
            flag = worse > bounds[name]["bound"]
            flags += flag
            print(f"  {name:34s} {va:16.6g} {vb:16.6g}  {-worse:+8.2%}  "
                  f"{'FLAG: worse than bound ' + str(bounds[name]['bound']) if flag else ''}")
        for name, m in sorted(a["per_layer"].items()):
            if name in b["per_layer"]:
                va, vb = m["value"], b["per_layer"][name]["value"]
                ratio = f"{vb / va:8.3f}x" if va else "        "
                print(f"  {name:34s} {va:16.6g} {vb:16.6g}  {ratio}")
    for key in sorted(set(old) ^ set(new)):
        print(f"== {key[0]} (trace {key[1]}): only in one file")
    print(f"{bad_counts} count mismatch(es), {flags} flagged metric(s)")
    return 1 if bad_counts else 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    out = None
    if "--out" in argv:
        i = argv.index("--out")
        if i + 1 >= len(argv):
            print(__doc__, file=sys.stderr)
            return 2
        out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    run_all = "--all" in argv
    if run_all:
        argv = [a for a in argv if a != "--all"]
        defaults = {"--seed": "1", "--seconds": "25", "--trace": "0"}
        for k, v in defaults.items():
            if k not in argv:
                argv += [k, v]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    reports, status = [], 0
    if run_all:
        for w in [w["name"] for w in benchmark_spec()["workloads"]]:
            rc = run_one(["--workload", w] + argv, reports)
            status = status or rc
    else:
        status = run_one(argv, reports)
    if out:
        with open(out, "w") as f:
            json.dump(reports, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
