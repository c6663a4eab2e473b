"""abtroika benchmark: closed-loop stage invocations, timed and checked.

    python3 perfbench/run.py --workload phases-b01 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --capture

Run from the repository root.  One client runs one ``abtroika <stage>
--config ... --jobs 1`` at a time, each in a fresh process, for --seconds
(at least MIN_INVOCATIONS).  Every invocation's report.json is checked
against reference/<workload>.json (compare.py).  With --trace 0 the last
stdout line carries the end-to-end metrics of BENCHMARK.json; with --trace 1
the run alternates plain and traced invocations and reports the per-layer
metrics.  --capture writes the references instead (one invocation each).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import compare, failed_checks  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

MIN_INVOCATIONS = 3       # plain invocations per --trace 0 run
MIN_TRACED = 2            # traced invocations per --trace 1 run (counts must repeat)
CHILD_LIMIT_S = 120       # a stage invocation slower than this is killed and fails
RUN_LIMIT_S = 150         # every child of one workload's run is killed after this
WORK_DIR = ".perfbench_runs"
# Children run single-threaded, BLAS included: the plain one-process baseline.
# With two BLAS threads on a 2-CPU machine the decoherence stage's run time
# depended on how busy the second CPU was, and its run-to-run spread was
# three times that of the other workloads.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env():
    return {**os.environ, **CHILD_ENV}


# ------------------------------------------------------------------ one child

def invoke(root, workload, wdir, traced=False, limit_s=CHILD_LIMIT_S):
    """One stage invocation in a fresh process, killed after limit_s;
    returns its measurements."""
    out = os.path.join(wdir, "out")
    record = os.path.join(wdir, "record.json")
    for path in (os.path.join(out, "report.json"), record, record + ".trace"):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--stage", WORKLOADS[workload]["stage"],
           "--config", os.path.join(wdir, "run.cfg"), "--out", out,
           "--record", record] + (["--trace"] if traced else [])
    with open(os.path.join(wdir, "child.log"), "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=root, env=child_env())
        killer = threading.Timer(limit_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    inv = {"exit_code": proc.returncode,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime, "phi1_calls": []}
    if os.path.exists(record):
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
        inv["run_s"] = rec["done"] - rec["main"]
        inv["phi1_calls"] = rec["phi1_calls"]
        if rec["first_stage"] is not None:
            inv["setup_s"] = rec["first_stage"] - t_spawn
        if traced:
            with open(record + ".trace", encoding="utf-8") as fh:
                inv["trace"] = json.load(fh)
    report = None
    report_path = os.path.join(out, "report.json")
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    inv["report"] = report
    return inv


# --------------------------------------------------------------- trace → metrics

# A per-layer metric <source>.<field> is one field of a span or leaf of the
# trace, summed over its calls.  FIELDS maps the metric's field to the
# trace's; RENAMED gives (source, trace field) and DERIVED a formula for the
# names that do not follow the rule.
FIELDS = {"calls": "calls", "s": "s", "self_s": "self_s", "boxes": "boxes",
          "points": "count", "evals": "count", "steps": "count",
          "mode_evals": "count", "overhead_s": "overhead_s"}
TABLE = "fields.SolenoidPotentialTable"
RENAMED = {f"{TABLE}.builds": (f"{TABLE}.build", "calls"),
           f"{TABLE}.build_s": (f"{TABLE}.build", "s"),
           f"{TABLE}.lookup_s": (f"{TABLE}.lookup", "s"),
           f"{TABLE}.lookup_points": (f"{TABLE}.lookup", "count")}
STAGES = ("phases", "decoherence", "modes")
DERIVED = {
    # boxes kept in the final sum over boxes evaluated
    "quadrature.adaptive_nd.useful_frac": lambda get: (
        get("quadrature.adaptive_nd", "kept") / get("quadrature.adaptive_nd", "boxes")
        if get("quadrature.adaptive_nd", "boxes") else 0.0),
    # stage time outside every traced kernel
    "cli.self_s": lambda get: sum(get(f"cli.stage_{st}", "self_s") for st in STAGES),
}
FROM_PLAIN = {"cli.cpu_s": "cpu_s"}  # taken from the untraced children


def layer_metrics(trace, names):
    """The named per-layer metrics of one traced invocation."""
    totals = {"trace": {"overhead_s": trace.get("overhead_s", 0.0)}}
    for sp in trace["spans"]:
        t = totals.setdefault(sp["name"], {})
        for key, value in (("calls", 1), ("s", sp["end"] - sp["start"]),
                           ("self_s", sp["self_s"]), ("count", sp.get("count", 0)),
                           ("boxes", sp.get("boxes", 0)), ("kept", sp.get("kept", 0))):
            t[key] = t.get(key, 0) + value
    totals.update(trace["leaves"])

    def get(source, field):
        return totals.get(source, {}).get(field, 0)

    metrics = {}
    for name in names:
        if name in DERIVED:
            metrics[name] = DERIVED[name](get)
        elif name in RENAMED:
            metrics[name] = get(*RENAMED[name])
        else:
            source, field = name.rsplit(".", 1)
            metrics[name] = get(source, FIELDS[field])
    return metrics


# ----------------------------------------------------------------- one workload

def median(values):
    # 0 only when every child failed, which the result reports as not correct;
    # NaN would make the result line invalid JSON
    return statistics.median(values) if values else 0.0


def run_workload(root, name, seed, seconds, trace, spec):
    wdir = os.path.join(root, WORK_DIR, name)
    os.makedirs(os.path.join(wdir, "out"), exist_ok=True)
    with open(os.path.join(wdir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config_text(name, seed))
    with open(os.path.join(HERE, "reference", f"{name}.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    plain, traced, problems = [], [], []
    t0 = time.monotonic()
    rounds = []
    while True:
        t_round = time.monotonic()
        # a plain invocation, then (--trace 1) a traced one
        for is_traced in (False, True) if trace else (False,):
            limit_s = min(CHILD_LIMIT_S, t0 + RUN_LIMIT_S - time.monotonic())
            inv = invoke(root, name, wdir, is_traced, max(limit_s, 0.0))
            (traced if is_traced else plain).append(inv)
            inv["problems"] = compare(reference, inv["exit_code"], inv.pop("report"),
                                      inv.pop("phi1_calls"))
            problems += inv["problems"]
        rounds.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - t0
        enough = len(traced) >= MIN_TRACED if trace else len(plain) >= MIN_INVOCATIONS
        if enough and elapsed + median(rounds) > seconds:
            break
        if elapsed + median(rounds) > RUN_LIMIT_S:
            break
    invocations = plain + traced
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced_names = [k for k in units if k not in FROM_PLAIN]
    if trace:
        for inv in traced:
            inv["layers"] = layer_metrics(inv["trace"], traced_names) if "trace" in inv else {}
        # every exact count must repeat across the traced invocations
        first = traced[0]["layers"]
        for inv in traced[1:]:
            for k in traced_names:
                if units[k] in ("count", "ratio") and inv["layers"].get(k) != first.get(k):
                    inv["problems"].append(f"trace count {k} differs between traced runs")
                    problems.append(inv["problems"][-1])
    failed = sum(1 for inv in invocations if inv["problems"])

    result = {"workload": name, "seed": seed,
              "attempted": len(invocations), "failed": failed,
              "problems": list(dict.fromkeys(problems))[:20],
              "reference_exit_code": reference["exit_code"],
              "reference_failed_checks": failed_checks(reference["report"])}
    metrics = {}
    if not trace:
        values = {"run_s": [inv["run_s"] for inv in plain if "run_s" in inv],
                  "setup_s": [inv["setup_s"] for inv in plain if "setup_s" in inv],
                  "peak_rss_mb": [inv["peak_rss_mb"] for inv in plain]}
        result["samples"] = values
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": median(values[m["name"]]), "unit": m["unit"]}
    else:
        per_inv = [inv["layers"] for inv in traced if inv["layers"]]
        for k, unit in units.items():
            if k in FROM_PLAIN:
                value = median([inv[FROM_PLAIN[k]] for inv in plain])
            elif not per_inv:
                value = 0.0
            elif unit in ("count", "ratio"):
                value = per_inv[0][k]  # identical in every traced invocation
            else:
                value = median([pi[k] for pi in per_inv])
            metrics[k] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    return result


# ------------------------------------------------------------------ reporting

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit(root):
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def provenance(root, seed):
    """Versions come from a child, the same interpreter the stages run in; it
    also warms the bytecode and file caches before anything is timed."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), "--probe"],
                         cwd=root, env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_LIMIT_S)
    if out.returncode != 0:
        raise RuntimeError(f"cannot import abtroika:\n{out.stderr}")
    prov = json.loads(out.stdout.strip().splitlines()[-1])
    prov.update({"git_commit": git_commit(root), "nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
                 "jobs": 1, "seed": seed, "load": "closed loop, 1 client"})
    return prov


def print_summary(result, trace):
    print(f"workload {result['workload']}: {result['attempted']} invocations, "
          f"seed {result['seed']}")
    if not trace:
        for key, m in result["metrics"].items():
            samples = result["samples"][key]
            q = (statistics.quantiles(samples, n=4) if len(samples) >= 2
                 else [m["value"]] * 3)
            print(f"  {key:<12} {m['value']:.6g} {m['unit']}  "
                  f"(median of {len(samples)}, quartiles {q[0]:.6g} .. {q[2]:.6g})")
    else:
        for key, m in result["metrics"].items():
            print(f"  {key:<48} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"  {'fail_frac':<12} {frac:.6g}  ({result['failed']} of {result['attempted']})")
    if result["reference_failed_checks"]:
        print(f"  reference fact: exit {result['reference_exit_code']}, failing "
              f"check(s) {', '.join(result['reference_failed_checks'])}")
    for p in result["problems"]:
        print(f"  problem: {p}")


def capture(root, names, seed):
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for name in names:
        wdir = os.path.join(root, WORK_DIR, name)
        os.makedirs(os.path.join(wdir, "out"), exist_ok=True)
        with open(os.path.join(wdir, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(config_text(name, seed))
        inv = invoke(root, name, wdir)
        report = inv["report"]
        if report is None:
            raise RuntimeError(f"{name}: no report written")
        report["provenance"].pop("timestamps")
        ref = {"captured_on": git_commit(root), "seed": seed,
               "exit_code": inv["exit_code"], "report": report,
               "phi1_calls": inv["phi1_calls"]}
        if compare(ref, inv["exit_code"], report, inv["phi1_calls"]):
            raise RuntimeError(f"{name}: report does not match itself (non-finite?)")
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: exit {inv['exit_code']}, failing checks "
              f"{failed_checks(report)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--capture", action="store_true",
                    help="write reference/<workload>.json instead of measuring")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through invoke(), which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "abtroika", "cli.py")):
        print("run from the repository root: src/abtroika not found", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.capture:
        capture(root, names, args.seed)
        return 0
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    try:  # every per-layer name must resolve to a field of the trace
        layer_metrics({"spans": [], "leaves": {}},
                      [m["name"] for m in spec["per_layer"]
                       if m["name"] not in FROM_PLAIN])
    except (KeyError, ValueError) as exc:
        print(f"BENCHMARK.json per_layer names a metric the trace lacks: {exc}",
              file=sys.stderr)
        return 2

    prov = provenance(root, args.seed)
    results = [run_workload(root, n, args.seed, args.seconds, args.trace, spec)
               for n in names]
    for r in results:
        print_summary(r, args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
