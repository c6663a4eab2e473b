"""One abtroika stage invocation in a fresh process, as the benchmark times it.

    python3 perfbench/child.py --stage phases --config run.cfg --out DIR \
        --record rec.json [--trace]
    python3 perfbench/child.py --probe

The stage runs through ``abtroika.cli.main`` exactly as the console script
runs it (``--jobs 1``).  The record file gets CLOCK_MONOTONIC marks that the
parent turns into set-up time (spawn to the first stage) and run time (CLI
entry to report written), the value and cubature error estimate of every
phi1 call (the report leaves the estimate out, and the correctness gate
budgets phi1 by it), and, with --trace, the spans of every layer.
--probe only imports the package and prints the library versions and BLAS
thread count; the parent uses it to warm the bytecode and file caches.
"""

import argparse
import ctypes
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def blas_threads():
    """Thread count of the OpenBLAS builds numpy and scipy loaded, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                counts[os.path.basename(path)] = fn()
                break
    return counts or None


def probe():
    import numpy
    import scipy

    import abtroika.cli  # noqa: F401  (compiles and caches the package)
    print(json.dumps({"python": sys.version.split()[0],
                      "numpy": numpy.__version__, "scipy": scipy.__version__,
                      "blas_threads": blas_threads()}))


def run(args):
    from abtroika import cli, phases

    marks = {}
    phi1_calls = []

    def first_stage_mark(fn):
        def wrapper(*a, **k):
            marks.setdefault("first_stage", time.monotonic())
            return fn(*a, **k)
        return wrapper

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for stage in ("phases", "decoherence", "modes", "divergence"):
        name = f"stage_{stage}"
        setattr(cli, name, first_stage_mark(getattr(cli, name)))

    def record_phi1(fn):
        def wrapper(*a, **k):
            out = fn(*a, **k)
            phi1_calls.append({"value": out.value, "quad_error": out.quad_error})
            return out
        return wrapper

    for mod in (phases, cli):
        mod.phi1 = record_phi1(mod.phi1)

    t_main = time.monotonic()
    code = cli.main([args.stage, "--config", args.config, "--out", args.out,
                     "--jobs", "1"])
    t_done = time.monotonic()
    record = {"main": t_main, "first_stage": marks.get("first_stage"),
              "done": t_done, "exit_code": code, "phi1_calls": phi1_calls}
    if tracer is not None:
        tracer.dump(args.record + ".trace")
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--stage")
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.add_argument("--record")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.probe:
        probe()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
