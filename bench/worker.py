"""One iteration of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 --out DIR [--tiny]

Imports neubm from the checkout's `src/`, writes the workload config into
DIR, then drives the public CLI in-process (`neubm.cli.main`). The
measurements go to DIR/result.json; the reports the CLI writes go to
DIR/reports. The process's monotonic clock reading once set-up is done lets
the parent compute set-up time from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
EXIT_HOOK_ERROR = 3


def write_config(workload_name: str, seed: int, out: Path, tiny: bool) -> Path:
    config = WORKLOADS[workload_name].config(seed, str(out / "reports"), tiny)
    path = out / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path


def run_iteration(workload_name: str, config_path: Path, traced: bool,
                  run_id: str) -> dict:
    """Run the workload's CLI command once in this process."""
    from neubm import cli

    argv = [WORKLOADS[workload_name].command, "--config", str(config_path)]
    tracer = tracing.Tracer(run_id) if traced else None
    with tracing.installed(tracer):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call(tracing.ROOT_SPAN, cli.main, argv)
        run_s = time.perf_counter() - start
    result = {
        "exit_code": code,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None and code == 0:
        total, _, _ = tracer.layer_seconds()
        result["layers"] = tracer.layer_metrics()
        result["layer_seconds"] = total
        result["spans"] = [vars(s) for s in tracer.spans]
    return result


def software() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import neubm.cli  # noqa: F401  (importing is part of set-up)

    out = Path(args.out)
    config_path = write_config(args.workload, args.seed, out, args.tiny)
    ready = time.monotonic()

    try:
        result = run_iteration(args.workload, config_path, bool(args.trace),
                               args.run_id)
    except tracing.HookError as exc:
        print(f"traced run failed: {exc}", file=sys.stderr)
        (out / "result.json").write_text(json.dumps({"hook_error": str(exc)}))
        return EXIT_HOOK_ERROR
    result["ready_monotonic"] = ready
    result["software"] = software()
    (out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
