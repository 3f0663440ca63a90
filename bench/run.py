"""Run one glint benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {train,search,ablate} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; glint is imported from ./src. With
--trace 0 the workload repeats whole rounds until S seconds have passed and
the last line of standard output holds the end-to-end metrics. With
--trace 1 the run records spans around glint's public functions during
set-up and two rounds, times the same round twice untraced, and prints the
per-layer metrics and the tracing overhead instead. Every run checks the
program's outputs against the oracles in oracles.py; the details, and the
host facts, go to .bench_runs/ in the checkout.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_runs"

# (metric, unit, summary span or counter, field); see README.md for which
# end-to-end metric each one should move.
PER_LAYER = (
    ("encoder.forward_patches.ms", "ms", "encoder.forward_patches", "ms"),
    ("encoder.forward_patches.calls", "count", "encoder.forward_patches", "calls"),
    ("encoder.forward_tokens.ms", "ms", "encoder.forward_tokens", "ms"),
    ("encoder.forward_tokens.calls", "count", "encoder.forward_tokens", "calls"),
    ("encoder.backward.ms", "ms", "encoder.backward", "ms"),
    ("encoder.backward.calls", "count", "encoder.backward", "calls"),
    ("encoder.encode_page.ms", "ms", "encoder.encode_page", "ms"),
    ("encoder.encode_page.calls", "count", "encoder.encode_page", "calls"),
    ("encoder.encode_query.ms", "ms", "encoder.encode_query", "ms"),
    ("encoder.encode_query.calls", "count", "encoder.encode_query", "calls"),
    ("encoder.save_checkpoint.ms", "ms", "encoder.save_checkpoint", "ms"),
    ("encoder.load_checkpoint.ms", "ms", "encoder.load_checkpoint", "ms"),
    ("training.adamw.ms", "ms", "training.adamw", "ms"),
    ("training.steps", "count", "training.adamw", "calls"),
    ("training.samples", "count", "training.samples", None),
    ("training.self_ms", "ms", "training.train", "self_ms"),
    ("losses.retrieval_infonce.ms", "ms", "losses.retrieval_infonce", "ms"),
    ("losses.global_infonce.ms", "ms", "losses.global_infonce", "ms"),
    ("losses.local_align.ms", "ms", "losses.local_align", "ms"),
    ("scoring.rank.ms", "ms", "scoring.rank", "ms"),
    ("scoring.rank.calls", "count", "scoring.rank", "calls"),
    ("scoring.rank.doc_rows", "count", "scoring.rank.doc_rows", None),
    ("scoring.rank.bytes", "bytes", "scoring.rank.bytes", None),
    ("scoring.pool_patches.calls", "count", "scoring.pool_patches", "calls"),
    ("index_store.bytes", "bytes", "index_store.bytes", None),
    ("evaluation.encode_split_docs.calls", "count", "evaluation.encode_split_docs", "calls"),
    ("metrics.ndcg_map.ms", "ms", ("metrics.ndcg", "metrics.map"), "ms"),
    ("metrics.wilcoxon.calls", "count", "metrics.wilcoxon", "calls"),
    ("corpus.generate.ms", "ms", "corpus.generate", "ms"),
    ("corpus.load.ms", "ms", "corpus.load", "ms"),
    ("pipeline.run_train.ms", "ms", "pipeline.run_train", "ms"),
)

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput", "1/s"), ("op_p50_ms", "ms"))


def _since_process_start() -> float:
    """Seconds from this process's start to now (10 ms resolution), or 0.0
    where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_STARTED = _T0 - _since_process_start()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _per_layer(tracer, overhead_ms: float) -> dict:
    summary = tracer.summary()
    out = {}
    for name, unit, source, field in PER_LAYER:
        if field is None:
            value = tracer.counts.get(source, 0)
        else:
            sources = source if isinstance(source, tuple) else (source,)
            value = sum(summary.get(s, {}).get(field, 0) for s in sources)
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    return out


def _print_trace(tracer, overhead_ms: float, rounds_ms: tuple[float, float]) -> None:
    print("# per-layer (traced set-up + two rounds): span  calls  ms  self_ms")
    for name, agg in sorted(tracer.summary().items()):
        print(f"#   {name:32s} {agg['calls']:8d} {agg['ms']:12.3f} {agg['self_ms']:12.3f}")
    for name, value in sorted(tracer.counts.items()):
        print(f"#   {name:32s} {value}  (computed from input shapes)")
    print(f"# mean traced round {rounds_ms[0]:.1f} ms, mean untraced round {rounds_ms[1]:.1f} ms, "
          f"tracing overhead {overhead_ms:.1f} ms per round")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "glint" / "__init__.py").is_file():
        print(f"bench: no glint sources under {ROOT / 'src'}; run from a glint checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        setup_info = wl.setup()
        setup_s = time.perf_counter() - _STARTED

        records, attempted, failed, errors = [], 0, 0, []

        def one_round(i: int) -> float:
            nonlocal attempted, failed
            attempted += wl.ops_per_round
            t0 = time.perf_counter()
            try:
                records.append(wl.round(i))
            except workloads.PROGRAM_ERRORS as exc:
                failed += wl.ops_per_round
                errors.append(f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - t0

        if tracer is not None:
            # The same round untraced, traced, traced, untraced: the order
            # cancels a drift in speed from one round to the next.
            tracer.uninstall()
            untraced_s = one_round(0)
            tracer.install()
            traced_s = one_round(0) + one_round(0)
            tracer.uninstall()
            untraced_s += one_round(0)
        else:
            t_start = time.perf_counter()
            while attempted // wl.ops_per_round < wl.min_rounds or time.perf_counter() - t_start < args.seconds:
                one_round(attempted // wl.ops_per_round)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures = wl.check(records) + errors
        result = {"correct": not failures, "attempted": attempted, "failed": failed}
        detail = {"args": vars(args), "host": host_facts(), "setup": setup_info, "failures": failures[:50]}
        if tracer is not None:
            overhead_ms = (traced_s - untraced_s) / 2 * 1e3
            _print_trace(tracer, overhead_ms, (traced_s / 2 * 1e3, untraced_s / 2 * 1e3))
            result["metrics"] = _per_layer(tracer, overhead_ms)
            detail["spans"] = tracer.summary()
            (OUT / f"{args.workload}-seed{args.seed}.spans.json").write_text(json.dumps(tracer.span_records()))
        else:
            info = wl.info(records)
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
                "throughput": statistics.median(r["work"] / r["busy_s"] for r in records),
                "op_p50_ms": statistics.median(t for r in records for t in r["op_s"]) * 1e3,
            }
            result["metrics"] = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
            detail["workload_metrics"] = info
            print("# " + json.dumps({**setup_info, **info}))
        for f in failures[:20]:
            print(f"# check failed: {f}")
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({**detail, "result": result}, indent=2, default=str))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
