"""manipsem benchmark: one closed-loop client driving the public API.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload describe_clean --seed 1 --seconds 45 --trace 0

A single process with a single thread sends one request at a time and the
next only after the previous one returned.  Inputs are generated from
``--seed`` before any timing and every output is checked against exact
ground truth.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` the run is measured untraced and
then traced, and the last line reports the per-layer metrics derived from
the spans, which are also written to ``.perfbench/``.  See README.md in
this directory for the workloads and what each metric should move.
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_RUNS = 7        # fresh interpreters per run; setup_s is their median
PROBE_CLOUDS = 120    # clouds per run timed by the hull-build probe
MIN_TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


@dataclass
class Measurement:
    """Latencies per pool item over whole rounds of the pool."""

    latencies: list            # per pool item, seconds
    rounds: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    failed: int = 0
    misses: list = field(default_factory=list)
    missed: int = 0            # requests with misses and no errors
    wall_s: float = 0.0

    def item_latencies(self) -> list:
        """Each pool item's upper-quartile latency over the rounds, sorted.

        The shared machine this was tuned on runs in a steady state broken
        by faster periods lasting tens of seconds.  The upper quartile reads
        the steady state whenever a quarter of the rounds ran in it, where
        a median flips with the faster periods."""
        return sorted(statistics.quantiles(lat, n=4, method="inclusive")[2]
                      if len(lat) > 1 else lat[0] for lat in self.latencies if lat)

    def samples(self) -> list:
        return sorted(x for lat in self.latencies for x in lat)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(traced: bool) -> dict:
    """Median set-up breakdown over fresh interpreters."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + (["--trace"] if traced else [])
    runs = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    med = {key: statistics.median(r[key] for r in runs)
           for key in ("import_s", "library_load_s", "templates_load_s", "setup_s")}
    med["runs"] = len(runs)
    med["module_file"] = runs[0]["module_file"]
    med["grammar_parses"] = len(runs[0]["grammar_parse_s"])
    med["grammar_parse_total_s"] = statistics.median(sum(r["grammar_parse_s"]) for r in runs)
    return med


def run_rounds(workload, svc, pool, seconds, tracer=None) -> Measurement:
    """Send the pool round after round until another round would overrun
    ``seconds``; at least one round, so every request is measured."""
    from manipsem.bench import AccuracyReport

    svc.report = AccuracyReport()
    m = Measurement([[] for _ in pool])
    gc.collect()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for i, req in enumerate(pool):
            m.attempted += 1
            if tracer is not None:
                tracer.request = m.attempted
            try:
                t0 = time.perf_counter()
                if tracer is not None:
                    with tracer.span("request", item=i, frames=req.frames) as sp:
                        out = workload.send(svc, req, tracer)
                    sp.attrs.update(workload.counts(out))
                else:
                    out = workload.send(svc, req)
                m.latencies[i].append(time.perf_counter() - t0)
                errors, misses = workload.check(svc, req, out)
            except Exception:  # a failed request is counted and reported, not fatal
                errors, misses = [f"request {i} raised:\n{traceback.format_exc()}"], []
            m.misses.extend(misses)
            if errors:
                m.failed += 1
                m.failures.extend(errors)
            elif misses:
                m.missed += 1
        m.rounds += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    m.wall_s = time.perf_counter() - start
    if m.missed > math.ceil(workload.miss_tolerance * m.attempted):
        m.failed += m.missed
        m.failures.extend(m.misses)
        m.misses = []
    if tracer is not None:
        tracer.request = None
    return m


def tail_latency(samples):
    """(value, percentile) of the highest percentile of sorted ``samples``
    with at least MIN_TAIL_BEYOND samples above it; the smallest sample
    when there are too few."""
    n = len(samples)
    rank = max(0, n - MIN_TAIL_BEYOND - 1)
    return samples[rank], 100.0 * rank / max(1, n - 1)


def units_per_s(pool, m: Measurement, unit) -> float:
    """Work of one round over the sum of its requests' latencies."""
    return sum(unit(req) for req in pool) / sum(m.item_latencies())


def end_to_end(pool, m: Measurement, setup: dict) -> tuple[dict, dict, dict]:
    """(bounded metrics, further printed metrics, details) of an untraced run."""
    # The bounded median is taken over the pool's requests, each summarized
    # over the rounds as in Measurement.item_latencies.  The tail, over every
    # sample, moves with the machine's state; it is printed but not bounded.
    lat = m.item_latencies()
    tail, pct = tail_latency(m.samples())
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "frames_per_s": (units_per_s(pool, m, lambda r: r.frames), "frames/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "latency_tail_ms": (tail * 1e3, "ms"),
        "failed_frac": (m.failed / m.attempted, "failed/attempted"),
    }
    if hasattr(pool[0], "cases"):
        info["cases_per_s"] = (units_per_s(pool, m, lambda r: r.cases), "cases/s")
    details = {
        "latency_tail_percentile": pct,
        "latency_samples": len(m.samples()),
        "rounds": m.rounds,
        "measured_wall_s": m.wall_s,
        "setup": setup,
    }
    return metrics, info, details


# -- traced run ----------------------------------------------------------------

def trace_targets():
    """(owner, attribute, span name, counts) for every wrapped public call."""
    from manipsem import bench, events, pipeline, relations
    from manipsem.geometry import aabb_gap, compute_aabb
    from manipsem.relations import PATTERN_LABELS

    def touch_counts(args, kwargs, result):
        cloud_a, _, cloud_b = args[:3]
        tol = args[4] if len(args) > 4 else kwargs.get("tol")
        if tol is None:
            return {"narrow": True}
        return {"narrow": bool(aabb_gap(compute_aabb(cloud_a), compute_aabb(cloud_b)) <= tol)}

    def ssr_counts(args, kwargs, result):
        return {"mode": kwargs.get("mode", "hull"), "pattern": result in PATTERN_LABELS}

    def recognize_counts(args, kwargs, result):
        return {"unknown": any(r.name == "Unknown" for r in result)}

    def hull_counts(args, kwargs, result):
        return {"points": len(result.cloud), "faces": len(result.hull.faces)}

    def sentence_counts(args, kwargs, result):
        return {"sentences": len(result.sentences)}

    return [
        (pipeline, "extract_atomic_actions", "events.extract_atomic_actions", None),
        (pipeline, "recognize", "library.recognize", recognize_counts),
        (pipeline, "realize_level", "realizer.realize_level", sentence_counts),
        (events, "touch", "geometry.touch", touch_counts),
        (relations, "touch", "geometry.touch", touch_counts),
        (events, "classify_ssr", "relations.classify_ssr", ssr_counts),
        (bench, "classify_ssr", "relations.classify_ssr", ssr_counts),
        (relations.ObjectState, "from_cloud", "geometry.from_cloud", hull_counts),
    ]


def hull_probe(pool, cfg) -> dict:
    """ObjectState.from_cloud timed over the workload's own clouds."""
    from manipsem.relations import ObjectState
    from workloads import mean, probe_clouds

    times, faces, vert_frac = [], [], []
    for pts in probe_clouds(pool, PROBE_CLOUDS):
        t0 = time.perf_counter()
        state = ObjectState.from_cloud(pts, cfg.geometry)
        times.append(time.perf_counter() - t0)
        faces.append(len(state.hull.faces))
        vert_frac.append(len(state.hull.vertices) / len(pts))
    return {
        "geometry.hull_build_us": statistics.median(times) * 1e6,
        "geometry.hull_faces": mean(faces),
        "geometry.hull_vertex_frac": mean(vert_frac),
        "probe_clouds": len(times),
    }


def per_layer(workload, svc, pool, profile, tracer, plain_fps, traced_fps,
              setup: dict) -> tuple[dict, dict, dict]:
    """(per-layer metrics every workload has, the workload's own layer
    metrics, details) of a traced run."""
    from workloads import broadphase_pass_frac, mean

    by = {}
    for s in tracer.spans:
        by.setdefault(s.name, []).append(s)
    requests = by["request"]
    # spans of calls that raised carry no counts
    touches = [s for s in by.get("geometry.touch", []) if s.attrs.get("narrow")]
    hull_ssr = [s for s in by.get("relations.classify_ssr", []) if s.attrs.get("mode") == "hull"]
    builds = by.get("geometry.from_cloud", [])
    probe = hull_probe(pool, svc.cfg)
    metrics = {
        "geometry.hull_build_us": (probe["geometry.hull_build_us"], "us"),
        "geometry.hull_faces": (probe["geometry.hull_faces"], "count"),
        "geometry.hull_vertex_frac": (probe["geometry.hull_vertex_frac"], "fraction"),
        "geometry.hull_build_share": (sum(s.duration for s in builds)
                                      / sum(s.duration for s in requests), "fraction"),
        "geometry.reusable_cloud_frac": (profile["geometry.reusable_cloud_frac"], "fraction"),
        "geometry.touch_us": (mean((s.duration for s in touches), 1e6), "us"),
        "geometry.broadphase_pass_frac": (broadphase_pass_frac(pool, svc.cfg), "fraction"),
        "relations.classify_ssr_us": (mean((s.duration for s in hull_ssr), 1e6), "us"),
        "relations.pattern_frac": (mean(s.attrs["pattern"] for s in hull_ssr), "fraction"),
        "setup.import_s": (setup["import_s"], "s"),
        "library.load_s": (setup["library_load_s"], "s"),
        "grammar.parse_ms": (setup["grammar_parse_total_s"] * 1e3, "ms"),
        "realizer.templates_load_s": (setup["templates_load_s"], "s"),
        "trace.overhead_frac": (1.0 - traced_fps / plain_fps, "fraction"),
    }
    n_req = len(requests)
    extra = {
        "hull_builds_per_request": len(builds) / n_req,
        "narrow_touch_calls_per_request": len(touches) / n_req,
        "hull_classify_ssr_calls_per_request": len(hull_ssr) / n_req,
        "probe_clouds": probe["probe_clouds"],
        "grammar_parses_per_load": setup["grammar_parses"],
        "traced_requests": n_req,
        "untraced_frames_per_s": plain_fps,
        "traced_frames_per_s": traced_fps,
    }
    return metrics, workload.layer_metrics(by, n_req, svc), extra


# -- main ------------------------------------------------------------------------

def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv) -> int:
    args = parse_args(argv)
    # One BLAS/OpenMP thread, set before numpy loads; set-up children inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "manipsem" / "__init__.py").is_file():
        return fail(f"no manipsem sources at {SRC.relative_to(ROOT)}/manipsem; "
                    "run from the root of a manipsem checkout", 2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import manipsem
    if Path(manipsem.__file__).resolve().parent != SRC / "manipsem":
        return fail(f"imported manipsem from {manipsem.__file__}, not from the checkout", 2)
    from manipsem.library import default_library
    from manipsem.realizer import default_templates
    from tracer import Tracer
    from workloads import GOLDENS, WORKLOADS, Service, check_goldens, input_profile

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", 2)
    if args.seconds <= 0 or args.seed < 0:
        return fail("--seconds must be positive and --seed non-negative", 2)

    setup = measure_setup(traced=bool(args.trace))
    svc = Service(workload.config(), default_library(), default_templates())

    golden_failures = check_goldens(svc)
    pool = workload.make_inputs(args.seed, svc.lib)
    profile = input_profile(workload, args.seed, pool)
    again = workload.digest(workload.make_inputs(args.seed, svc.lib))
    if again != profile["inputs_sha256"]:
        return fail(f"seed {args.seed} generated different inputs on a second pass", 3)
    print("profile " + json.dumps(profile))

    # warm-up: the first request pays one-off lazy costs a service pays once
    workload.check(svc, pool[0], workload.send(svc, pool[0]))

    if not args.trace:
        m = run_rounds(workload, svc, pool, args.seconds)
        metrics, info, extra = end_to_end(pool, m, setup)
    else:
        plain = run_rounds(workload, svc, pool, args.seconds / 2)
        tracer = Tracer()
        with tracer.patched(trace_targets()):
            m = run_rounds(workload, svc, pool, args.seconds / 2, tracer)
        plain_fps = units_per_s(pool, plain, lambda r: r.frames)
        traced_fps = units_per_s(pool, m, lambda r: r.frames)
        metrics, info, extra = per_layer(workload, svc, pool, profile, tracer, plain_fps,
                                         traced_fps, setup)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        m.failures.extend(f"(untraced) {f}" for f in plain.failures)
        m.misses.extend(f"(untraced) {f}" for f in plain.misses)
        m.missed += plain.missed
        m.failed += plain.failed
        m.attempted += plain.attempted

    failures = golden_failures + m.failures
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    for f in m.misses:
        print(f"MISS {f}", file=sys.stderr)
    extra["recognition_misses"] = m.missed
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name:32s} {value:14.6g} {unit}")
        extra[name] = value
    print("details " + json.dumps(extra, default=str))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted + len(GOLDENS),
        "failed": m.failed + len(golden_failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
