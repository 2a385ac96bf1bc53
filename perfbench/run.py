"""kinereco benchmark: per-stage time of the CLI chain on one workload.

    python3 perfbench/run.py --workload field18 --seed 7 --seconds 30 --trace 0

One iteration drives ``kinereco.cli.main`` in-process through the full chain
simulate -> detect -> reconstruct -> evaluate -> report, with documented flags
only, and checks its outputs against the simulator's ground truth.  Iterations
repeat until ``--seconds`` is used up (at least three).  With ``--trace 0``
set-up probes precede the iterations, and the end-to-end metrics of
BENCHMARK.json are reported as medians over the probes and iterations; with
``--trace 1`` a warm-up iteration is followed by untraced and traced ones in
turn, and the per-layer metrics are reported from the spans (see
perfbench/README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(provenance, gate details, output digests, per-function spans) is written
under perfbench/_work/results/.
"""

from __future__ import annotations

import os

# One process generates the load; the only threads beyond the main one are
# the CLI's own reconstruct pool.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans as spanlib
from workloads import ROOT, SRC, WORKLOADS, import_kinereco, write_inputs

WORK = Path("perfbench") / "_work"  # relative to ROOT, so manifests match
STAGES = ("simulate", "detect", "reconstruct", "evaluate", "report")
ANALYSE = ("detect", "reconstruct", "evaluate", "report")
MIN_ITERATIONS = 3
#: Set-up probes per run, run back to back before the first iteration: a
#: probe right after an iteration ran slower and less steadily (probably
#: while the iteration's output was still being written back).
SETUP_PROBES = 7
#: Per-layer values derived from inputs and outputs rather than timed; they
#: repeat exactly, so a later change can cite them as counts, not speed-ups.
COMPUTED = ("synth.env_live_frac", "wavelet.cwt.cells",
            "wavelet.cwt.cells_read_frac", "evaluate.cora_score.lag_samples",
            "detect.refine_offset.lags", "core.sample_on_grid.calls",
            "ingest.write_mb", "ingest.read_mb", "cli.reconstruct.write_mb",
            "cli.report.write_mb")
#: Traced cora_score calls needed before its p95 has ten samples above it.
CORA_P95_SAMPLES = 200
#: A traced run stops after this many seconds of iterations even if it has
#: not reached CORA_P95_SAMPLES (say, because a stage fails every time); the
#: metrics it could not measure then count as failures.
TRACE_LIMIT_S = 120
PRV_TOL, PRA_TOL, PLA_TOL = 0.05, 0.10, 0.05
#: The host's speed drifts by tens of percent over minutes, far more than the
#: regressions worth catching, so every reported time is the wall time scaled
#: by CAL_NOMINAL_S over the time of a fixed pure-Python loop: the median of
#: the CAL_REPEATS loops run just before and the CAL_REPEATS just after.  One
#: loop on each side is itself off by up to half on a shared VM.  Raw
#: wall times are kept in the record and printed in the summary.
CAL_LOOP = 300_000
CAL_REPEATS = 3
CAL_NOMINAL_S = 0.020


def calibrate() -> list[float]:
    times = []
    for _ in range(CAL_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(CAL_LOOP):
            total += i * i
        times.append(time.perf_counter() - started)
    return times


def scaled(wall: float, cal_before: list[float], cal_after: list[float]) -> float:
    return wall * CAL_NOMINAL_S / statistics.median(cal_before + cal_after)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; BENCHMARK.json's run_seconds by default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Set-up


def setup_probe(workload: str, seed: int, out: Path) -> float:
    """Wall time of a fresh process that imports kinereco and writes inputs."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(Path("perfbench") / "workloads.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(out)], check=True)  # a timeout would poll
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# One iteration of the chain


class Iteration:
    def __init__(self, traced: bool):
        self.traced = traced
        self.warmup = False
        self.stage_s: dict[str, float] = {}  # scaled, see CAL_NOMINAL_S
        self.stage_wall_s: dict[str, float] = {}
        self.attempted = 0
        self.failed: list[str] = []
        self.digests: dict[str, str] = {}
        self.pla_err_max = math.nan
        self.spans: list = []
        self.sizes: dict[str, int] = {}
        self.wall_s = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    @property
    def analyse_s(self) -> float:
        return sum(self.stage_s[s] for s in ANALYSE)

    @property
    def pipeline_s(self) -> float:
        return sum(self.stage_s[s] for s in STAGES)


def stage_argv(run: Path, inputs: Path, seed: int, workload) -> dict:
    session, events, kin = run / "session", run / "events.csv", run / "kin"
    report, config = run / "report.json", run / "session" / "config.json"
    return {
        "simulate": ["simulate", "--profile", inputs / "profile.json",
                     "--config", inputs / "config.json", "--out", session,
                     "--seed", seed],
        "detect": ["detect", "--config", config, "--in", session,
                   "--out", events],
        "reconstruct": ["reconstruct", "--config", config, "--in", session,
                        "--events", events, "--out", kin,
                        *workload.reconstruct_flags],
        "evaluate": ["evaluate", "--config", config, "--hb", kin, "--ref", kin,
                     "--pairs", events, "--out", report],
        "report": ["report", "--in", report, "--out", run / "tables",
                   "--hb", kin, "--ref", kin],
    }


def run_iteration(cli, workload, inputs: Path, seed: int,
                  tracer: spanlib.Tracer | None) -> Iteration:
    it = Iteration(traced=tracer is not None)
    run = WORK / "run"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    argvs = stage_argv(run, inputs, seed, workload)
    started = time.perf_counter()
    if tracer is not None:
        tracer.install()
    cal = calibrate()
    try:
        for stage in STAGES:
            argv = [str(a) for a in argvs[stage]]
            span = tracer.stage(f"cli.{stage}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with span:
                    rc = cli.main(argv)
            except Exception:
                traceback.print_exc()
                rc = None
            wall = time.perf_counter() - t0
            after = calibrate()
            it.stage_wall_s[stage] = wall
            it.stage_s[stage] = scaled(wall, cal, after)
            cal = after
            it.check(rc == 0, f"stage {stage} exited with {rc}")
            if rc != 0:
                for rest in STAGES[STAGES.index(stage) + 1:]:
                    it.check(False, f"stage {rest} not run")
                    it.stage_s[rest] = it.stage_wall_s[rest] = math.nan
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
            it.spans = tracer.take()
    it.wall_s = time.perf_counter() - started
    if not it.failed:
        gate(it, run, workload)
    it.digests = digest_tree(run)
    it.sizes = {name: tree_bytes(run / name) for name in ("kin", "tables")}
    return it


# ---------------------------------------------------------------------------
# Correctness gate


def read_events(path: Path) -> tuple[dict[int, float], int]:
    """Headband t0 per pair id, and the number of unpaired event rows."""
    pairs, unpaired = {}, 0
    with open(path, encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").split(",") for ln in fh
                if ln.strip() and not ln.startswith("#")]
    header = rows[0]
    for row in rows[1:]:
        rec = dict(zip(header, row))
        if not rec["pair_id"]:
            unpaired += 1
        elif rec["source"] == "headband":
            pairs[int(rec["pair_id"])] = float(rec["t0_s"])
    return pairs, unpaired


def gate(it: Iteration, run: Path, workload) -> None:
    """Pairing, peak accuracy against truth.json, one check per fact."""
    truth = json.loads((run / "session" / "truth.json").read_text())["events"]
    pairs, unpaired = read_events(run / "events.csv")
    it.check(len(pairs) == len(truth) == workload.n_impacts,
             f"{len(pairs)} pairs for {len(truth)} planned impacts")
    it.check(unpaired == 0, f"{unpaired} unpaired events")
    report = json.loads((run / "report.json").read_text())
    pla_errs = []
    for ev in report["events"]:
        t0 = pairs.get(ev["pair_id"], math.nan)
        t = min(truth, key=lambda e: abs(e["t0_s"] - t0))
        peaks = ev["peaks"]
        prv = abs(peaks["angular_velocity"]["headband"] - t["prv_rad_s"]) / t["prv_rad_s"]
        pra = abs(peaks["angular_acceleration_a3g1"]["headband"]
                  - t["pra_rad_s2"]) / t["pra_rad_s2"]
        pla = abs(peaks["linear_acceleration"]["headband"] - t["pla_m_s2"]) / t["pla_m_s2"]
        it.check(prv < PRV_TOL, f"pair {ev['pair_id']}: PRV error {prv:.3f}")
        it.check(pra < PRA_TOL, f"pair {ev['pair_id']}: PRA error {pra:.3f}")
        if workload.gate_pla:
            it.check(pla < PLA_TOL, f"pair {ev['pair_id']}: PLA error {pla:.3f}")
        pla_errs.append(pla)
    it.check(len(report["events"]) == workload.n_impacts,
             f"report has {len(report['events'])} events")
    it.pla_err_max = max(pla_errs, default=math.nan)


def digest_tree(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        out[path.relative_to(root).as_posix()] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return out


def combined_digest(digests: dict[str, str]) -> str:
    lines = "".join(f"{name} {d}\n" for name, d in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Per-layer metrics from spans


def envelope_counts(note) -> tuple[int, int]:
    """(live, total) Gaussian-envelope evaluations of one simulate_sensors
    call, mirroring its grids and its motion evaluations exactly: a gyro
    channel evaluates omega once, an accelerometer channel omega, its
    derivative and q."""
    import numpy as np

    motion, specs, duration, clock_offset = note
    live = total = 0
    for spec in specs:
        for kind in ("gyro", "accel_low", "accel_high"):
            ch = spec.channel(kind)
            if ch is None:
                continue
            n = int(math.floor(duration * ch.rate)) + 1
            t = np.arange(n) / ch.rate + clock_offset
            groups = [(motion.omega_components, 1)] if kind == "gyro" else \
                [(motion.omega_components, 2), (motion.q_components, 1)]
            for axes, times in groups:
                for comp in (c for axis in axes for c in axis):
                    if comp.width_s is None:
                        continue
                    # exp(-x^2) is exactly 0.0 beyond |x| ~ 27.3, so only this
                    # span can hold live samples.
                    lo, hi = np.searchsorted(
                        t, [comp.center_s - 28.0 * comp.width_s,
                            comp.center_s + 28.0 * comp.width_s])
                    tau = t[lo:hi] - comp.center_s
                    env = np.exp(-((tau / comp.width_s) ** 2))
                    live += times * int(np.count_nonzero(env))
                    total += times * n
    return live, total


def _size_with_companion(path) -> int:
    path = Path(path)
    high = path.with_name(path.stem + "_high" + path.suffix)
    return path.stat().st_size + (high.stat().st_size if high.exists() else 0)


def observers() -> dict:
    """What each traced call leaves behind for the computed counts; the
    arguments arrive with their defaults applied."""

    def cora(a, _):
        n = len(a["ref"])
        m = max(1, int(round(a["max_shift_fraction"] * n)))
        return (2 * m + 1) * n - m * (m + 1)  # overlap summed over shifts

    def refine(a, _):
        rate = max(a["hb_mag"].sample_rate, a["ref_mag"].sample_rate)
        return 2 * max(1, int(round(a["max_lag"] * rate))) + 1

    return {
        "synth.simulate_sensors": lambda a, _: (
            a["motion"], list(a["specs"]), a["duration"], a["clock_offset"]),
        "wavelet.cwt": lambda _, sc: sc.coeffs.size,
        "wavelet.normalized_slices": lambda a, _: 2 * len(a["sc"].freqs),
        "evaluate.cora_score": cora,
        "detect.refine_offset": refine,
        "ingest.write_imu_csv": lambda a, path: _size_with_companion(path),
        "ingest.parse_imu_csv": lambda a, _: _size_with_companion(a["path"]),
    }


def iteration_layers(it: Iteration) -> dict[str, float]:
    """Per-function calls/total_s/self_s plus the named computed counts."""
    selfs = spanlib.self_times(it.spans)
    by_name: dict[str, list] = {}
    for s in it.spans:
        by_name.setdefault(s.name, []).append(s)
    out: dict[str, float] = {}
    for name, group in by_name.items():
        out[f"{name}.calls"] = len(group)
        out[f"{name}.total_s"] = sum(s.end - s.start for s in group)
        out[f"{name}.self_s"] = sum(selfs[s.id] for s in group)

    def notes(name):
        return [s.note for s in by_name.get(name, ()) if s.note is not None]

    live = total = 0
    for note in notes("synth.simulate_sensors"):
        lv, tt = envelope_counts(note)
        live, total = live + lv, total + tt
    out["synth.env_live_frac"] = live / total if total else math.nan

    stage_ids = {s.id for s in it.spans if s.name.startswith("cli.")}
    cells = sum(notes("wavelet.cwt"))
    exported = sum(s.note for s in by_name.get("wavelet.cwt", ())
                   if s.parent in stage_ids)
    out["wavelet.cwt.cells"] = cells
    out["wavelet.cwt.cells_read_frac"] = (
        (sum(notes("wavelet.normalized_slices")) + exported) / cells
        if cells else math.nan)
    out["evaluate.cora_score.lag_samples"] = sum(notes("evaluate.cora_score"))
    out["detect.refine_offset.lags"] = sum(notes("detect.refine_offset"))

    mb = 1e6
    out["ingest.write_mb"] = sum(notes("ingest.write_imu_csv")) / mb
    out["ingest.read_mb"] = sum(notes("ingest.parse_imu_csv")) / mb
    out["ingest.write_mb_per_s"] = out["ingest.write_mb"] / out.get(
        "ingest.write_imu_csv.total_s", math.nan)
    out["ingest.parse_mb_per_s"] = out["ingest.read_mb"] / out.get(
        "ingest.parse_imu_csv.total_s", math.nan)
    out["cli.reconstruct.write_mb"] = it.sizes["kin"] / mb
    out["cli.report.write_mb"] = it.sizes["tables"] / mb
    return out


def per_call_ms(traced: list[Iteration]) -> dict[str, list[float]]:
    pooled: dict[str, list[float]] = {}
    for it in traced:
        for s in it.spans:
            pooled.setdefault(s.name, []).append((s.end - s.start) * 1e3)
    return pooled


def layer_summary(traced: list[Iteration], untraced: list[Iteration]) -> dict:
    """Median over traced iterations of every per-iteration value, plus
    per-call p50 and the highest percentile with ten samples above it."""
    per_it = [iteration_layers(it) for it in traced]
    keys = sorted({k for d in per_it for k in d})
    values = {k: statistics.median(d.get(k, 0.0) for d in per_it) for k in keys}
    per_call = {}
    for name, ms in per_call_ms(traced).items():
        entry = {"n": len(ms), "p50_ms": statistics.median(ms)}
        tail = spanlib.tail_percentile(ms)
        if tail is not None:
            entry[f"{tail[0]}_ms"] = tail[1]
        per_call[name] = entry
        values[f"{name}.p50_ms"] = entry["p50_ms"]
        if len(ms) >= CORA_P95_SAMPLES:
            values[f"{name}.p95_ms"] = spanlib.quantile(ms, 0.95)
    values["trace.overhead_frac"] = (
        statistics.median(it.analyse_s for it in traced)
        / statistics.median(it.analyse_s for it in untraced) - 1.0)
    return {"values": values, "per_call": per_call}


# ---------------------------------------------------------------------------
# Provenance


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        match = re.search(r"^model name\s*:\s*(.+)$",
                          Path("/proc/cpuinfo").read_text(), re.M)
        cpu = match.group(1) if match else cpu
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    sources = hashlib.sha256()
    for path in sorted((SRC / "kinereco").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(path.relative_to(SRC).as_posix().encode())
            sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "seed": seed,
        "git_commit": commit,
        "sources_sha256": sources.hexdigest(),
    }


def blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    with contextlib.suppress(OSError):
        maps = Path("/proc/self/maps").read_text()
        for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


# ---------------------------------------------------------------------------
# Main


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def should_continue(elapsed: float, iterations: list[Iteration],
                    seconds: float) -> bool:
    if len(iterations) < MIN_ITERATIONS:
        return True
    estimate = statistics.median(it.wall_s for it in iterations)
    return elapsed + estimate <= seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workload = WORKLOADS[args.workload]
    import_kinereco()
    from kinereco import cli
    inputs = WORK / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)

    setup_s, setup_wall_s, input_digests = [], [], []
    if args.trace:
        write_inputs(workload.name, args.seed, inputs)
    else:
        # The two vCPUs of a shared VM change speed each on its own, so the
        # loop predicts a probe's time only if both run on the same CPU.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            cal = calibrate()
            for _ in range(SETUP_PROBES):
                wall = setup_probe(workload.name, args.seed, inputs)
                after = calibrate()
                setup_wall_s.append(wall)
                setup_s.append(scaled(wall, cal, after))
                cal = after
                input_digests.append(combined_digest(digest_tree(inputs)))
        finally:
            os.sched_setaffinity(0, cpus)
    tracer = spanlib.Tracer(observers=observers())

    iterations: list[Iteration] = []
    measured = 0.0
    while True:
        # Traced runs: a warm-up, then untraced, traced, untraced, traced, ...
        traced = bool(args.trace) and len(iterations) > 0 and len(iterations) % 2 == 0
        started = time.perf_counter()
        it = run_iteration(cli, workload, inputs, args.seed,
                           tracer if traced else None)
        measured += time.perf_counter() - started
        it.warmup = bool(args.trace) and not iterations
        iterations.append(it)
        done = not should_continue(measured, iterations, args.seconds)
        if args.trace:
            n_traced = sum(it.traced for it in iterations)
            cora_calls = sum(1 for it in iterations for s in it.spans
                             if s.name == "evaluate.cora_score")
            done = (done and traced and n_traced >= 2
                    and cora_calls >= CORA_P95_SAMPLES) or measured > TRACE_LIMIT_S
        if done:
            break

    # Every output file must hash the same on every iteration, and every
    # set-up probe must write the same inputs.
    first = iterations[0].digests
    for it in iterations[1:]:
        it.check(it.digests == first, "outputs differ from the first iteration")
    attempted = sum(it.attempted for it in iterations) + len(input_digests)
    failures = [f for it in iterations for f in it.failed]
    failures += [f"set-up probe {i} wrote different inputs"
                 for i, d in enumerate(input_digests) if d != input_digests[0]]
    untraced = [it for it in iterations if not it.traced and not it.warmup]
    traced = [it for it in iterations if it.traced]

    def median(values):
        return statistics.median(values) if values else math.nan

    values = {
        "setup_s": median(setup_s),
        "analyse_s": median([it.analyse_s for it in untraced]),
        "pipeline_s": median([it.pipeline_s for it in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_failed_frac": len(failures) / attempted,
    }
    for stage in STAGES:
        values[f"{stage}_s"] = median([it.stage_s[stage] for it in untraced])
        values[f"wall.{stage}_s"] = median(
            [it.stage_wall_s[stage] for it in untraced])
    values["wall.setup_s"] = median(setup_wall_s)
    layers = layer_summary(traced, untraced) if traced else None
    if layers:
        values.update(layers["values"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], math.nan)
        if not math.isfinite(value):
            attempted += 1
            failures.append(f"metric {m['name']} was not measured")
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": workload.name, "trace": args.trace,
        "seconds": args.seconds, "provenance": provenance(args.seed),
        "iterations": [{"traced": it.traced, "warmup": it.warmup,
                        "stage_s": it.stage_s,
                        "stage_wall_s": it.stage_wall_s, "wall_s": it.wall_s,
                        "pla_err_max": it.pla_err_max}
                       for it in iterations],
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, "values": values, "computed": COMPUTED,
        "failures": failures,
        "attempted": attempted,
        "outputs_sha256": combined_digest(first), "output_files": first,
        "inputs_sha256": input_digests[0] if input_digests else None,
    }
    if layers:
        record["per_call"] = layers["per_call"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        (results / f"{stem}-spans.json").write_text(json.dumps(
            [[s.id, s.parent, s.name, s.start, s.end, s.error]
             for it in traced for s in it.spans]) + "\n")

    print_summary(record, metrics, untraced, traced)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_summary(record, metrics, untraced, traced) -> None:
    w = record["workload"]
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{w} {name} = {value} {m['unit']}{label}")
    if untraced and not record["trace"]:
        raw = ", ".join(f"{k[5:]} {v:.4g}" for k, v in record["values"].items()
                        if k.startswith("wall."))
        print(f"{w} unscaled wall time, s: {raw}")
    print(f"{w} ops_failed_frac = {record['values']['ops_failed_frac']:.6g} "
          f"(failed/attempted, {record['attempted']} attempted)")
    warmup = sum(it["warmup"] for it in record["iterations"])
    print(f"{w} iterations: {warmup} warm-up, {len(untraced)} untraced, "
          f"{len(traced)} traced, {len(record['setup_s'])} set-up probes; "
          f"outputs sha256 {record['outputs_sha256'][:16]}")
    pla = [it["pla_err_max"] for it in record["iterations"]]
    print(f"{w} PLA error, worst event: {max(pla):.3f} "
          f"({'gated' if WORKLOADS[w].gate_pla else 'reported, not gated'})")
    for failure in record["failures"][:20]:
        print(f"{w} FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
