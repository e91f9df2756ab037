"""The repository benchmark: closed-loop fleet workloads in both clocks.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-sessions --seconds 55 --trace 0

Each repetition runs in a fresh interpreter (``perfbench/rep.py``) and
the parent keeps starting repetitions until ``--seconds`` would be
exceeded (at least :data:`MIN_ROUNDS`). Host-time metrics are medians
over the repetitions of host seconds scaled to a nominal host speed by
each repetition's own calibration (``calib.py``, ``rep.py``); the
unscaled medians and the host speed are per-layer metrics. ``sim_*``
metrics are simulated and must repeat exactly. Every repetition's
outputs are checked before any number is reported (see ``rep.py`` and
:func:`gate`).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics: host
self time and calls per layer, joined with the simulated cycles of the
ledger, plus the tracing overhead (traced minus untraced ``run_s``).
The joined table goes to stderr; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYERS, SIM_TAG_PLANES, render_table  # noqa: E402
from rep import CERT_SECTIONS, DEFAULT_SEED, PINS, WORKLOADS  # noqa: E402

#: fewest repetitions (rounds, with --trace 1) a run makes
MIN_ROUNDS = {0: 3, 1: 1}
#: hard ceiling on one run, below the 180 s a run may take
RUN_LIMIT_S = 170.0


def end_to_end_metrics(plain: list[dict], sim: dict) -> dict:
    """The user-visible figures, as medians over untraced repetitions."""
    med = statistics.median
    return {
        "setup_s": (med(r["scaled"]["setup_s"] for r in plain), "s"),
        "run_s": (med(r["scaled"]["run_s"] for r in plain), "s"),
        "serve_host_rps": (med(r["requests"] / r["scaled"]["serve_s"]
                               for r in plain), "req/s"),
        "peak_rss_mib": (med(r["peak_rss_mib"] for r in plain), "MiB"),
        "sim_rps": (sim["rps"], "req/sim_s"),
        "sim_total_gcycles": (sim["total_cycles"] / 1e9, "Gcycles"),
        "sim_fleet_mib": (sim["fleet_bytes"] / (1 << 20), "MiB"),
    }


def per_layer_metrics(plain: list[dict], traced: list[dict],
                      sim: dict) -> dict:
    """Per-layer figures: host medians over traced repetitions, simulated
    values from the ledger, certificate costs from untraced ones. Host
    seconds are scaled like the end-to-end ones, except ``wall.*``."""
    med = statistics.median
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (
            med(r["layers"][layer]["calls"] for r in traced), "count")
        out[f"{layer}.self_s"] = (
            med(r["layers"][layer]["self_s"] * r["host_scale"]
                for r in traced), "s")
    out["hw.tlb_hit_ratio"] = (sim["tlb_hit_ratio"], "ratio")
    out["fleet.warm_reuse_ratio"] = (sim["warm_reuse_ratio"], "ratio")
    out["fleet.admit_ratio"] = (sim["admit_ratio"], "ratio")
    out["fleet.queued"] = (sim["queued"], "count")
    sections = traced[0].get("cert_section_bytes", {})
    for section in CERT_SECTIONS:
        out[f"certs.kib.{section}"] = (sections.get(section, 0) / 1024,
                                       "KiB")
    certs = [r for r in plain if r["certs"]]
    out["cert_issue_ms"] = (
        med(1e3 * r["scaled"]["cert_issue_s"] / r["certs"] for r in certs)
        if certs else 0.0, "ms")
    out["cert_verify_ms"] = (
        med(1e3 * r["scaled"]["cert_verify_s"] / r["certs"]
            for r in certs)
        if certs else 0.0, "ms")
    out["cert_kb"] = (
        statistics.mean(certs[0]["cert_bytes"]) / 1024 if certs else 0.0,
        "KiB")
    planes = sim["planes"]
    for plane in SIM_TAG_PLANES:
        out[f"sim.plane.{plane}_mcycles"] = (planes[plane] / 1e6, "Mcycles")
    for tag in ("compute", "instr", "unmapped"):
        out[f"sim.tag.{tag}_mcycles"] = (planes[tag] / 1e6, "Mcycles")
    out["sim.cow_breaks"] = (sim["cow_breaks"], "count")
    out["sim.scrub_verifications"] = (sim["scrub_verifications"], "count")
    out["sim.fork_kcycles_p50"] = (sim["fork_cycles_p50"] / 1e3, "kcycles")
    out["sim.warm_kcycles_p50"] = (sim["warm_cycles_p50"] / 1e3, "kcycles")
    traced_s = med(r["scaled"]["run_s"] for r in traced)
    plain_s = med(r["scaled"]["run_s"] for r in plain)
    covered = med(sum(row["self_s"] for row in r["layers"].values())
                  / r["run_s"] for r in traced)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (plain_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    out["trace.coverage"] = (covered, "ratio")
    out["trace.spans"] = (med(r["spans"] for r in traced), "count")
    out["host.speed"] = (med(r["host_scale"] for r in plain), "ratio")
    out["wall.run_s"] = (med(r["run_s"] for r in plain), "s")
    out["wall.serve_host_rps"] = (
        med(r["requests"] / r["serve_s"] for r in plain), "req/s")
    return out


def gate(workload: str, seed: int, tiny: bool, reps: list[dict]
         ) -> tuple[int, list[str]]:
    """Run-level checks over all repetitions: ``(attempted, failures)``.

    Each repetition already checked its own sessions and certificates.
    Across repetitions, the report digest, the response digest and every
    simulated figure must be identical (traced and untraced alike), and at
    the default seed both digests must equal their pins.
    """
    attempted = sum(r["attempted"] for r in reps)
    failures = [f"rep {i} ({r['mode']}): {name}"
                for i, r in enumerate(reps) for name in r["failed"]]
    first = reps[0]
    for key in ("digest", "responses", "sim"):
        attempted += 1
        if any(r[key] != first[key] for r in reps[1:]):
            failures.append(f"{key} differs between repetitions")
    if seed == DEFAULT_SEED and not tiny:
        for key, pin in zip(("digest", "responses"), PINS[workload]):
            attempted += 1
            if first[key] != pin:
                failures.append(f"{key} {first[key][:16]} misses its pin "
                                f"{pin[:16]}")
    for r in reps:
        if r["mode"] == "traced":
            attempted += 1
            if r["request_ids"] != r["requests"]:
                failures.append(f"traced run saw {r['request_ids']} request "
                                f"ids for {r['requests']} requests")
    return attempted, failures


def _repetition(root: Path, workload: str, seed: int, mode: str,
                tiny: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} repetition exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(root: Path, workload: str, seed: int, seconds: float,
            trace: int, tiny: bool) -> list[dict]:
    """Repeat until a round as long as the longest so far would overrun
    ``seconds``."""
    modes = ("plain", "traced") if trace else ("plain",)
    reps: list[dict] = []
    t0 = perf_counter()
    rounds = 0
    longest = 0.0
    while True:
        t_round = perf_counter()
        for mode in modes:
            left = RUN_LIMIT_S - (perf_counter() - t0)
            reps.append(_repetition(root, workload, seed, mode, tiny, left))
        rounds += 1
        now = perf_counter()
        longest = max(longest, now - t_round)
        if rounds >= MIN_ROUNDS[trace] and now - t0 + longest > seconds:
            return reps


def _summary(workload: str, metrics: dict, reps: list[dict]) -> str:
    lines = [f"{workload}: {len(reps)} repetition(s)"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<36}{value:>16.6g} {unit}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: a few seconds, no pins")
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {root / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    try:
        reps = measure(root, args.workload, args.seed, args.seconds,
                       args.trace, args.tiny)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    attempted, failures = gate(args.workload, args.seed, args.tiny, reps)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    plain = [r for r in reps if r["mode"] == "plain"]
    traced = [r for r in reps if r["mode"] == "traced"]
    sim = reps[0]["sim"]
    if failures:
        # a run that fails a gate reports no timing
        metrics = {}
    elif args.trace:
        metrics = per_layer_metrics(plain, traced, sim)
        layers = {name: {"calls": metrics[f"{name}.calls"][0],
                         "self_s": metrics[f"{name}.self_s"][0]}
                  for name in LAYERS}
        print(render_table(args.workload, layers, metrics["trace.run_s"][0],
                           sim["planes"]), file=sys.stderr)
    else:
        metrics = end_to_end_metrics(plain, sim)
        metrics["pass_frac"] = ((attempted - len(failures)) / attempted,
                                "ratio")
    if metrics:
        print(_summary(args.workload, metrics, reps), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
