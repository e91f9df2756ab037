"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute; the tier-1 suite under ``tests/`` does not collect them).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calib  # noqa: E402
import layers  # noqa: E402
import rep  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(rep.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert set(rep.PINS) == set(rep.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_tiny_run_prints_every_declared_metric(trace, section):
    proc = _bench("--workload", "fleet-llama-certified", "--tiny",
                  "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


@pytest.mark.parametrize("target", layers.TARGETS,
                         ids=[f"{t[0]}:{t[2]}" for t in layers.TARGETS])
def test_every_wrapped_target_resolves(target):
    _, module, path = target
    owner, attr, raw = layers.resolve(module, path)
    assert getattr(owner, attr) is not None and raw is not None


def test_resolve_fails_loudly_on_a_renamed_function():
    with pytest.raises(AttributeError):
        layers.resolve("repro.hw.mmu", "Mmu.check_renamed")


def _program_globals() -> dict:
    return {(name, key): value
            for name, module in list(sys.modules.items())
            if name.startswith("repro")
            for key, value in list(vars(module).items())}


def test_traced_run_restores_every_original():
    rep._import_program()
    originals = {(m, p): layers.resolve(m, p)[2]
                 for _, m, p in layers.TARGETS}
    before = _program_globals()
    result = rep.run_once("fleet-llama-certified", 3, "traced", tiny=True)
    assert result["failed"] == []
    assert result["spans"] > 0
    assert result["request_ids"] == result["requests"]
    for (module, path), raw in originals.items():
        assert layers.resolve(module, path)[2] is raw, f"{module}:{path}"
    after = _program_globals()
    changed = [key for key, value in before.items()
               if after.get(key) is not value]
    assert changed == []


def test_calibration_kernels_are_fixed_work():
    times = calib.measure()
    assert set(times) == set(calib.EXPECTED)
    assert all(t > 0 for t in times.values())
    slow = {name: 2 * t for name, t in times.items()}
    assert calib.host_scale(slow, slow) == pytest.approx(
        calib.host_scale(times, times) / 2)


def test_span_recorder_folds_self_time_and_reentry():
    recorder = layers.SpanRecorder()
    ids = {name: i for i, name in enumerate(layers.LAYERS)}

    def inner():
        return 1

    def outer():
        return traced_inner() + traced_same()

    traced_inner = recorder.span_wrapper(ids["hw.clock_charge"], inner)
    traced_same = recorder.span_wrapper(ids["core.emc"], inner)
    traced_outer = recorder.span_wrapper(ids["core.emc"], outer)
    assert traced_outer() == 2
    table = recorder.layers()
    assert recorder.spans == 3
    assert table["core.emc"]["calls"] == 1          # re-entry is one call
    assert table["hw.clock_charge"]["calls"] == 1
    total = recorder.end[0] - recorder.start[0]
    covered = sum(row["self_s"] for row in table.values())
    assert covered == pytest.approx(total)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "fleet-sessions", "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
