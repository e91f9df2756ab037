"""Discipline-linter rules D1–D8."""

from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.lint import RULES, lint_paths, lint_source

REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def rules_of(findings):
    return sorted({f.rule for f in findings})


# --------------------------------------------------------------------------- #
# D1: wall-clock / unseeded randomness
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("snippet", [
    "import time\nt = time.time()\n",
    "import time\nt = time.monotonic_ns()\n",
    "import datetime\nd = datetime.datetime.now()\n",
    "from datetime import datetime\nd = datetime.utcnow()\n",
    "import random\nx = random.random()\n",
    "import random\nx = random.randint(0, 9)\n",
    "import random\nr = random.Random()\n",
    "import numpy as np\nr = np.random.default_rng()\n",
])
def test_d1_flags_nondeterminism(snippet):
    assert rules_of(lint_source(snippet, "repro/x.py")) == ["D1"]


@pytest.mark.parametrize("snippet", [
    "import random\nr = random.Random(42)\n",
    "import numpy as np\nr = np.random.default_rng(7)\n",
    "t = clock.seconds\n",
])
def test_d1_allows_seeded_and_simulated_time(snippet):
    assert lint_source(snippet, "repro/x.py") == []


# --------------------------------------------------------------------------- #
# D2: obs plane read-only on the clock
# --------------------------------------------------------------------------- #

def test_d2_flags_clock_spend_in_obs():
    src = "def f(clock):\n    clock.charge(10, 'x')\n    clock.count('e')\n"
    findings = lint_source(src, "repro/obs/exporter.py")
    assert rules_of(findings) == ["D2"]
    assert len(findings) == 2


def test_d2_scoped_to_obs_only():
    src = "def f(clock):\n    clock.charge(10, 'x')\n"
    assert lint_source(src, "repro/core/monitor.py") == []


# --------------------------------------------------------------------------- #
# D3: ordered hash preimages
# --------------------------------------------------------------------------- #

def test_d3_flags_bare_dict_iteration():
    src = ("import hashlib\n"
           "def f(d):\n"
           "    return hashlib.sha256(str(d.items()).encode())\n")
    assert rules_of(lint_source(src, "repro/x.py")) == ["D3"]


def test_d3_allows_sorted_iteration():
    src = ("import hashlib\n"
           "def f(d):\n"
           "    return hashlib.sha256(str(sorted(d.items())).encode())\n")
    assert lint_source(src, "repro/x.py") == []


def test_d3_flags_unsorted_json_dumps():
    src = ("import hashlib, json\n"
           "def f(d):\n"
           "    return hashlib.sha256(json.dumps(d).encode())\n")
    assert rules_of(lint_source(src, "repro/x.py")) == ["D3"]


def test_d3_allows_sort_keys():
    src = ("import hashlib, json\n"
           "def f(d):\n"
           "    return hashlib.sha256("
           "json.dumps(d, sort_keys=True).encode())\n")
    assert lint_source(src, "repro/x.py") == []


# --------------------------------------------------------------------------- #
# D4: blanket except
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("handler", [
    "except:", "except Exception:", "except BaseException:",
    "except (ValueError, Exception):",
])
def test_d4_flags_blanket_excepts(handler):
    src = f"try:\n    x = 1\n{handler}\n    pass\n"
    assert rules_of(lint_source(src, "repro/x.py")) == ["D4"]


def test_d4_allows_specific_excepts():
    src = "try:\n    x = 1\nexcept (ValueError, KeyError):\n    pass\n"
    assert lint_source(src, "repro/x.py") == []


# --------------------------------------------------------------------------- #
# D5: fleet cycle charges must be CPU-attributed
# --------------------------------------------------------------------------- #

def test_d5_flags_unattributed_fleet_charge():
    src = "def f(clock):\n    clock.charge(10, 'x')\n"
    assert rules_of(lint_source(src, "repro/fleet/sched.py")) == ["D5"]


def test_d5_allows_on_cpu_scope():
    src = ("def f(clock):\n"
           "    with clock.on_cpu(0):\n"
           "        clock.charge(10, 'x')\n")
    assert lint_source(src, "repro/fleet/sched.py") == []


def test_d5_allows_serial_section_marker():
    src = "def f(clock):\n    clock.charge(10, 'x')  # serial-section\n"
    assert lint_source(src, "repro/fleet/sched.py") == []


def test_d5_scoped_to_fleet_only():
    src = "def f(clock):\n    clock.charge(10, 'x')\n"
    assert lint_source(src, "repro/core/monitor.py") == []


# --------------------------------------------------------------------------- #
# the tree itself
# --------------------------------------------------------------------------- #

def test_tree_lints_clean():
    findings = lint_paths([REPRO_SRC])
    assert findings == [], "\n".join(str(f) for f in findings)


def test_new_finding_in_clean_file_is_kept(tmp_path, capsys):
    """No finding can be waived: every one reaches the caller, and the
    CLI fails on it."""
    legacy = tmp_path / "repro" / "legacy.py"
    legacy.parent.mkdir()
    legacy.write_text("import time\nt = time.time()\n"
                      "try:\n    x = 1\nexcept Exception:\n    pass\n")
    findings = lint_paths([legacy])
    assert findings == lint_source(legacy.read_text(), "repro/legacy.py")
    assert rules_of(findings) == ["D1", "D4"]
    assert main(["lint", str(legacy)]) == 1
    assert "2 finding(s)" in capsys.readouterr().out


def test_rule_table_is_complete():
    assert list(RULES) == ["D1", "D2", "D3", "D4", "D5", "D7", "D8"]


# --------------------------------------------------------------------------- #
# D7: shared scheduler state commits only on the serial path
# --------------------------------------------------------------------------- #

FLEET_PATH = "repro/fleet/scheduler.py"

D7_MUTATION = ("def f(self, core):\n"
               "    with self.clock.on_cpu(core):\n"
               "        self.queue.append(1)\n")


def test_d7_flags_mutation_inside_on_cpu():
    findings = lint_source(D7_MUTATION, FLEET_PATH)
    assert any(f.rule == "D7" for f in findings)


def test_d7_flags_assignment_inside_on_cpu():
    src = ("def f(self, core):\n"
           "    with self.clock.on_cpu(core):\n"
           "        self.counts['admit'] = 1\n")
    assert any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_commit_path_marker_waives():
    src = ("def f(self, core):\n"
           "    with self.clock.on_cpu(core):\n"
           "        self.queue.append(1)  # commit-path\n")
    assert not any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_allows_mutation_outside_on_cpu():
    src = "def f(self):\n    self.queue.append(1)\n"
    assert not any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_allows_non_shared_attributes():
    src = ("def f(self, core):\n"
           "    with self.clock.on_cpu(core):\n"
           "        self.scratch.append(1)\n")
    assert not any(f.rule == "D7" for f in lint_source(src, FLEET_PATH))


def test_d7_scoped_to_fleet_only():
    assert not any(f.rule == "D7" for f in
                   lint_source(D7_MUTATION, "repro/core/monitor.py"))


def test_d7_shipping_fleet_package_is_clean():
    findings = lint_paths([REPRO_SRC / "fleet"])
    assert [f for f in findings if f.rule == "D7"] == []


# --------------------------------------------------------------------------- #
# D8: every definition is referenced somewhere in the checkout
# --------------------------------------------------------------------------- #

def plant_checkout(root, module, test="", api=""):
    """A minimal checkout: ``src/pkg/mod.py`` plus optional test/API."""
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text(module)
    if test:
        (root / "tests").mkdir()
        (root / "tests" / "test_mod.py").write_text(test)
    if api:
        (root / "API.md").write_text(api)
    return root / "src"


def test_d8_flags_planted_orphan(tmp_path):
    src = plant_checkout(
        tmp_path,
        "def used_helper():\n    return 1\n\n\n"
        "def orphan_helper():\n    return 2\n",
        test="from pkg.mod import used_helper\n\n\n"
             "def test_it():\n    assert used_helper() == 1\n")
    findings = lint_paths([src])
    assert [(f.rule, f.line) for f in findings] == [("D8", 5)]
    assert "orphan_helper" in findings[0].message


def test_d8_passes_referenced_and_exempt_defs(tmp_path):
    src = plant_checkout(
        tmp_path,
        "class Engine:\n"
        "    def run(self):\n        return None\n\n"
        "    def _op_nop(self):\n        return None\n\n"
        "    def __repr__(self):\n        return 'Engine'\n\n\n"
        "def declared_entry():\n    return Engine().run()\n",
        test="from pkg.mod import Engine\n\n\n"
             "def test_it():\n    assert Engine().run() is None\n",
        api="| `declared_entry()` | public entry point |\n")
    findings = lint_paths([src])
    assert findings == [], "\n".join(str(f) for f in findings)
