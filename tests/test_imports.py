"""The public API works in a fresh process, whatever the import order.

Each check runs in a new interpreter, so nothing the test session has
already imported can mask an import cycle: every ``repro`` module must
import on its own, a plan-less ``VM(compile_source(src)).run()`` must
work with nothing else imported first, and the workload registry must
list every workload after one workload module was imported directly.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).resolve().parent
SRC_DIR = PACKAGE_DIR.parent


def _modules() -> list[str]:
    names = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        parts = path.relative_to(SRC_DIR).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_every_module_imports_on_its_own():
    modules = _modules()
    assert "repro.vm.shapes" in modules
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda m: _fresh(f"import {m}"), modules))
    failures = {
        name: result.stderr.strip().splitlines()[-1]
        for name, result in zip(modules, results)
        if result.returncode != 0
    }
    assert failures == {}


def test_planless_vm_runs_in_fresh_process():
    result = _fresh(
        "from repro import VM, compile_source\n"
        "src = 'class Main { static void main() { Sys.print(\"ok\"); } }'\n"
        "print(VM(compile_source(src)).run().output, end='')\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_registry_lists_all_after_direct_workload_import():
    result = _fresh(
        "import repro.workloads.specjbb.jbb2000\n"
        "from repro.workloads import PAPER_ORDER, all_workloads, "
        "get_workload\n"
        "assert get_workload('salarydb').name == 'salarydb'\n"
        "names = sorted(spec.name for spec in all_workloads())\n"
        "assert names == sorted(PAPER_ORDER), names\n"
    )
    assert result.returncode == 0, result.stderr
