"""scripts/bench_record.py refuses a checkout with bytecode under src and
runs perfbench with no bytecode written."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(path: Path) -> Path:
    (path / "src" / "ramsum").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    return path


def test_bytecode_under_src_is_refused_by_name(tmp_path, monkeypatch, bench_record):
    clean = checkout(tmp_path / "parent")
    stale = checkout(tmp_path / "change")
    cache = stale / "src" / "ramsum" / "__pycache__"
    cache.mkdir()

    def never(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_record, "run_once", never)
    argv = ["--out", str(tmp_path / "out.json"), "--checkout", f"parent={clean}", "--checkout", f"change={stale}"]
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv + ["--workloads", "sweep-k120", "--seeds", "1", "--seconds", "1"])
    assert str(cache) in str(exc.value) and str(exc.value).startswith("change: ")
    assert not (tmp_path / "out.json").exists()
    assert bench_record.stale_bytecode(str(clean)) == []


def test_runs_write_no_bytecode(tmp_path, monkeypatch, bench_record):
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs)
        lines = [json.dumps({"machine": {}}), json.dumps({"metrics": {}})]
        return subprocess.CompletedProcess(argv, 0, stdout="\n".join(lines) + "\n", stderr="")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_record.run_once(str(tmp_path), "sweep-k120", 1, 1.0) == ({"machine": {}}, {"metrics": {}})
    assert seen["cwd"] == str(tmp_path) and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
