"""The package surface: exports, the benchmark's traced layers, no asserts,
where numbers are checked, the benchmark recorder's refusal of byte code,
and the scripts outside tests/ that call the window checks."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import socialbayes

ROOT = Path(__file__).resolve().parent.parent
REMOVED = ("DegreeMatrix", "PrecisionLedger", "degree_at", "precision_at",
           "reduced_product", "step_expected", "rng_stream",
           "consensus_verdict", "ConsensusVerdict", "fourth_moment_summary",
           "serialize_config", "standard_schedule_set", "StandardCase",
           "FORMATS", "transition_bundles", "norm_max", "_streams",
           "_BATCH_MIN", "_hash_consts", "_POOL_HASH", "_ROUNDS",
           "_STATE_HASH", "_hashmix", "_SeedWords", "ISeedSequence",
           "_STACK_MAX_N", "_as_float64", "_past_int64", "_trajectory_rows")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "socialbayes")
                                        .glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Checks must not vanish under python -O: raise, never assert."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "assert at %s line(s) %s" % (path.name, lines)


def test_all_names_resolve():
    missing = [name for name in socialbayes.__all__
               if not hasattr(socialbayes, name)]
    assert missing == []
    assert len(set(socialbayes.__all__)) == len(socialbayes.__all__)
    # __all__ is derived from the imports: no module, no private name
    for name in socialbayes.__all__:
        assert not name.startswith("_"), name
        assert not inspect.ismodule(getattr(socialbayes, name)), name


# Every writer of a table, all CSV: none takes a format.
_TABLE_WRITERS = ("write_trajectory", "write_expected_trajectory",
                  "write_ensemble_summary", "write_check_report",
                  "write_rate_table", "write_rate_report", "write_switch_table")


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in socialbayes.__all__
        assert not hasattr(socialbayes, name)
        for module in ("analysis", "config", "dynamics", "expected",
                       "schedules", "tables"):
            assert not hasattr(importlib.import_module(
                "socialbayes." + module), name), (module, name)
    for func, param in ((socialbayes.run_simulation, "zero_noise"),
                        (socialbayes.run_simulation, "record_signals"),
                        (socialbayes.Trajectory, "signals"),
                        (socialbayes.run_ensemble, "zero_noise"),
                        (socialbayes.Trajectory, "kind"),
                        (socialbayes.ExpectedTrajectory, "kind"),
                        (socialbayes.tables.write_expected_trajectory,
                         "every"),
                        (socialbayes.tables.write_switch_table, "meta"),
                        (socialbayes.tables.write_table, "rows"),
                        (socialbayes.sweep_window_checks, "d"),
                        (socialbayes.sweep_window_checks, "decay_lengths"),
                        (socialbayes.check_diagonal_bound, "l"),
                        (socialbayes.make_counterexample_schedule,
                         "tolerance_rule"),
                        (socialbayes.CounterexampleSchedule,
                         "tolerance_rule"),
                        (socialbayes.ExperimentConfig, "out_format"),
                        *((getattr(socialbayes.tables, writer), "fmt")
                          for writer in _TABLE_WRITERS)):
        assert param not in inspect.signature(func).parameters, func
    # schedule kinds are named by config's key tables alone
    for cls in (socialbayes.GraphSchedule, socialbayes.PeriodicSchedule,
                socialbayes.RandomSchedule, socialbayes.TableSchedule,
                socialbayes.CounterexampleSchedule):
        assert not hasattr(cls, "kind"), cls
    # the step kernels keep truth and idle rows by arithmetic, with no mask
    assert not hasattr(socialbayes.schedules.Block, "idle")


# Where src/ may build a generator itself: a schedule's stream,
# _schedule_rng, advanced to the step a query or block starts at; a run's
# stream, run_stream; and the norm sweep's one generator.
_GENERATOR_SITES = {
    ("SeedSequence", "schedules.py", "_schedule_rng"),
    ("PCG64", "schedules.py", "_schedule_rng"),
    ("Generator", "schedules.py", "_schedule_rng"),
    ("SeedSequence", "dynamics.py", "run_stream"),
    ("default_rng", "dynamics.py", "run_stream"),
    ("default_rng", "analysis.py", "check_norm_inequalities"),
}


def _sites(path, pick):
    """(name, file, enclosing function) of each node of path for which
    pick(node) gives a name."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = pick(child)
            if name is not None:
                found.add((name, path.name, owner))
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _calls(path, names):
    """_sites of each call in path to a function or method of one of
    these names."""
    def pick(node):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            return name if name in names else None
    return _sites(path, pick)


def _references(path, name):
    """_sites of each reference in path to `name`: a name, an attribute
    or an import, called or not."""
    return _sites(path, lambda node: name if name in (
        getattr(node, "id", None), getattr(node, "attr", None),
        getattr(node, "name", None)) else None)


def _package_calls(*names):
    return set().union(*(_calls(path, names) for path in
                         (ROOT / "src" / "socialbayes").glob("*.py")))


def test_generators_are_built_in_known_places():
    assert _package_calls("SeedSequence", "default_rng", "PCG64",
                          "Generator") == _GENERATOR_SITES


def test_w_stacks_are_built_in_one_place():
    """Compiled blocks become W stacks in schedules._stacks alone; the one
    other builder of a W is the validated one-step transition_bundle."""
    assert _package_calls("_transitions") == {
        ("_transitions", "schedules.py", "_stacks"),
        ("_transitions", "expected.py", "transition_bundle")}


def test_finite_checks_live_in_the_rules():
    """isfinite is referenced by the integer and real rules, which check
    every input number, and by the noisy and mean runs, which check their
    results once each: every other check of a number calls a rule."""
    assert set().union(*(_references(path, "isfinite") for path in
                         (ROOT / "src" / "socialbayes").glob("*.py"))) == {
        ("isfinite", "schedules.py", "_integral"),
        ("isfinite", "schedules.py", "_real"),
        ("isfinite", "dynamics.py", "_run_core"),
        ("isfinite", "expected.py", "run_expected")}


def test_config_keeps_no_range_check():
    """config reads each value through the API's rule: it imports no math
    and orders no two values itself."""
    path = ROOT / "src" / "socialbayes" / "config.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _references(path, "math") == set()
    orders = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Compare) and any(
                  isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                  for op in node.ops)]
    assert orders == []


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        "_" + name, ROOT / "tools" / (name + ".py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_record_bench_refuses_byte_code(tmp_path, capsys):
    """A __pycache__ under src/ or benchmark/ of either checkout would
    spare that side the compile setup_s measures: no run starts."""
    record_bench = _tool("record_bench")
    cached = tmp_path / "change" / "benchmark" / "__pycache__"
    cached.mkdir(parents=True)
    (tmp_path / "parent" / "src").mkdir(parents=True)
    with pytest.raises(SystemExit) as stop:
        record_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                           "--out", str(tmp_path / "b.json")])
    assert stop.value.code == 2
    assert str(cached) in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_record_bench_counts_lines_by_module(tmp_path):
    """A BENCH file names each module's line count under src/."""
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "a.py").write_text("z = 3\n")
    assert _tool("record_bench").src_lines_by_module(tmp_path) == {
        "pkg/a.py": 1, "pkg/b.py": 3}


def _outputs(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_compare_outputs_names_each_difference(tmp_path):
    """Output directories equal after each file's timestamp line compare
    equal; a byte changed after it, or a file on one side only, is named."""
    compare = _tool("compare_outputs").compare_dirs
    body = "# kind: expected\nt,mean\n0,2.0\n"
    parent = _outputs(tmp_path / "parent", {
        "example/expected.csv": "# generated: 2026-01-01T00:00:00Z\n" + body,
        "example/verify.txt": "# generated: 2026-01-01T00:00:00Z\nok\n"})
    files = {"example/expected.csv": "# generated: 2026-01-02T09:30:00Z\n"
             + body, "example/verify.txt": "# generated: x\nok\n"}
    assert compare(parent, _outputs(tmp_path / "equal", files)) == []
    byte = dict(files, **{"example/expected.csv": files[
        "example/expected.csv"].replace("2.0", "2.1")})
    assert compare(parent, _outputs(tmp_path / "byte", byte)) == [
        "differs: example/expected.csv"]
    del files["example/verify.txt"]
    assert compare(parent, _outputs(tmp_path / "missing", files)) == [
        "only in parent: example/verify.txt"]


@pytest.mark.parametrize("command", ["simulate", "expected"])
def test_overflowing_cli_run_prints_no_numpy_warning(tmp_path, capfd,
                                                     command):
    """On compare_outputs' overflow config the CLI exits 2, and stderr
    ends with its one run error line: the kernels print no numpy
    RuntimeWarning about the same fault."""
    config = _tool("compare_outputs").configs(ROOT, tmp_path)["overflow"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = subprocess.run(
        [sys.executable, "-m", "socialbayes.cli", command, "--config",
         str(config), "--out", str(tmp_path / "out")],
        cwd=tmp_path, env=env, timeout=300).returncode
    err = capfd.readouterr().err
    assert code == 2
    assert "RuntimeWarning" not in err
    assert err.splitlines()[-1].startswith("run error: ")


def _benchmark_spans():
    spec = importlib.util.spec_from_file_location(
        "_benchmark_spans", ROOT / "benchmark" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_layers_resolve():
    """Every function the benchmark's --trace 1 wraps still exists."""
    spans = _benchmark_spans()
    assert spans.LAYERS
    for module, attr, _ in spans.LAYERS:
        owner = importlib.import_module("socialbayes." + module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_traced_write_hook_counts_rows(tmp_path):
    """The benchmark's write_table hook reads the call's fmt and meta and
    counts the data rows of the file written."""
    spans = _benchmark_spans()
    tracer = spans.Tracer()
    write = tracer.wrap("tables.write", socialbayes.tables.write_table,
                        spans._HOOKS["write_table"])
    times = range(7)
    write(tmp_path / "t.csv", {"kind": "x", "n": 2}, ["t", "v"],
          [list(times), [0.5 * t for t in times]])
    assert tracer.counts["tables.write.rows"] == len(times)
    assert tracer.counts["tables.write.bytes"] == \
        (tmp_path / "t.csv").stat().st_size


@pytest.mark.parametrize("script", ["demos/03_window_bounds.py",
                                    "benchmark/selftest.py"])
def test_window_check_callers_run(script):
    """The demo and the benchmark's self-test call the window checks from
    outside tests/: each must run to exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / script)], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
