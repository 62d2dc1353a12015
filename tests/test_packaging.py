"""Packaging guards: the library runs on numpy alone, the CLI only formats,
and the benchmark's entry points run."""

import ast
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_library_does_not_import_scipy():
    sources = sorted((ROOT / "src" / "halfq").rglob("*.py"))
    assert sources
    offenders = [p.name for p in sources if "scipy" in _imported_roots(p)]
    assert offenders == []


@pytest.mark.parametrize("module", ["algebra.py", "grammar.py"])
def test_exact_layer_imports_no_float_libraries(module):
    roots = _imported_roots(ROOT / "src" / "halfq" / module)
    assert roots.isdisjoint({"numpy", "scipy"})


def test_numeric_layers_import_no_parser():
    # symbols reach the numeric layers as Symbols; only the config loader,
    # the CLI and printing read text
    for module in ("hilbert.py", "bounds.py", "classicality.py"):
        tree = ast.parse((ROOT / "src" / "halfq" / module).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
                names.update(alias.name for alias in node.names)
        assert not any("grammar" in name.split(".") for name in names), module


def test_scipy_is_a_test_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    extras = project["optional-dependencies"]
    holders = [name for name, deps in extras.items() if any(d.startswith("scipy") for d in deps)]
    assert holders == ["test"]


def test_cli_reaches_the_numerics_through_experiment_only():
    tree = ast.parse((ROOT / "src" / "halfq" / "cli.py").read_text(encoding="utf-8"))
    layers = {"bounds", "hilbert", "classicality"}
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(alias.name, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "", alias.name) for alias in node.names]
        else:
            continue
        offenders += [
            (module, name)
            for module, name in names
            if layers & set(module.split(".")) or name in layers or name.startswith("_")
        ]
    assert offenders == []


def test_one_spectral_measure():
    # interval probabilities are read through hilbert.spectral_masses and
    # hilbert.interval_mass; bounds alone imports interval_mask, for the
    # leakage window centres, so no module grows its own masked sum
    importers = []
    for path in sorted((ROOT / "src" / "halfq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                if "interval_mask" in names:
                    importers.append(path.name)
            elif isinstance(node, ast.FunctionDef) and node.name == "interval_probability":
                importers.append(f"{path.name} defines interval_probability")
            elif isinstance(node, ast.Name) and node.id == "interval_probability":
                importers.append(f"{path.name} uses interval_probability")
    assert importers == ["bounds.py"]


def test_one_weyl_table():
    # every reordering is one closed-form table (algebra._weyl_terms): the
    # Weyl correspondence read by weyl_quantize and unquantize, and normal
    # ordering read by _normal_words without recursion; no map enumerates
    # orderings or keeps a table of its own, and the product, the
    # derivative, the embedding and the i*hbar scalings loop only through
    # the shared accumulators
    offenders = []
    tree = ast.parse((ROOT / "src" / "halfq" / "algebra.py").read_text(encoding="utf-8"))
    banned = ("_WEYL_CACHE", "_UNQ_CACHE", "_NORMAL_CACHE", "_BRACKET_CACHE", "_weyl_products")
    accumulated = ("__mul__", "partial_derivative", "embed", "mul_ihbar", "div_ihbar")
    functions = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "permutations" in {alias.name for alias in node.names}:
                offenders.append("imports permutations")
        elif isinstance(node, ast.Name) and node.id in banned:
            offenders.append(f"names {node.id}")
        elif isinstance(node, ast.FunctionDef):
            functions.add(node.name)
            inner = list(ast.walk(node))
            if node.name in banned:
                offenders.append(f"defines {node.name}")
            if node.name == "_normal_words":
                names = {n.id for n in inner if isinstance(n, ast.Name)}
                if "_normal_words" in names:
                    offenders.append("_normal_words calls itself")
                if "_weyl_terms" not in names:
                    offenders.append("_normal_words does not read _weyl_terms")
            if node.name in accumulated and any(
                isinstance(n, (ast.For, ast.comprehension)) for n in inner
            ):
                offenders.append(f"{node.name} loops")
    assert offenders == []
    assert functions >= {"_normal_words", *accumulated}


def test_one_binding_rule_for_constants():
    # a constant or a time becomes a number in one place: the exact layer
    # rounds it once (experiment._exact), and the numeric layers receive
    # expressions whose constants are already substituted
    sources = sorted((ROOT / "src" / "halfq").glob("*.py"))
    uses = sum(p.read_text(encoding="utf-8").count("limit_denominator") for p in sources)
    assert uses == 1
    for module in ("hilbert.py", "bounds.py", "classicality.py"):
        tree = ast.parse((ROOT / "src" / "halfq" / module).read_text(encoding="utf-8"))
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "substitute_constants"
        ]
        assert calls == [], module

def _run_worker(tmp_path, workload: str, smoke: bool, *flags: str) -> dict:
    """One benchmark job on the workload's seed-0 input, through its worker
    in a subprocess; the benchmark modules are loaded and run by path, as
    they are."""
    bench = ROOT / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(workloads.make_input(workload, 0, smoke=smoke)), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(bench / "worker.py"), "--root", str(ROOT),
         "--workload", workload, "--input", str(path), *flags],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["symbolic", "predict-2p1", "oracle-deep"])
def test_benchmark_worker_runs_clean(tmp_path, workload):
    # the benchmark's entry points keep working: each workload's smoke input
    # runs through its worker with no failed operation
    result = _run_worker(tmp_path, workload, True)
    assert result["failed"] == 0, result["errors"]


@pytest.mark.parametrize("workload", ["oracle-deep", "predict-2p1"])
def test_benchmark_reference_rows_match(tmp_path, workload):
    # the full-size seed-0 job reproduces the benchmark's stored reference
    # rows (sandwich, leakage and discrepancy values, or bounds)
    result = _run_worker(tmp_path, workload, False, "--compare-reference")
    assert result["failed"] == 0, result["errors"]


@pytest.mark.parametrize("run, r", [("example-32-shallow", 1), ("mixing-32-deep", 32)])
def test_bench_verify_samples_a_run(run, r):
    # bench/verify.py samples one run in a fresh process and reads r and the
    # Chebyshev terms off the oracle's propagation note
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "verify.py"), "--sample", run,
         "--src", str(ROOT / "src")],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    sample = json.loads(done.stdout.splitlines()[-1])
    assert (sample["status"], sample["r"]) == ("pass", r)
    assert type(sample["chebyshev_terms"]) is int


def test_bench_compare_outputs_finds_a_checkout_identical_to_itself(monkeypatch, capsys):
    # bench/compare_outputs.py --parent . on its 32x32 deep verify and its
    # jacobi-demo, a run with no config: this checkout against itself reads
    # identical in stdout, stderr and exit code
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script adds perfbench/
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "bench" / "compare_outputs.py"
    )
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    runs = {name: compare_outputs.RUNS[name] for name in ("example-32-deep", "jacobi-demo")}
    monkeypatch.setattr(compare_outputs, "RUNS", runs)
    monkeypatch.setattr(sys, "argv", ["compare_outputs.py", "--parent", "."])
    monkeypatch.chdir(ROOT)
    assert compare_outputs.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{name} {output}: identical"
        for name in runs for output in ("stdout", "stderr", "exit")
    ]


def _tree(module: str) -> ast.Module:
    return ast.parse((ROOT / "src" / "halfq" / module).read_text(encoding="utf-8"))


def test_certificate_sequences_are_symbol_tuples():
    # classicality_sequences and compose_sequences hand plain tuples of
    # Symbols to certify; no wrapper class or one-line norm helper returns
    defined = {
        node.name
        for node in ast.walk(_tree("classicality.py"))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    assert defined.isdisjoint({"SequenceSpec", "error_ket_norm_sq"})


def test_cli_writes_csv_in_one_place():
    # every table reaches stdout or an --out file through cli._emit
    outside = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and child.id == "csv" and function != "_emit":
                outside.append(f"line {child.lineno} in {function}")
            visit(child, function)

    visit(_tree("cli.py"), None)
    assert outside == []


def test_prediction_bounds_takes_the_centre_and_multiplier():
    # the width rule lives in prediction_bounds: it builds I0 from a0 and
    # the multiplier instead of recovering them from a caller's interval
    from halfq.bounds import prediction_bounds

    params = list(inspect.signature(prediction_bounds).parameters)
    assert params == ["eigenvalues", "masses", "cfg", "a0", "width_multiplier", "margin"]


def test_sweep_rows_are_prediction_bounds():
    from halfq.bounds import PredictionBound
    from halfq.experiment import build_example, hybrid_solutions, sandwich_sweep

    cfg = build_example(npoints=32, extent=8.0, times=(0.0, 0.8))
    rows, branches = 0, set()
    for point, _, _ in sandwich_sweep(cfg, hybrid_solutions(cfg), cfg.levels):
        keys = [(pb.L, pb.p, pb.width_multiplier) for pb in point.rows]
        assert keys == [
            (L, p, mult)
            for L in cfg.levels
            for p in cfg.probabilities
            for mult in cfg.sweep.width_multipliers
        ]
        for pb in point.rows:
            assert type(pb) is PredictionBound
            assert pb.a0 == point.rows[0].a0
            width = pb.width_multiplier
            assert pb.D == (width * pb.Delta_L if pb.Delta_L > 0 else width)
            assert pb.I0 == (pb.a0 - pb.D, pb.a0 + pb.D)
            branches.add(pb.Delta_L > 0)
            rows += 1
    # both branches of the width rule are exercised (P1 carries no margin)
    assert rows == 96 and branches == {True, False}


def test_sweep_points_hold_only_what_their_judges_read(tmp_path, monkeypatch, capsys):
    # a point keeps the five fields its readers use; B's spectrum and
    # phi^Q's projections travel beside it out of the sweep, and no module
    # reads them, or a0, off a point
    import dataclasses

    from halfq.cli import main
    from halfq.experiment import SandwichPoint, build_example, run_verification

    fields = [field.name for field in dataclasses.fields(SandwichPoint)]
    assert fields == ["observable", "t", "expr", "margins", "rows"]
    reads = [
        f"{path.name}:{node.lineno} reads point.{node.attr}"
        for path in sorted((ROOT / "src" / "halfq").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in {"decomp", "amplitudes", "a0"}
        and isinstance(node.value, ast.Name) and node.value.id == "point"
    ]
    assert reads == []
    # SandwichPoint.key is the one builder of a row's (observable, t): every
    # row of the three judges and of cmd_bounds carries what it returns
    monkeypatch.setattr(SandwichPoint, "key", lambda point: {"observable": "key", "t": -1.0})
    cfg = build_example(npoints=32, extent=8.0, times=(0.0, 0.8))
    report = run_verification(cfg, deep=True)
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json(), encoding="utf-8")
    assert main(["bounds", "--json", "--config", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)["rows"]
    judged = [report.rows, report.leakage_rows, report.discrepancy_rows, printed]
    assert all(rows for rows in judged)
    keys = {(row["observable"], row["t"]) for rows in judged for row in rows}
    assert keys == {("key", -1.0)}


def test_grids_travel_in_dof_order():
    # compile_expression takes the grids as a sequence in DOF order, as
    # State.grids and CompiledOperator.grids hold them; no module builds a
    # 1-based grid map
    from halfq.hilbert import compile_expression

    offenders = []
    for path in sorted((ROOT / "src" / "halfq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "dict"
                and any(getattr(getattr(arg, "func", None), "id", None) == "enumerate"
                        for arg in node.args)
            ):
                offenders.append(f"{path.name}:{node.lineno} dict(enumerate(...))")
            elif isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and type(key.value) is int for key in node.keys
            ):
                offenders.append(f"{path.name}:{node.lineno} int-keyed dict")
            elif (
                isinstance(node, ast.DictComp)
                and isinstance(node.key, ast.BinOp)
                and isinstance(node.key.op, ast.Add)
            ):
                offenders.append(f"{path.name}:{node.lineno} keys shifted up")
    assert offenders == []
    params = list(inspect.signature(compile_expression).parameters)
    assert params == ["expr", "classical_values", "grids", "hbar", "fourier"]


def test_batch_kernels_take_arrays():
    # SpectralDecomp.amplitudes, spectral_masses and evolve_full_quantum
    # take and return arrays; none of them names State
    kernels = {"amplitudes", "spectral_masses", "evolve_full_quantum"}
    seen, offenders = set(), []
    for node in ast.walk(_tree("hilbert.py")):
        if isinstance(node, ast.FunctionDef) and node.name in kernels:
            seen.add(node.name)
            offenders += [
                f"{node.name}:{inner.lineno}"
                for inner in ast.walk(node)
                if isinstance(inner, ast.Name) and inner.id == "State"
            ]
    assert seen == kernels
    assert offenders == []


def test_propagator_changes_no_basis():
    # evolve_full_quantum and its unitarity guard work in H's basis as
    # given; the oracle alone takes states to that basis and back
    tree = _tree("hilbert.py")
    transforms = {"fft", "fftn", "ifftn", "_fourier_basis"}
    named = {
        name: sorted({
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(_function(tree, name))
            if isinstance(node, (ast.Name, ast.Attribute))
        } & transforms)
        for name in ("evolve_full_quantum", "_block_grams")
    }
    assert named == {"evolve_full_quantum": [], "_block_grams": []}


def _function(tree: ast.Module, name: str):
    return next(
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
    )


def test_config_keeps_what_the_loader_parsed():
    # the loader's Symbols and parsed Hamiltonian stay on the config; no
    # method parses them again
    config = _function(_tree("experiment.py"), "SystemConfig")
    methods = {node.name for node in config.body if isinstance(node, ast.FunctionDef)}
    assert methods.isdisjoint({"observable_symbol", "parse_hamiltonian", "classical_system"})


def test_hybrid_solutions_are_keyed_by_symbol():
    # one enumeration of the fundamental symbols, no f-string names
    body = _function(_tree("experiment.py"), "hybrid_solutions")
    assert not any(isinstance(node, ast.JoinedStr) for node in ast.walk(body))


def test_one_realization_of_h_per_propagation():
    # H becomes numbers once, in compile_expression, in its propagation
    # basis; hilbert._chebyshev_interval reads the spectral interval off
    # that operator and pure-power extremes off _axis_factor.  No second
    # realization bounds the spectrum or rebuilds H for the propagator
    offenders = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                if child.name in ("spectral_interval", "_chebyshev_operator"):
                    offenders.append(f"{path.name} defines {child.name}")
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "spectral_interval":
                offenders.append(f"{path.name}:{child.lineno} reads spectral_interval")
            elif (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "_axis_factor"
                and function not in ("compile_expression", "_chebyshev_interval", "_axis_factor")
            ):
                offenders.append(f"{path.name}:{child.lineno} _axis_factor in {function}")
            visit(child, function)

    for path in sorted((ROOT / "src" / "halfq").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert offenders == []


def test_fourier_axes_take_an_expression():
    # the propagation basis is voted on the exact words, before H is compiled
    (arg,) = _function(_tree("hilbert.py"), "fourier_axes").args.args
    assert getattr(arg.annotation, "id", None) == "HybridExpression"


def test_compiled_operator_layout():
    # one diagonal array, then the terms with a dense factor, and the basis
    import dataclasses

    from halfq.hilbert import CompiledOperator

    fields = [f.name for f in dataclasses.fields(CompiledOperator)]
    assert fields == ["diagonal", "terms", "grids", "hbar", "fourier"]


def test_no_discrepancy_of_operators_applied_apart():
    # the discrepancy is the weight of the exact difference A(t) - B; no
    # function applies A and B apart through a transposed sector product
    offenders = []
    for path in sorted((ROOT / "src" / "halfq").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                if node.name == "operator_discrepancy":
                    offenders.append(f"{path.name} defines operator_discrepancy")
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if any(arg.arg == "classical_dim" for arg in args):
                    offenders.append(f"{path.name}:{node.name} takes classical_dim")
    assert offenders == []


def test_bounds_applies_operators_in_one_weight_function():
    # every margin weight and every discrepancy is one chain in power_weights
    appliers = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr == "apply":
                appliers.add(function)
            visit(child, function)

    visit(_tree("bounds.py"), None)
    assert appliers == {"power_weights"}


def test_discrepancy_verdict_has_no_absolute_allowance():
    # the verdict lhs <= rhs * (1 + slack) adds no number to rhs
    def mentions_rhs(node):
        return any(isinstance(n, ast.Name) and n.id == "rhs" for n in ast.walk(node))

    verdicts = [
        node for node in ast.walk(_tree("experiment.py"))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name) and node.left.id == "lhs"
    ]
    assert len(verdicts) == 1
    literal_sums = [
        node for node in ast.walk(verdicts[0])
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
        and any(
            isinstance(side, ast.Constant) and isinstance(side.value, (int, float))
            and mentions_rhs(other)
            for side, other in ((node.left, node.right), (node.right, node.left))
        )
    ]
    assert literal_sums == []


def test_oracle_owns_the_layout_and_its_stages_stay_short():
    # block_axes, the QR basis and the blocked/unblocked transforms appear
    # in experiment.py only inside Oracle; the driver, every Oracle method
    # and the three row judges each stay within 60 lines
    tree = _tree("experiment.py")
    defined = {
        node.name: node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
    }
    oracle = defined.get("Oracle", ast.ClassDef(name="Oracle", body=[]))
    inside = {id(node) for node in ast.walk(oracle)}
    layout = {"block_axes", "qr", "fftn", "ifftn", "moveaxis", "_blocked", "_unblocked"}
    outside = [
        f"{name} at line {node.lineno}"
        for node in ast.walk(tree)
        if id(node) not in inside and isinstance(node, (ast.Name, ast.Attribute))
        for name in [node.id if isinstance(node, ast.Name) else node.attr]
        if name in layout
    ]
    assert outside == []
    driver = ["run_verification", "sandwich_rows", "leakage_rows", "discrepancy_rows"]
    stages = [defined[name] for name in driver]
    stages += [node for node in oracle.body if isinstance(node, ast.FunctionDef)]
    lengths = {node.name: node.end_lineno - node.lineno + 1 for node in stages}
    assert {name: n for name, n in lengths.items() if n > 60} == {}
    # psi0, A(t) and A(t) - B on the full grid are the Oracle's: the driver
    # and the row judges realize no state or operator
    realizers = {"tensor", "compile_expression", "power_weights", "embed", "classical_factor"}
    calls = [
        f"{name} calls {callee}"
        for name in driver
        for node in ast.walk(defined[name]) if isinstance(node, ast.Call)
        for callee in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if callee in realizers
    ]
    assert calls == []
    # measurement reads tables of the propagated columns W_t: the one
    # product of propagated and coordinates, W_t x, is the edge guard's
    # readout of each later psi_t in H's basis, in Oracle.__init__
    products = sorted(
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function) if _product_of(node, {"propagated", "coordinates"})
    )
    assert products == ["__init__"]


def _product_of(node: ast.AST, names: set) -> bool:
    """Whether ``node`` is a product (``@``, ``*`` or a matmul, einsum, dot
    or tensordot call) whose operands mention every name in ``names``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.MatMult, ast.Mult)):
        operands = [node.left, node.right]
    elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
        func = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        if func not in {"matmul", "einsum", "dot", "tensordot"}:
            return False
        operands = node.args
    else:
        return False
    mentioned = {
        inner.id if isinstance(inner, ast.Name) else inner.attr
        for operand in operands for inner in ast.walk(operand)
        if isinstance(inner, (ast.Name, ast.Attribute))
    }
    return names <= mentioned
