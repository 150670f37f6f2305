import ast
import inspect
import re
from pathlib import Path

import raysym
import raysym.cli

PUBLIC_NAMES = [
    "BasisImages",
    "CHECK_NAMES",
    "CheckResult",
    "ConformanceReport",
    "CrossTalk",
    "DEFAULT_PROBE_GRID",
    "DEFAULT_TOLERANCES",
    "DegenerateProbe",
    "DimensionMismatch",
    "ImagesNotOrthogonal",
    "IncompleteImage",
    "NotWignerLike",
    "OperatorFileError",
    "ProbeResult",
    "Ray",
    "RayMapOracle",
    "RaySymError",
    "ReconstructionResult",
    "SingularMatrix",
    "SliceDegenerate",
    "SymmetryOperator",
    "Tolerances",
    "ZeroVector",
    "check_orthogonality_preservation",
    "classify_automorphism",
    "fix_phases",
    "gauge_residual",
    "induced_map",
    "map_basis",
    "probe_automorphism",
    "random_unitary",
    "reconstruct",
    "run_full_conformance",
    "slice_coordinates",
    "verify_reproduction",
]


def test_public_surface_is_pinned():
    # Removing or adding a public name is an API change: update this list and the README with it.
    assert len(PUBLIC_NAMES) == 35
    assert sorted(raysym.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in raysym.__all__:
        assert getattr(raysym, name) is not None, name


def test_no_public_function_takes_scales():
    # Scales travel on the phase-fixed basis they were measured on, never beside it.
    functions = [getattr(raysym, name) for name in raysym.__all__]
    takers = [
        f.__name__
        for f in functions
        if inspect.isfunction(f) and "scales" in inspect.signature(f).parameters
    ]
    assert takers == []


def test_check_types_are_shared():
    assert raysym.CheckResult is raysym.oracles.CheckResult is raysym.conformance.CheckResult
    assert raysym.ConformanceReport is raysym.oracles.ConformanceReport


SOURCES = Path(raysym.__file__).parent


def parse(module):
    return ast.parse((SOURCES / module).read_text(encoding="utf-8"))


def private_imports(module):
    """(module, name) of every private name ``module`` imports from the package."""
    return [
        (node.module, alias.name)
        for node in ast.walk(parse(module))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "raysym")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_name_from_the_package():
    # The CLI drives the library through its public stages only.
    assert private_imports("cli.py") == []


def test_pipeline_modules_import_no_private_name_from_rays():
    # They ask oracles through RayMapOracle, which alone handles canonical stacks of answers.
    for module in ("reconstruction.py", "conformance.py"):
        private = [name for source, name in private_imports(module) if source.endswith("rays")]
        assert private == [], module


def test_pipeline_modules_never_name_ray():
    # They make rays as canonical stacks; canonical_rays alone decides how one row is made.
    for module in ("reconstruction.py", "conformance.py"):
        named = [
            node.lineno
            for node in ast.walk(parse(module))
            if (isinstance(node, ast.Name) and node.id == "Ray")
            or (isinstance(node, ast.Attribute) and node.attr == "Ray")
            or (isinstance(node, ast.alias) and node.name == "Ray")
        ]
        assert named == [], module


def test_only_ray_map_oracle_calls_image():
    # The library asks an oracle in one place: RayMapOracle._asked makes the only image call.
    calls = []
    for path in sorted(SOURCES.glob("*.py")):
        tree = parse(path.name)
        owner = {
            id(inner): f"{cls.name}.{method.name}"
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            for inner in ast.walk(method)
        }
        calls += [
            (path.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "image"
        ]
    assert calls == [("oracles.py", "RayMapOracle._asked")]


def test_rays_module_holds_no_oracle_code():
    # rays.py holds rays only: it names no image and subclasses no Ray.
    tree = parse("rays.py")
    named = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "image")
        or (isinstance(node, ast.Attribute) and node.attr == "image")
    ]
    subclasses = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "Ray" for base in node.bases)
    ]
    assert named == [] and subclasses == []


def test_only_rays_calls_frexp_or_ldexp():
    # The power-of-two prescale rule lives in one module: no other one calls frexp or ldexp.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCES.glob("*.py"))
        for node in ast.walk(parse(path.name))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in ("frexp", "ldexp")
    ]
    assert calls and all(where.startswith("rays.py:") for where in calls)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_has_a_reader_or_a_readme_line():
    # A public name earns its place: library code reads it, or README tells users what it is for.
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in sorted(SOURCES.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.walk(parse(path.name))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }
    readme = README.read_text(encoding="utf-8")
    unused = [name for name in raysym.__all__ if name not in read]
    assert [name for name in unused if not re.search(rf"\b{name}\b", readme)] == []


def test_every_public_class_and_function_keeps_its_docstring():
    # A dataclass without a docstring gets its signature, "Name(field: type, ...)", as __doc__.
    undocumented = [
        name
        for name in raysym.__all__
        if inspect.isclass(obj := getattr(raysym, name)) or inspect.isfunction(obj)
        if not (obj.__doc__ or "").strip() or obj.__doc__.startswith(f"{name}(")
    ]
    assert undocumented == []


def test_default_trial_counts_are_stated_once():
    args = raysym.cli._parser().parse_args(["conformance", "operator.json"])
    conformance = inspect.signature(raysym.run_full_conformance).parameters
    reproduction = inspect.signature(raysym.verify_reproduction).parameters
    assert args.trials == conformance["invariance_trials"].default
    assert reproduction["trials"].default == raysym.reconstruction.REPRODUCTION_TRIALS


def test_readme_example_runs_and_holds_its_comments():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    result, report = namespace["result"], namespace["report"]
    assert result.operator.antiunitary is True
    assert result.unitary_valid is True
    assert raysym.gauge_residual(result.operator.matrix, namespace["u"]) < 1e-12
    assert namespace["antiunitary"] is True
    assert namespace["residual"] < 1e-12
    assert report.passed is True
    assert report.entry("round-trip").passed is True
    plain, plain_result = namespace["plain"], namespace["plain_result"]
    assert plain_result.unitary_valid is True
    assert raysym.gauge_residual(plain_result.operator.matrix, namespace["u3"]) < 1e-12
    assert raysym.verify_reproduction(plain_result.operator, plain) < 1e-12
    assert raysym.check_orthogonality_preservation(plain, trials=50, seed=1).passed is True
    plain_probe = namespace["plain_probe"]
    assert max(abs(f - z) for z, f in plain_probe.values) < 1e-12
    assert max(plain_probe.additivity_residual, plain_probe.multiplicativity_residual) < 1e-12
