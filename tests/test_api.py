import ast
import inspect
import re
from pathlib import Path

import raysym

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
    "canonical_ray",
    "check_orthogonality_preservation",
    "classify_automorphism",
    "fix_phases",
    "gauge_residual",
    "general_induced_map",
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
    assert len(PUBLIC_NAMES) == 37
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
    # The library asks an oracle in one place: inside RayMapOracle's own methods.
    inside, outside = [], []
    for path in sorted(SOURCES.glob("*.py")):
        tree = parse(path.name)
        owner = {
            id(inner)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "RayMapOracle"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "image":
                where = f"{path.name}:{node.lineno}"
                (inside if id(node) in owner else outside).append(where)
    assert outside == []
    assert inside and all(where.startswith("oracles.py:") for where in inside)


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
