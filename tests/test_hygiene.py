"""Source hygiene: no module-level import in the package goes unused, the
integer algebra module and Scalar arithmetic stay free of rational arithmetic,
failure reports are capped in one place, and numpy loads only in the array
view helper."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twistcat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [
                    args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced_names(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted forward references such as "Optional['SMatrix']"
    for ann in _annotations(tree):
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                parsed = ast.parse(const.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def test_package_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _modules_imported(tree: ast.Module) -> set[str]:
    """Every module an import statement anywhere in the tree names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
    return out


def test_integer_algebra_is_fraction_free():
    # the lattice and Smith-form code works over the integers only; rational
    # elimination belongs to scalar._gauss_jordan
    path = SRC / "algebra.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert "fractions" not in _modules_imported(tree)


def test_scalar_arithmetic_is_fraction_free():
    # Scalar stores integer numerators over one denominator; Fractions belong
    # at the boundaries (constructor, coeffs, from_rational, as_rational,
    # JSON, printing) and in _gauss_jordan's reciprocal branch
    path = SRC / "scalar.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    scalar = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "Scalar")
    functions = {f"Scalar.{node.name}": node for node in scalar.body
                 if isinstance(node, ast.FunctionDef)}
    functions.update((node.name, node) for node in tree.body
                     if isinstance(node, ast.FunctionDef))
    integer_path = ["Scalar.__add__", "Scalar.__mul__", "Scalar.__neg__",
                    "Scalar.__eq__", "Scalar.inverse", "Scalar._coerce",
                    "Scalar._num_at", "Scalar._times_root", "_poly_mul",
                    "_apply", "_reduce", "_raw", "_scalar", "_root_of_unity",
                    "_power_map", "_power_images", "_powers"]
    for name in integer_path:
        used = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert "Fraction" not in used, f"{name} uses Fraction"


def test_failure_cap_lives_in_the_accumulator():
    # every validator counts its failures through modcat.FailureLog; a sweep
    # that capped its own list would report the cap instead of the total
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        log_nodes = set()
        if path.name == "modcat.py":
            for node in tree.body:
                if isinstance(node, ast.ClassDef) and node.name == "FailureLog":
                    log_nodes = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if "MAX_FAILURES" in (getattr(node, "id", None),
                                  getattr(node, "attr", None)):
                where = f"{path.name}:{node.lineno}"
                (inside if id(node) in log_nodes else outside).append(where)
    assert inside, "modcat.FailureLog no longer holds the failure cap"
    assert not outside, f"MAX_FAILURES used outside FailureLog: {outside}"


def test_numpy_loads_only_in_the_array_view_helper():
    # the runtime works on flat int tuples; numpy is imported only when an
    # ndarray view (table, inverse, action, exponents, mult) is first read,
    # so no command pays for the import
    module_level, in_functions = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                where = (path.name, owner.get(id(node)))
                (in_functions if where[1] else module_level).append(where)
    assert not module_level, f"module-level numpy imports: {module_level}"
    assert in_functions == [("algebra.py", "_array_view")]


def _definitions_and_uses():
    """Each module-level function or class of the package, but dunders, as
    (node, module file), and every name the package references: by name, as
    an attribute or in a quoted annotation."""
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(node, path.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))]
        used |= _referenced_names(tree)
        used |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
    return defined, used


def test_no_unreferenced_private_helpers():
    # a private helper is used somewhere in the package, by name or as a
    # module attribute; a routine left behind by a rewrite shows here
    defined, used = _definitions_and_uses()
    private = [(node, where) for node, where in defined
               if node.name.startswith("_")]
    assert len(private) >= 90
    dead = [f"{where}:{node.lineno} {node.name}" for node, where in private
            if node.name not in used]
    assert not dead, f"private helpers nothing references: {dead}"


def _sites(match) -> set[tuple[str, str]]:
    """(module file, enclosing function) of every node in the package that
    ``match`` accepts."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner.setdefault(id(node), fn.name)
        for node in ast.walk(tree):
            if match(node):
                sites.add((path.name, owner.get(id(node))))
    return sites


def _callers(name: str) -> set[tuple[str, str]]:
    """(module file, enclosing function) of every call of ``name`` in the
    package, by bare name or as an attribute."""
    return _sites(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_smith_forms_of_differentials_come_from_the_cache():
    # a differential's Smith form does not depend on the twist, so outside
    # the coset enumeration of a lattice quotient and solve_mod's fallback
    # the callers of smith_normal_form are the cached factorizations
    # cohomology._diff_snf and, of normalize's subsystem, _identity_snf
    allowed = {("algebra.py", "_lattice_quotient_reps"),
               ("algebra.py", "solve_mod"),
               ("cohomology.py", "_diff_snf"),
               ("cohomology.py", "_identity_snf")}
    callers = _callers("smith_normal_form")
    assert ("cohomology.py", "_diff_snf") in callers
    assert callers <= allowed, f"uncached Smith forms: {callers - allowed}"


def test_differential_matrices_are_built_only_for_cached_results():
    # a dense differential is built only to be factored once per (group,
    # carrier, degree); the class lattice reads the cached factorizations
    callers = _callers("differential_matrix")
    assert callers == {("cohomology.py", "_diff_snf"),
                       ("cohomology.py", "_identity_snf")}


def test_matmul_is_the_one_product_routine():
    # relations the exponent tables do not decide compare built products;
    # a second caller of the entry sum would grow a second product or
    # comparison routine beside SMatrix.__matmul__
    assert _callers("_product_entry") == {("_matrix.py", "__matmul__")}


def test_root_tags_are_read_outside_scalar_only_by_the_exponent_table():
    # the exponent table is the one integer representation of root blocks;
    # another reader of a Scalar's root tag, or of its reduced angle
    # _tag_angle, outside the scalar module would grow a second copy of the
    # root-of-unity fast path
    readers = _sites(lambda node: getattr(node, "attr", None) == "_root"
                     or getattr(node, "id", None) == "_tag_angle")
    assert {site for site in readers if site[0] != "scalar.py"} == {
        ("_matrix.py", "_exponent_table")}


def test_the_product_category_has_one_home():
    # the product 3-cocycle is built with the product character only by
    # modcat.product_fusion; deligne_to_bimod compares a twist against it
    # without paying the fusion layer's omega check on G x H.  The CLI
    # neither recomputes a differential (the fusion layer checks omega) nor
    # restricts a G x H set by hand
    assert _callers("deligne_omega") == {("modcat.py", "product_fusion"),
                                         ("modcat.py", "deligne_to_bimod")}
    cli = ast.parse((SRC / "cli.py").read_text())
    imported = set(_imported_names(cli))
    assert not imported & {"differential", "product_embeddings"}


def test_only_derived_constructions_skip_the_constructors_checks():
    # algebra._assemble builds an instance without __init__; only the
    # constructions whose parts are checked already call it, and the config
    # parser, which reads unchecked input, never does
    callers = _callers("_assemble")
    assert callers == {("algebra.py", "cyclic_group"),
                       ("algebra.py", "direct_product"),
                       ("algebra.py", "point_gset"),
                       ("algebra.py", "regular_gset"),
                       ("fusion.py", "pivotal_structures"),
                       ("modcat.py", "product_fusion")}
    assert "cli.py" not in {module for module, _ in callers}


def test_orbits_have_one_home():
    # GSet.orbit_data keeps each G-set's orbits, transversals and base-point
    # stabilizers; only the isomorphism search asks for the stabilizer of a
    # candidate point, and no module outside algebra reads orbit lists
    assert _callers("stabilizer") == {("algebra.py", "gset_isomorphisms")}
    assert {module for module, _ in _callers("orbits")} <= {"algebra.py"}


def _is_click_command(node) -> bool:
    """Whether a definition is decorated as a click command or group."""
    return any(isinstance(dec, ast.Call)
               and getattr(dec.func, "attr", None) in ("command", "group")
               for dec in node.decorator_list)


def _public_names(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    return {elt.value for node in tree.body if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for elt in node.value.elts}


def test_every_definition_is_used():
    # each module-level function or class is referenced somewhere in the
    # package, exported (re-exported or loaded by __init__, or listed in its
    # module's __all__) or registered as a click command; a routine whose
    # last caller went is dead code, and a test alone does not keep it
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = set(_imported_names(init)) | {
        n.value for n in ast.walk(init)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    for path in sorted(SRC.glob("*.py")):
        exported |= _public_names(ast.parse(path.read_text()))
    defined, used = _definitions_and_uses()
    assert len(defined) >= 250
    dead = [f"{where}:{node.lineno} {node.name}" for node, where in defined
            if node.name not in used | exported
            and not _is_click_command(node)]
    assert not dead, f"definitions nothing uses: {dead}"
