"""The supported API that README's "Library" section names, by module, and
the package root that re-exports none of it."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import ikedalift

README = Path(__file__).resolve().parent.parent / "README.md"

# the section, up to the next heading, and in it one bullet per module:
# "- `ikedalift.MODULE`: ..." up to the next bullet or a blank line
SECTION = re.compile(r"^## Library\n(.*?)^## ", re.M | re.S)
BULLET = re.compile(r"^- `(ikedalift\.\w+)`: (.*?)(?=\n- |\n\n|\Z)", re.M | re.S)

# the names that the section may not drop
REQUIRED = {
    "ikedalift.ikeda": {
        "IkedaParams",
        "verify_prime",
        "EigenvalueReport",
        "eigenvalue_double_sum",
        "eigenvalue_product",
        "eigenvalue_reciprocal",
        "eigenvalue_bounds",
        "q_binomial",
        "q_binomial_eval",
        "RouteDisagreementError",
        "ExponentIntegralityError",
        "BoundIdentityError",
    },
    "ikedalift.modforms": {
        "eigenform",
        "load_eigenform",
        "FourierSeries",
        "BUILTIN_WEIGHTS",
        "hecke_eigenvalue_prime",
        "UnsupportedWeightError",
        "EigenformValidationError",
        "DeligneBoundError",
        "TableParseError",
    },
    "ikedalift.exactnum": {"QuadExt", "RadicandMismatchError"},
}


def library() -> dict[str, list[str]]:
    """Each module of README's Library section, with the names listed under it."""
    section = SECTION.search(README.read_text(encoding="utf-8")).group(1)
    return {module: re.findall(r"`(\w+)`", names) for module, names in BULLET.findall(section)}


def test_each_listed_name_is_defined_in_its_module():
    for module, names in library().items():
        owner = importlib.import_module(module)
        for name in names:
            assert hasattr(owner, name), f"{module}.{name}"
            # a class or function listed here is defined here, not imported
            assert getattr(getattr(owner, name), "__module__", module) == module, name


def test_the_section_lists_the_required_names():
    listed = library()
    for module, names in REQUIRED.items():
        assert names <= set(listed[module]), names - set(listed[module])


def test_the_root_holds_no_public_name_but_backend():
    public = {
        name
        for name, value in vars(ikedalift).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == {"BACKEND"}
    assert ikedalift.__version__ == "0.1.0"
