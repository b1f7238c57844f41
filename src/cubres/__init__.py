"""Cubic residue symbol matrices: exact integer determinants, pattern
tables, color-coded renderings, and an exhaustive identity-verification
harness, with a small CLI on top.

The namespace is lazy (PEP 562): plain `import cubres` loads only this
module. Every public name, and each of the submodules `residues`,
`matrices`, `tables`, `wall`, `render` and `verify`, loads its home
module on first access and is then cached here, so `from cubres import *`
and `dir(cubres)` see the same names as before, and a command-line run
pays only for the modules it uses. No command loads the engine module
`cubres.determinant`; `determinant`, `determinant_oracle` and
`leading_minors` load it on first access like every other name.

The module `cubres.determinant` shares its name with the function it
exports. Importing the submodule makes the import system set the package
attribute `determinant` to the module, which would hide the function.
So this module's class is a `types.ModuleType` subclass whose
`__setattr__` swaps a module bound to `determinant` for that module's
`determinant` function: the package attribute is the function after any
import order. Any other value, such as a wrapper a tracer installs, is
kept as given. The guard goes once the engine module is renamed
(ROADMAP item 3).
"""

import importlib
import sys
import types


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        if name == "determinant" and isinstance(value, types.ModuleType):
            value = value.determinant
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

# The home module of each lazily loaded public name, in `__all__` order.
_HOME = {
    name: module
    for module, names in (
        ("residues", ("Prime", "as_prime", "is_prime", "odd_primes_up_to",
                      "cubic_residue_symbol", "cubic_residue_set", "cube_root",
                      "legendre_symbol", "primitive_root", "next_primitive_root")),
        ("matrices", ("DiffPlusC", "SumPlusC", "CubeDiffPlusOne", "EvenPowerPlusC", "Formula",
                      "family_formula", "ResidueMatrix", "entry_value", "build_matrix",
                      "matrices_equal")),
        ("determinant", ("determinant", "determinant_oracle", "leading_minors")),
        ("tables", ("FAMILIES", "DeterminantTable", "generate_table")),
        ("render", ("SignClass", "sign_classify", "ColorScheme", "DEFAULT_SCHEME", "matrix_text",
                    "emit_csv", "parse_csv", "table_text", "emit_ansi", "emit_svg")),
        ("verify", ("CLAIMS", "Counterexample", "TheoremReport", "check_propositions",
                    "check_t3_1", "check_t3_2", "check_t3_3", "check_t3_4", "check_t3_5",
                    "check_t3_6", "check_t3_7", "check_row_period_np", "check_table_period",
                    "check_remark_n1", "verify_all", "report_lines", "report_text")),
    )
    for name in names
}
_SUBMODULES = ("residues", "matrices", "tables", "wall", "render", "verify")

__version__ = "0.1.0"

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> "list[str]":
    return sorted({*globals(), *__all__})
