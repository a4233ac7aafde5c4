"""Every settable value of the package is one that a caller outside the tests sets.

A defaulted parameter is an option: a value a caller may set.  This test lists
the defaulted parameters of every function and method defined in each
``tandemreco`` module and compares them with the list below, so adding an
option means editing that list on purpose.  Ranges and limits that no caller
sets belong in module constants instead.
"""

import importlib
import inspect
import pkgutil

import tandemreco

SETTABLE = {
    "capacity": [
        "capacity_profile(theta)",  # cli capacity --theta, construction_a(theta)
        "capacity_profile(tol)",  # cli capacity --tol
        "x0_solve(tol)",  # capacity_profile
    ],
    "cli": ["main(argv)"],  # in-process callers
    "oracles": [
        "OracleResult.__init__(checks)",  # record field
        "OracleResult.__init__(failures)",  # record field
        "suite_bounds(samples)",  # cli oracle
        "suite_bounds(seed)",  # cli oracle
        "suite_checker(samples)",  # cli oracle, benchmark
        "suite_checker(seed)",  # cli oracle, benchmark
        "suite_cone_count(max_root_len)",  # cli oracle
        "suite_cone_count(max_t)",  # cli oracle
        "suite_distance(max_root_len)",  # cli oracle
        "suite_intersection(max_root_len)",  # cli oracle, benchmark
        "suite_intersection(max_t)",  # cli oracle
    ],
    "simplex": ["enumerate_simplex(cap)"],  # exact_max_code
    "utr": [
        "UtrCheck.__new__(detail)",  # record field
        "UtrCheck.__new__(witness)",  # record field
        "construction_a(theta)",  # cli code build --theta
    ],
}


def _defaulted(fn) -> list[str]:
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _settable(module) -> list[str]:
    found = []
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", val) for attr, val in vars(obj).items()]
        else:
            members = [(name, obj)]
        for label, fn in members:
            # staticmethod and classmethod wrap a function; functools.cache wraps one too
            fn = inspect.unwrap(getattr(fn, "__func__", fn))
            if inspect.isfunction(fn):
                found += [f"{label}({param})" for param in _defaulted(fn)]
    return sorted(found)


def test_settable_values_are_pinned():
    got = {}
    for info in pkgutil.iter_modules(tandemreco.__path__):
        found = _settable(importlib.import_module(f"tandemreco.{info.name}"))
        if found:
            got[info.name] = found
    assert got == {module: sorted(values) for module, values in SETTABLE.items()}
