"""Every defaulted parameter and dataclass field of pslab, listed once, and
every error class in use.

Each option doubles the configurations a test or a benchmark has to cover,
so a new one shows up here as a one-line change to OPTIONS.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pslab
from pslab import errors

OPTIONS = {
    "asymptotics.box_counting_dimension(scale_grid)",
    "asymptotics.class_lengths(primitive_only)",
    "asymptotics.class_lengths(theta)",
    "asymptotics.count_closed_geodesics(delta_hat)",
    "asymptotics.count_closed_geodesics(n_max)",
    "asymptotics.count_closed_geodesics(primitive_only)",
    "asymptotics.count_closed_geodesics(t_values)",
    "asymptotics.count_closed_geodesics(theta)",
    "asymptotics.count_closed_geodesics(unoriented)",
    "asymptotics.hausdorff_vs_exponent_experiment(scale_grid)",
    "asymptotics.hausdorff_vs_exponent_experiment(theta)",
    "cli.build_phi(field)",
    "hilbert.shadow_measure_check(theta)",
    "matgroup.GroupPresentation.labels",
    "matgroup._BallWalk.__init__(keep_matrices)",
    "matgroup.conjugacy_classes(primitive_only)",
    "patterson.AtomicMeasure.excluded",
    "patterson._walk_ball(flag_spheres)",
    "patterson._walk_ball(theta)",
    "patterson.concavity_experiment(theta)",
    "patterson.critical_exponent(method)",
    "patterson.critical_exponent(theta)",
    "patterson.entropy_drop_experiment(theta)",
    "patterson.patterson_measure(delta_hat)",
    "patterson.patterson_measure(theta)",
    "patterson.quasi_invariance_residual(theta)",
    "presets.fuchsian_schottky(s)",
    "presets.schottky_so21(s)",
}


def _defaulted(name, function):
    return {f"{name}({p.name})" for p in inspect.signature(function).parameters.values()
            if p.default is not p.empty}


def collect_options():
    """The defaulted parameters of the functions and methods defined in pslab's
    modules, and the defaulted fields of its dataclasses (whose generated
    __init__ repeats them)."""
    found = set()
    for info in pkgutil.iter_modules(pslab.__path__):
        module = importlib.import_module(f"pslab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            qualified = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found |= _defaulted(qualified, obj)
            elif inspect.isclass(obj):
                generated = set()
                if dataclasses.is_dataclass(obj):
                    generated.add("__init__")
                    found |= {f"{qualified}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING}
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member) and attr not in generated:
                        found |= _defaulted(f"{qualified}.{attr}", member)
    return found


def test_options_are_the_listed_ones():
    found = collect_options()
    assert sorted(found - OPTIONS) == [], "new options"
    assert sorted(OPTIONS - found) == [], "options gone"


def test_every_error_class_is_raised_and_expected():
    # raised in the library and expected by a test, so no error class is
    # left behind by a failure the code cannot reach
    library = "\n".join(path.read_text(encoding="utf-8")
                        for path in Path(pslab.__file__).parent.glob("*.py")
                        if path.name != "errors.py")
    tests = "\n".join(path.read_text(encoding="utf-8")
                      for path in Path(__file__).parent.glob("test_*.py"))
    for name, cls in vars(errors).items():
        if isinstance(cls, type) and issubclass(cls, errors.PslabError) \
                and cls is not errors.PslabError:
            assert re.search(rf"raise {name}\b", library), name
            assert re.search(rf"raises\([^)]*\b{name}\b|\"{name}\"", tests), name
