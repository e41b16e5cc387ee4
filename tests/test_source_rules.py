"""Rules on the package source that no behavioural test would notice being broken."""
import ast
import inspect
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "merokit"

#: a random number generator: numpy's, by module or by its default_rng, or the standard library's
SAMPLER = re.compile(r"np\.random|numpy\.random|default_rng|^\s*(?:import|from)\s+random\b", re.MULTILINE)


def test_no_random_numbers_in_the_package():
    """Every verdict is certified or rests on constructed perturbations, so it is
    reproducible without a seed: no module of the package draws random numbers."""
    files = sorted(SRC.glob("*.py"))
    assert files
    assert [path.name for path in files if SAMPLER.search(path.read_text())] == []


#: a power function: Python's operator or numpy's ufunc
POWER = re.compile(r"\*\*|np\.power|numpy\.power")


def test_grid_powers_are_running_products():
    """``eval_circles`` forms its r^k as running products (``_radius_powers`` and its
    helpers), and ``vanishes`` its |z|^-p, whose bits do not depend on the CPU features numpy
    dispatches to, as its float ``power`` does: none of these functions calls a power
    function."""
    from merokit import membership, series

    functions = (series.eval_circles, series.SampleGrid.powers, series._radius_powers, series._product_error,
                 series._split, membership.vanishes)
    for function in functions:
        assert POWER.findall(inspect.getsource(function)) == [], function.__name__


def _callers(name):
    """The functions of the package outside ``series`` that call ``name``, as module.function
    (module.<module> for a call outside any function)."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "series.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner.setdefault(inner, node.name)  # outermost first: nested calls count for it
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                    callers.add(f"{path.stem}.{owner.get(node, '<module>')}")
    return callers


def test_grid_values_come_from_one_function():
    """Every grid check reduces its margins through one FFT half: ``eval_circles`` is
    called from exactly one function outside ``series``."""
    assert _callers("eval_circles") == {"membership._grid_margins"}
