"""Rules on the package source that no behavioural test would notice being broken."""
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
