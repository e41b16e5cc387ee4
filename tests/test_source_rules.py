"""Rules on the package source that no behavioural test would notice being broken."""
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
