"""Frozen bits of the coefficient routes, the weighted sums against a bound.

``exact_membership_plus``, ``sufficient_condition``, ``partial_sum_bounds``,
``verify_inclusion_plus`` and ``distance`` with ``in_neighborhood`` each
compare a weighted coefficient sum with a bound.  Their reports (float.hex
margin, witness and detail) or errors are pinned on seeded inputs: operator
and class parameters with p <= 3 and beta down to 1e-13, and nonnegative
coefficients placed just below, on and above the criterion budget or the
neighborhood premise, some of them near the float range.  The first
``PINNED`` cases of each route are pinned one by one; every case of the sweep
is pinned through one sha256 per route.  A change to how the sums are formed,
guarded or compared must leave all of them in place.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from merokit.bounds import partial_sum_bounds
from merokit.membership import ClassParams, exact_membership_plus, ratio_weights, sufficient_condition
from merokit.neighborhoods import WeightSeq, distance, in_neighborhood, verify_inclusion_plus
from merokit.operator import OperatorParams, delta_star
from merokit.series import LaurentSeries, SampleGrid

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(TESTS).parent / "src")

#: cases per route in the sweep, and how many of them are pinned one by one
CASES = 400
PINNED = 10

GRID = SampleGrid((0.5, 0.9, 0.99), 16)


def _params(rng):
    p = int(rng.integers(1, 4))
    lam = float(10.0 ** rng.uniform(-3.0, 0.5)) if rng.random() < 0.95 else 0.0
    mu = lam * float(rng.uniform(0.0, 1.0)) if rng.random() < 0.7 else 0.0
    op = OperatorParams(lam, mu, int(rng.integers(0, 4)), p)
    beta = 10.0 ** rng.uniform(-13.0, 0.0) if rng.random() < 0.1 else rng.uniform(1e-3, 1.0)
    return op, ClassParams(float(rng.uniform(0.0, 1.0)), float(beta))


def _coeffs(rng, op, cp):
    """Nonnegative coefficients whose ratio-weighted sum is a seeded fraction of
    1 (the criterion budget) or of 1 - delta (the neighborhood premise); now
    and then one of them is near the float range."""
    ks = np.arange(1 - op.p, op.p + int(rng.integers(0, 10)))
    s = ratio_weights(op, cp, ks)
    target = 1.0 if rng.random() < 0.5 else 1.0 - delta_star(op)
    frac = float(rng.choice([0.3, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-13, 1.0 + 1e-9, 1.5]))
    mass = rng.dirichlet(np.ones(ks.size)) * (rng.random(ks.size) < 0.7)
    usable = s > 1e-6
    a = np.where(usable, frac * target * mass / np.where(usable, s, 1.0), 0.0)
    if rng.random() < 0.05:
        a[int(rng.integers(0, ks.size))] = 10.0 ** rng.uniform(300.0, 305.0)
    return a


def _series(op, a, exact=True):
    return LaurentSeries(op.p, len(a) - op.p, a.astype(complex), 1.0, exact)


def _bits(rep):
    w = rep.witness
    if isinstance(w, complex):
        w = (float.hex(w.real), float.hex(w.imag))
    return rep.verdict, float.hex(float(rep.worst_margin)), w, rep.detail


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _exact(rng):
    op, cp = _params(rng)
    f = _series(op, _coeffs(rng, op, cp), bool(rng.random() < 0.85))
    return _outcome(lambda: _bits(exact_membership_plus(op, cp, f)))


def _sufficient(rng):
    op, cp = _params(rng)
    a = _coeffs(rng, op, cp)
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=a.size))
    f = LaurentSeries(op.p, a.size - op.p, a * phases, 1.0, bool(rng.random() < 0.85))
    return _outcome(lambda: _bits(sufficient_condition(op, cp, f)))


def _partial_sums(rng):
    op, cp = _params(rng)
    a = _coeffs(rng, op, cp)
    a *= rng.choice((-1.0, 1.0), size=a.size)
    f = _series(op, a, bool(rng.random() < 0.9))
    m_cut = 1 - op.p + int(rng.integers(0, a.size + 2))
    return _outcome(lambda: _bits(partial_sum_bounds(op, cp, f, m_cut, GRID)))


def _plus(rng):
    op, cp = _params(rng)
    f = _series(op, _coeffs(rng, op, cp), bool(rng.random() < 0.95))
    trials, seed = int(rng.choice([0, 5, 20])), int(rng.integers(0, 100))
    return _outcome(lambda: _bits(verify_inclusion_plus(op, cp, f, trials, seed)))


def _distance(rng):
    op, cp = _params(rng)
    kind = str(rng.choice(["plus", "general"]))
    f = _series(op, _coeffs(rng, op, cp))
    g = _series(op, _coeffs(rng, op, cp))
    # every draw comes before anything that can raise, so a refused case
    # leaves the rng of the cases after it where it was
    factor = float(rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-12]))

    def both():
        seq = WeightSeq(kind, op, cp)
        d = distance(seq, f, g)
        delta = max(d * factor, 1e-300)
        return float.hex(d), float.hex(delta), in_neighborhood(seq, f, g, delta)

    return _outcome(both)


ROUTES = {
    "exact": _exact,
    "sufficient": _sufficient,
    "partial-sums": _partial_sums,
    "plus": _plus,
    "distance": _distance,
}


def sweep(route):
    """The outcome of every case of the route's seeded sweep."""
    rng = np.random.default_rng([20261019, list(ROUTES).index(route)])
    return [ROUTES[route](rng) for _ in range(CASES)]


def observed():
    """Per route, the outcome of every case of its seeded sweep."""
    return {route: sweep(route) for route in ROUTES}


def _sha(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


#: taken before the weighted sums moved into one function; since then only the
#: sharpness reports of "plus" cases 4, 152, 204, 268, 302, 311 and 377 moved: a
#: witness over the budget by less than SUM_TOL went from fails (witness -1) to
#: inconclusive (no witness), with the same margin.  Then "distance" came to draw
#: its factor before anything can raise, which alone moved its cases 351-399
#: (case 350 raised an OverflowError ahead of the draw), and the weight sequence
#: came to refuse a negative weight at k = 1 - p: 50 "plus" cases (8 among them)
#: that were inconclusive with the weight as margin, and 50 "distance" cases
#: (4 and 6 among them), are now that ValueError.  Then the 70 "plus" cases with
#: trials = 0 (2 among them), holds with margin 0.0, came to say inconclusive with
#: a NaN margin: no neighbor was sampled, so no inequality measured one.  Then the
#: 21 "plus" cases with delta = 0 (3, 19, 22, 93, 99, 112, 131, 138, 198, 210, 235,
#: 236, 238, 261, 303, 310, 328, 344, 376, 381 and 385), inconclusive with margin
#: 0.0, came to carry a NaN margin, for the same reason.  Then the plus inclusion
#: came to be decided in closed form, reading no trial count or seed: the 150 "plus"
#: cases that held (0, 6, 7 and 9 among them) hold at budget * premise_slack,
#: witnessed by k*, and the 70 with trials = 0 (2 among them) hold there too; every
#: other "plus" case kept its bits.
#: Then "sufficient" came to sum with the modulus bracket (k + p) + beta |k + p(2 alpha - 1)|
#: where k + p(2 alpha - 1) < 0, and with |a_k| from hypot: 43 cases that held (1 and 5
#: among them) are inconclusive, none went the other way, and the margins of cases 2, 3, 4,
#: 6, 7 and 9 moved (the "degenerate criterion weight" notes of 2, 3 and 9 went with the
#: signed bracket).
EXPECTED = {'distance 0': ('0x1.fa6b55faab14bp-1', '0x1.fa6b55faad419p-1', True),
 'distance 1': ('0x1.bec8628c6cfc6p-1', '0x1.bec8628c6cfc6p-1', True),
 'distance 2': ('0x1.9e6ca24e7ba9ep-3', '0x1.9e6ca24e7ba9ep-3', True),
 'distance 3': ('0x1.44112ce3d0e09p+0', '0x1.44112ce3d244fp+0', True),
 'distance 4': ('ValueError',
                'kind: the plus weight at k=-2 is -0.344583 < 0; the weighted distance is not a '
                'metric'),
 'distance 5': ('0x1.297f03144100cp+0', '0x1.297f03144247ep+0', True),
 'distance 6': ('ValueError',
                'kind: the plus weight at k=-2 is -0.435507 < 0; the weighted distance is not a '
                'metric'),
 'distance 7': ('0x1.dced29c52c526p-1', '0x1.dced29c52e5edp-1', True),
 'distance 8': ('0x1.491abad22d031p+0', '0x1.491abad22b993p+0', False),
 'distance 9': ('0x1.862468974e889p-2', '0x1.8624689750359p-2', True),
 'exact 0': ('holds',
             '0x1.2117d57ec73d8p+1',
             None,
             'degenerate criterion weight (<= 0) at k=[-1]; the sum does not constrain those '
             'coefficients; sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); the sum '
             'criterion is not equivalent to the pointwise condition there'),
 'exact 1': ('inconclusive',
             '0x1.116e012cab422p-1',
             None,
             'sub-modulus weight at k=[-1] (k + p(2 alpha - 1) < 0); the sum criterion is not '
             'equivalent to the pointwise condition there; truncation tail uncertified '
             '(exact_support is false)'),
 'exact 2': ('inconclusive',
             '-0x1.aa58d85051a2fp+1004',
             None,
             'sub-modulus weight at k=[-1, 0] (k + p(2 alpha - 1) < 0); the sum criterion is not '
             'equivalent to the pointwise condition there; truncation tail uncertified '
             '(exact_support is false)'),
 'exact 3': ('holds',
             '0x1.d3dcc8dec28b0p-3',
             None,
             'sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); the sum criterion is not '
             'equivalent to the pointwise condition there'),
 'exact 4': ('holds',
             '0x1.a329261194530p-7',
             None,
             'sum=0.026435444740365847 rhs=0.039227215282718074'),
 'exact 5': ('holds',
             '0x1.31b4581b3d314p-1',
             None,
             'degenerate criterion weight (<= 0) at k=[-1]; the sum does not constrain those '
             'coefficients; sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); the sum '
             'criterion is not equivalent to the pointwise condition there'),
 'exact 6': ('holds',
             '0x1.0bb2053d760cep-1',
             None,
             'sub-modulus weight at k=[-2] (k + p(2 alpha - 1) < 0); the sum criterion is not '
             'equivalent to the pointwise condition there'),
 'exact 7': ('holds',
             '0x1.45ae033eb8b70p-4',
             None,
             'sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); the sum criterion is not '
             'equivalent to the pointwise condition there'),
 'exact 8': ('inconclusive',
             '0x1.43862e8890e2cp-40',
             None,
             'sub-modulus weight at k=[0, 1] (k + p(2 alpha - 1) < 0); the sum criterion is not '
             'equivalent to the pointwise condition there; truncation tail uncertified '
             '(exact_support is false)'),
 'exact 9': ('inconclusive',
             '0x1.e448540ee6b2cp-4',
             None,
             'truncation tail uncertified (exact_support is false)'),
 'partial-sums 0': ('inconclusive',
                    '-0x1.0f27f12bcc380p-3',
                    None,
                    'truncation tail uncertified (exact_support is false); the weighted-sum '
                    'hypothesis cannot be established'),
 'partial-sums 1': ('holds',
                    '0x1.7d3da9003fa00p-8',
                    ('0x1.6a09e667f3bcdp-2', '0x1.6a09e667f3bccp-2'),
                    'grid=3b6464caa392 m_cut=6 theta=170.901826053'),
 'partial-sums 2': ('holds',
                    '0x1.35324e8e0bc80p-8',
                    ('-0x1.fae147ae147aep-1', '0x1.178f7bccf0930p-53'),
                    'grid=3b6464caa392 m_cut=2 theta=200.300743087'),
 'partial-sums 3': ('inconclusive',
                    '0x1.e760faa311980p-7',
                    None,
                    "monotone-weight premise fails: weight at k=0 is 0.367963 <= 1; the bounds' "
                    'derivation does not apply'),
 'partial-sums 4': ('holds',
                    '0x1.8cd9d51a92c70p-5',
                    ('-0x1.83f2fbe9d8e17p-2', '0x1.d44bca6b9b9f1p-1'),
                    'grid=3b6464caa392 m_cut=2 theta=14.0265331538'),
 'partial-sums 5': ('inconclusive',
                    '0x1.46d73e4058958p-3',
                    None,
                    "monotone-weight premise fails: weight at k=0 is 0.556302 <= 1; the bounds' "
                    'derivation does not apply'),
 'partial-sums 6': ('inconclusive',
                    '0x1.c4b747ba78c04p-1',
                    None,
                    "monotone-weight premise fails: weight at k=-2 is 0.196961 <= 1; the bounds' "
                    'derivation does not apply'),
 'partial-sums 7': ('inconclusive',
                    '-0x1.f3236e3804bb4p+1003',
                    None,
                    'hypothesis fails: weighted coefficient sum 1.6713471636646316e+302 > 1'),
 'partial-sums 8': ('holds',
                    '0x1.3547b3dc0b5c0p-5',
                    ('0x1.83f2fbe9d8e19p-2', '0x1.d44bca6b9b9f1p-1'),
                    'grid=3b6464caa392 m_cut=1 theta=20.4223906452'),
 'partial-sums 9': ('holds',
                    '0x1.91d908f338f3cp-3',
                    ('0x1.fae147ae147aep-1', '0x0.0p+0'),
                    'grid=3b6464caa392 m_cut=0 theta=3.96260987076'),
 'plus 0': ('holds',
            '0x1.4ab774422d9abp-2',
            -2,
            'closed form: every neighbor has sum s_k b_k <= premise + delta, attained by g* = f + '
            '(delta/s_k) z^k at k=-2; delta=0.075554960605882418 premise_slack=0.293; witness at '
            'delta*=0.075554960681437383 fails by 0.0832'),
 'plus 1': ('inconclusive',
            '-0x1.156ac18b01d3bp+1007',
            None,
            'base function does not certify the exact criterion (fails); inclusion hypothesis not '
            'established'),
 'plus 2': ('holds',
            '0x1.dc1f3db68a936p-1',
            -1,
            'closed form: every neighbor has sum s_k b_k <= premise + delta, attained by g* = f + '
            '(delta/s_k) z^k at k=-1; delta=0.0083161724314435737 premise_slack=0.762; witness at '
            'delta*=0.0083161724397597461 fails by 0.0101'),
 'plus 3': ('inconclusive', 'nan', None, 'degenerate radius delta = 0; nothing to verify'),
 'plus 4': ('inconclusive',
            '-0x1.ea18ea70f8000p-47',
            None,
            'sharpness witness at distance 0.00088157080387400461 passes the criterion only within '
            'its tolerance 1e-12, exceeding the budget by 1.36e-14; sharpness not established'),
 'plus 5': ('inconclusive',
            '-0x1.12860e0000000p-30',
            None,
            'premise violated: sum s_k a_k = 0.99871125307551656 > 0.99871125207680533; inclusion '
            'is not implied for this function'),
 'plus 6': ('holds',
            '0x1.48b9f1161d03dp-2',
            -2,
            'closed form: every neighbor has sum s_k b_k <= premise + delta, attained by g* = f + '
            '(delta/s_k) z^k at k=-2; delta=0.094797092631722188 premise_slack=0.671; witness at '
            'delta*=0.094797092726519289 fails by 0.0453'),
 'plus 7': ('holds',
            '0x1.2ced525d6e9efp-4',
            0,
            'closed form: every neighbor has sum s_k b_k <= premise + delta, attained by g* = f + '
            '(delta/s_k) z^k at k=0; delta=0.11587403497574753 premise_slack=0.458; witness at '
            'delta*=0.11587403509162157 fails by 0.0186'),
 'plus 8': ('ValueError',
            'kind: the plus weight at k=-2 is -0.283537 < 0; the weighted distance is not a '
            'metric'),
 'plus 9': ('holds',
            '0x1.f473844708e97p-6',
            -1,
            'closed form: every neighbor has sum s_k b_k <= premise + delta, attained by g* = f + '
            '(delta/s_k) z^k at k=-1; delta=0.079470586791311873 premise_slack=0.0314; witness at '
            'delta*=0.07947058687078247 fails by 0.0772'),
 'sufficient 0': ('holds',
                  '0x1.fa6f2aada82d8p-4',
                  None,
                  'sum=0.018303985566240015 rhs=0.14194515865459478'),
 'sufficient 1': ('inconclusive',
                  '-0x1.5289b9a17f828p-2',
                  None,
                  'sub-modulus weight at k=[-2, -1] (k + p(2 alpha - 1) < 0); summed there with '
                  'the modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 2': ('holds',
                  '0x1.d6f6a7faf799ep-1',
                  None,
                  'sub-modulus weight at k=[2] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 3': ('holds',
                  '0x1.f7bb447fb187ap-1',
                  None,
                  'sub-modulus weight at k=[0, 1] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 4': ('inconclusive',
                  '-0x1.6d506dfffaf0ap+998',
                  None,
                  'sub-modulus weight at k=[-1] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 5': ('inconclusive',
                  '-0x1.d77c8b24632c0p-7',
                  None,
                  'sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 6': ('holds',
                  '0x1.29e51d124decfp-2',
                  None,
                  'sub-modulus weight at k=[-1] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 7': ('holds',
                  '0x1.5d024be2c8652p-3',
                  None,
                  'sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|'),
 'sufficient 8': ('holds',
                  '0x1.ee9816a0786d4p-2',
                  None,
                  'tail not certified; verdict applies to the truncation'),
 'sufficient 9': ('holds',
                  '0x1.aebb47dbe7644p-2',
                  None,
                  'sub-modulus weight at k=[0] (k + p(2 alpha - 1) < 0); summed there with the '
                  'modulus bracket (k + p) + beta |k + p(2 alpha - 1)|; tail not certified; '
                  'verdict applies to the truncation')}

DIGESTS = {'distance': '9e5a85f1738985482aec2db44450033f72771f247ba036b34d08b9b365c70fb1',
 'exact': '8575fc0aa3fe8270bdc3eb949d7d6422315e8fecea61320402e953e1b27680ed',
 'partial-sums': 'b6edc88209191605e262ac6aeb3e5252c5531a41f4025706468913300f1eaac7',
 'plus': 'eaad02cfd47563f113f2e6e360c6fd91de25a0a3430a2d647e37497080343941',
 'sufficient': '9bd9b10f359c775a7725ed7c9c6488342a56295828fafd25bed6ac1429a36e10'}


@pytest.fixture(scope="module")
def observed_bits():
    return observed()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_coefficient_bits_are_frozen(observed_bits, key):
    route, i = key.rsplit(" ", 1)
    assert observed_bits[route][int(i)] == EXPECTED[key]


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_coefficient_sweep_is_frozen(observed_bits, route):
    assert _sha(observed_bits[route]) == DIGESTS[route]


def test_every_route_is_pinned():
    assert sorted(EXPECTED) == sorted(f"{r} {i}" for r in ROUTES for i in range(PINNED))


def test_sufficient_sweep_does_not_depend_on_cpu_dispatch(observed_bits):
    """The "sufficient" outcomes are the same with every CPU feature above numpy's baseline
    switched off (numpy's ``NPY_DISABLE_CPU_FEATURES``, read at import) as with them on:
    its sums take |a_k| by ``hypot``, not by numpy's complex absolute value."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    on = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    if not on:
        pytest.skip("no CPU feature above numpy's baseline is on here, so none can be switched off")
    probe = (
        "import sys\n"
        "from numpy._core._multiarray_umath import __cpu_features__\n"
        f"assert not any(__cpu_features__[name] for name in {on!r})\n"
        "import test_coefficient_bits\n"
        "sys.stdout.write(repr(test_coefficient_bits.sweep('sufficient')))\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (SRC, TESTS, os.environ.get("PYTHONPATH")))),
        "NPY_DISABLE_CPU_FEATURES": " ".join(on),
    }
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == repr(observed_bits["sufficient"])
