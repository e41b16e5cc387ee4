"""Frozen bits of the six grid checkers and the two margin arrays.

Each report's float.hex margin, witness and detail, and a sha256 of the
``numeric_margins``/``disk_margins`` arrays, are pinned for one seeded
K = 255 Herglotz member (p = 1) and one K = 255 Schwarz member (p = 2), on a
20x512 grid and on a 3x16 grid where 256 terms fold onto 16 bins.  A change
to how the checkers evaluate their series (FFT batching, the Horner recheck,
the margin forms) must leave every one of these bits in place.

One move was deliberate: the Horner recheck (``series.polyval``) now rounds as
textbook complex arithmetic, each product (ar*xr - ai*xi, ar*xi + ai*xr) and
each sum rounded once, where numpy's complex product had been fused on CPUs
with FMA.  It moved five margins by 2 to 22 ulps (the entries so marked below),
each within 1e-15 of its 40-digit mpmath value, and no verdict, witness or
detail.  Another was the grid's r^k, now running products corrected to the
correctly rounded powers where they were numpy's ``**``: it moved six of the
margin-array digests (1 to 263 of the margins, each by at most 8.3e-13 relative;
the largest moves lie within 1.8e-15 of their 40-digit mpmath values before and
after), and no report.  A third was the subordination margin's half-angle form,
|w|^2 = (1 - rho)^2 + 4 rho sin^2(theta/2) from real exp and sin, where it had been
|1 - exp(log|v|/c + i theta)|: it moved the ``herglotz fold16 subordination``
margin by 2 ulps, 0x1.0dc80aecd47b4p-2 to 0x1.0dc80aecd47b6p-2, against its 40-digit
value 0.26345841475005765626760 (0.99 ulps below it before, 1.01 above it after), and
no other pin.

The reports of ``verify_inclusion_general`` are pinned the same way, for
three radii per member and grid: a certified ``holds``, and two past the
least eps-shift radius, where the eps-shift that the report names leaves the
class.  The checks that the tests rebuild evaluate through the same
``eval_circles``, so they cannot catch an evaluator that moves bits on both
sides; these pins can.
"""
import hashlib

import numpy as np
import pytest

from merokit.bounds import TailPolicy, convolution_nonvanishing, distortion_report, partial_sum_bounds
from merokit.generators import MeasureAtoms, SchwarzPoly, from_herglotz, from_schwarz
from merokit.membership import (
    ClassParams,
    disk_characterization,
    disk_margins,
    numeric_margins,
    numeric_membership,
    ratio_weights,
    subordination_power_target,
)
from merokit.neighborhoods import verify_inclusion_general
from merokit.operator import OperatorParams
from merokit.series import LaurentSeries, SampleGrid

K = 255

GRIDS = {
    "20x512": SampleGrid(tuple(float(r) for r in np.linspace(0.1, 0.9, 20)), 512),
    "fold16": SampleGrid((0.3, 0.6, 0.9), 16),
}


def _members():
    """(name, operator, class parameters, disk-form parameters, member) for both members."""
    rng = np.random.default_rng(20261018)
    op1 = OperatorParams(0.8, 0.2, 1, 1)  # mu > 0: both distortion sums converge
    angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
    weights = rng.dirichlet(np.ones(3))
    atoms = MeasureAtoms(tuple((complex(np.cos(t), np.sin(t)), float(w)) for t, w in zip(angles, weights)))
    herglotz = from_herglotz(op1, 0.3, atoms, K)
    op2 = OperatorParams(0.7, 0.15, 1, 2)
    cp2 = ClassParams(0.2, 0.6)
    w = rng.normal(size=3) + 1j * rng.normal(size=3)
    w *= 0.6 / float(np.sum(np.abs(w)))
    schwarz = from_schwarz(op2, cp2, SchwarzPoly(tuple(complex(c) for c in w)), K)
    return (
        ("herglotz", op1, ClassParams(0.3, 1.0), ClassParams(0.3, 0.8), herglotz),
        ("schwarz", op2, cp2, cp2, schwarz),
    )


def _ratio_member(op, f):
    """f's tail scaled to an exactly supported series whose partial-sum
    hypothesis sum is 0.5, so that the ratio check reaches the grid."""
    cp = ClassParams(0.8, 1.0)  # ratio weights > 1 and increasing at p = 1 and 2
    hyp = float(np.dot(ratio_weights(op, cp, f.k_values()), np.abs(f.coeffs)))
    return cp, LaurentSeries(f.pole_order, f.trunc_order, f.coeffs * (0.5 / hyp), 1.0, True)


def _bits(rep):
    w = rep.witness
    witness = None if w is None else (float.hex(w.real), float.hex(w.imag))
    return rep.verdict, float.hex(float(rep.worst_margin)), witness, rep.detail


def _sha(margins):
    return hashlib.sha256(np.ascontiguousarray(margins).tobytes()).hexdigest()


def observed():
    """Every pinned value, keyed by member, grid and check."""
    out = {}
    for name, op, cp, cp_disk, f in _members():
        cp_ratio, g = _ratio_member(op, f)
        for gname, grid in GRIDS.items():
            key = f"{name} {gname}"
            out[f"{key} numeric"] = _bits(numeric_membership(op, cp, f, grid))
            out[f"{key} disk"] = _bits(disk_characterization(op, cp_disk, f, grid))
            out[f"{key} subordination"] = _bits(subordination_power_target(op, cp.alpha, f, grid))
            out[f"{key} convolution"] = _bits(convolution_nonvanishing(op, cp, f, grid, 90))
            out[f"{key} convolution T=10**6"] = _bits(convolution_nonvanishing(op, cp, f, grid, 10**6))
            for which, r in (("f_general", grid.radii[-1]), ("fprime_general", grid.radii[0])):
                rep = distortion_report(op, cp, f, r, which, TailPolicy("tail_estimate"), grid.angles_count)
                out[f"{key} distortion {which}"] = _bits(rep)
            out[f"{key} partial-sums"] = _bits(partial_sum_bounds(op, cp_ratio, g, 2, grid))
            out[f"{key} numeric_margins"] = _sha(numeric_margins(op, cp, f, grid)[1])
            out[f"{key} disk_margins"] = _sha(disk_margins(op, cp_disk, f, grid)[1])
    return out


#: taken before the checkers evaluated their series as stacked rows; the
#: convolution entries since its margin is the closed-form infimum over the
#: phases, which theta_count (90, or 10**6) no longer changes; the 20x512
#: ``herglotz numeric`` and ``schwarz convolution`` margins since the Horner
#: recheck rounds as textbook complex arithmetic; ``herglotz fold16 subordination``
#: since the containment margin takes the half-angle form
EXPECTED = {'herglotz 20x512 convolution': ('holds',
                                            '0x1.7962c66738762p-3',
                                            ('0x1.3574515b20829p-1', '-0x1.556e26bc66aeap-1'),
                                            'min |value| = 0.18427 at theta=5.32644; grid=3393b8c7f592'),
            'herglotz 20x512 convolution T=10**6': ('holds',
                                                    '0x1.7962c66738762p-3',
                                                    ('0x1.3574515b20829p-1', '-0x1.556e26bc66aeap-1'),
                                                    'min |value| = 0.18427 at theta=5.32644; grid=3393b8c7f592'),
            'herglotz 20x512 disk': ('fails',
                                     '-0x1.898a6472ee462p+0',
                                     ('0x1.c054aab8401c4p-1', '-0x1.a9e2e4e57ef8cp-3'),
                                     'grid=3393b8c7f592'),
            'herglotz 20x512 disk_margins': '751ad08f0984c5ee961926c85d69e51125ec13fec15fd9df4a28a9f87d1427ca',
            'herglotz 20x512 distortion f_general': ('holds',
                                                     '0x1.6869c53bf6e3ap-1',
                                                     ('-0x1.b3bc610742e24p-1', '0x1.2bce53bd336b2p-2'),
                                                     'which=f_general r=0.9 lower=-0.111360481749 '
                                                     'upper=2.33358270397 angles=512'),
            'herglotz 20x512 distortion fprime_general': ('holds',
                                                          '0x1.c7ddcc442e000p-4',
                                                          ('-0x1.3fca3b659433ep-4', '0x1.ffe28853bbe20p-5'),
                                                          'which=fprime_general r=0.1 lower=99.8276400743 '
                                                          'upper=100.172359926 angles=512'),
            'herglotz 20x512 numeric': ('holds',
                                        '0x1.af6e45df036c8p-4',
                                        ('-0x1.5cebfd7993b7dp-1', '0x1.2cfb675e6b551p-1'),
                                        'grid=3393b8c7f592'),
            'herglotz 20x512 numeric_margins': 'd7e6135e57e2f7b9f483fb395f9c8055df224655432ff1c5ebb615a5de5c3548',
            'herglotz 20x512 partial-sums': ('holds',
                                             '0x1.e49b5729cc7c0p-7',
                                             ('0x1.a9b943a7a4bf2p-1', '0x1.60ae596039873p-2'),
                                             'grid=3393b8c7f592 m_cut=2 theta=66.08'),
            'herglotz 20x512 subordination': ('holds',
                                              '0x1.06d99fa8ec928p-2',
                                              ('0x1.b8f5467b25c78p-1', '-0x1.0b86bf6f37587p-2'),
                                              'grid=3393b8c7f592'),
            'herglotz fold16 convolution': ('holds',
                                            '0x1.79b1782f6c347p-3',
                                            ('0x1.45d5b5c3f4f6ap-1', '-0x1.45d5b5c3f4f6dp-1'),
                                            'min |value| = 0.184421 at theta=5.39938; grid=2485623efeee'),
            'herglotz fold16 convolution T=10**6': ('holds',
                                                    '0x1.79b1782f6c347p-3',
                                                    ('0x1.45d5b5c3f4f6ap-1', '-0x1.45d5b5c3f4f6dp-1'),
                                                    'min |value| = 0.184421 at theta=5.39938; grid=2485623efeee'),
            'herglotz fold16 disk': ('fails',
                                     '-0x1.4f0df0ffde894p-1',
                                     ('0x1.a9b943a7a4bf1p-1', '-0x1.60ae59603987dp-2'),
                                     'grid=2485623efeee'),
            'herglotz fold16 disk_margins': '3e3be3a90f25b722d92de664d58e899c18d6b74b522c3fa2492c4c34cb298b62',
            'herglotz fold16 distortion f_general': ('holds',
                                                     '0x1.6910ab78bdee6p-1',
                                                     ('-0x1.a9b943a7a4bf2p-1', '0x1.60ae596039875p-2'),
                                                     'which=f_general r=0.9 lower=-0.111360481749 '
                                                     'upper=2.33358270397 angles=16'),
            'herglotz fold16 distortion fprime_general': ('holds',
                                                          '0x1.c61473e564ac0p-2',
                                                          ('-0x1.b27247aff148ep-3', '0x1.b27247aff148fp-3'),
                                                          'which=fprime_general r=0.3 lower=10.594031334 '
                                                          'upper=11.6281908883 angles=16'),
            'herglotz fold16 numeric': ('holds',
                                        '0x1.b06e0562e62e8p-4',
                                        ('-0x1.45d5b5c3f4f6bp-1', '0x1.45d5b5c3f4f6cp-1'),
                                        'grid=2485623efeee'),
            'herglotz fold16 numeric_margins': '21d58f11dde877126ef1f92f7102c5d8aed66920354ca51aed5d4b000704647f',
            'herglotz fold16 partial-sums': ('holds',
                                             '0x1.e49b5729cc7c0p-7',
                                             ('0x1.a9b943a7a4bf2p-1', '0x1.60ae596039873p-2'),
                                             'grid=2485623efeee m_cut=2 theta=66.08'),
            'herglotz fold16 subordination': ('holds',
                                              '0x1.0dc80aecd47b6p-2',
                                              ('0x1.a9b943a7a4bf1p-1', '-0x1.60ae59603987dp-2'),
                                              'grid=2485623efeee'),
            'schwarz 20x512 convolution': ('holds',
                                           '0x1.081220a941df0p+0',
                                           ('-0x1.64340605fc821p-1', '0x1.245413aee9adap-1'),
                                           'min |value| = 1.03153 at theta=0.516744; grid=3393b8c7f592'),
            'schwarz 20x512 convolution T=10**6': ('holds',
                                                   '0x1.081220a941df0p+0',
                                                   ('-0x1.64340605fc821p-1', '0x1.245413aee9adap-1'),
                                                   'min |value| = 1.03153 at theta=0.516744; grid=3393b8c7f592'),
            'schwarz 20x512 disk': ('holds',
                                    '0x1.04d769d8722c0p-2',
                                    ('-0x1.884df1f100191p-1', '-0x1.e3763be752acbp-2'),
                                    'grid=3393b8c7f592'),
            'schwarz 20x512 disk_margins': '282e8b2bfcf77689b197fe04c506e88b39aa015105c6052dd89db63085b7d471',
            'schwarz 20x512 distortion f_general': ('holds',
                                                    '0x1.bebc55ab80ab8p+0',
                                                    ('-0x1.2cfb675e6b555p-1', '-0x1.5cebfd7993b7ap-1'),
                                                    'which=f_general r=0.9 lower=-0.894446694655 '
                                                    'upper=3.36358249712 angles=512'),
            'schwarz 20x512 distortion fprime_general': ('fails',
                                                         '-0x1.8352b2433b1c0p+4',
                                                         ('-0x1.1d6cb1765b96fp-5', '-0x1.7fef1e8249822p-4'),
                                                         'which=fprime_general r=0.1 lower=1998.78531025 '
                                                         'upper=2001.21468975 angles=512'),
            'schwarz 20x512 numeric': ('holds',
                                       '0x1.9753fc3555185p-2',
                                       ('-0x1.a2f1d1bd196e1p-1', '-0x1.7fc80f3e252fep-2'),
                                       'grid=3393b8c7f592'),
            'schwarz 20x512 numeric_margins': '4c32cbdde545e8c546aabbe2d54783c085b0c52a456487c5c23c914e4aa00e98',
            'schwarz 20x512 partial-sums': ('holds',
                                            '0x1.43804837c0100p-6',
                                            ('-0x1.399ef5e8e1afep-1', '0x1.519b6a24fe6f1p-1'),
                                            'grid=3393b8c7f592 m_cut=2 theta=47.7'),
            'schwarz 20x512 subordination': ('holds',
                                             '0x1.9bcf728088cd9p-1',
                                             ('-0x1.cca9456ddebbfp-1', '-0x1.69e0092130f3cp-6'),
                                             'grid=3393b8c7f592'),
            'schwarz fold16 convolution': ('holds',
                                           '0x1.08e6e0f6554e8p+0',
                                           ('-0x1.45d5b5c3f4f6bp-1', '0x1.45d5b5c3f4f6cp-1'),
                                           'min |value| = 1.03477 at theta=0.34364; grid=2485623efeee'),
            'schwarz fold16 convolution T=10**6': ('holds',
                                                   '0x1.08e6e0f6554e8p+0',
                                                   ('-0x1.45d5b5c3f4f6bp-1', '0x1.45d5b5c3f4f6cp-1'),
                                                   'min |value| = 1.03477 at theta=0.34364; grid=2485623efeee'),
            'schwarz fold16 disk': ('holds',
                                    '0x1.0b03234f24654p-2',
                                    ('-0x1.a9b943a7a4bf3p-1', '-0x1.60ae596039871p-2'),
                                    'grid=2485623efeee'),
            'schwarz fold16 disk_margins': 'df01a813d98252afb784412ce368cd30f83f916e59aa9791bca69d06a7f13444',
            'schwarz fold16 distortion f_general': ('holds',
                                                    '0x1.bf4a59bab957ep+0',
                                                    ('-0x1.45d5b5c3f4f6dp-1', '-0x1.45d5b5c3f4f6bp-1'),
                                                    'which=f_general r=0.9 lower=-0.894446694655 '
                                                    'upper=3.36358249712 angles=16'),
            'schwarz fold16 distortion fprime_general': ('fails',
                                                         '-0x1.9c8fa2af9ca00p+0',
                                                         ('-0x1.d63dcc804cb4fp-4', '-0x1.1bd0d7c5187f5p-2'),
                                                         'which=fprime_general r=0.3 lower=72.859384321 '
                                                         'upper=75.2887638272 angles=16'),
            'schwarz fold16 numeric': ('holds',
                                       '0x1.97b7f79f7a93fp-2',
                                       ('-0x1.a9b943a7a4bf3p-1', '-0x1.60ae596039871p-2'),
                                       'grid=2485623efeee'),
            'schwarz fold16 numeric_margins': '45c06a0c579851b0590490d712161ebeb39caf826615e00273b10449dcd0ec92',
            'schwarz fold16 partial-sums': ('holds',
                                            '0x1.43af4148a23e0p-6',
                                            ('-0x1.45d5b5c3f4f6bp-1', '0x1.45d5b5c3f4f6cp-1'),
                                            'grid=2485623efeee m_cut=2 theta=47.7'),
            'schwarz fold16 subordination': ('holds',
                                             '0x1.9bd42906e5f7cp-1',
                                             ('-0x1.ccccccccccccdp-1', '0x1.fc4ab28be3f40p-54'),
                                             'grid=2485623efeee')}


#: delta per member and outcome: a certified ``holds``, and two radii past eps_a*,
#: the least eps-shift radius, phase (a)'s ``inconclusive``.  The larger one is the
#: ``fails`` key: it pinned a sampled neighbor that left the class, but no delta makes
#: either member fail now.  Both are at least 2 eps_a*, so each names the eps-shift at
#: |eps| = 2 eps_a*; the Schwarz ``fails`` radius is above 1, where shifts are f + eps z^p
TRIAL_CASES = {
    "herglotz": {"holds": 0.002, "fails": 0.8, "inconclusive": 0.2},
    "schwarz": {"holds": 0.002, "fails": 3.0, "inconclusive": 0.2},
}


def observed_trials():
    """Every pinned trial report, keyed by member, grid and outcome."""
    out = {}
    for name, op, cp, _, f in _members():
        for gname, grid in GRIDS.items():
            for outcome, delta in TRIAL_CASES[name].items():
                rep = verify_inclusion_general(op, cp, f, delta, grid=grid)
                out[f"{name} {gname} trials {outcome}"] = _bits(rep)
    return out


#: the ``holds`` reports taken since the neighborhood is certified before it is
#: checked, and the 20x512 ``herglotz holds`` margin since the Horner recheck rounds
#: as textbook complex arithmetic; the details of all twelve, and the ``fails`` and
#: ``inconclusive`` margins, since phase (a) is decided by the exact eps-shift radius
#: eps_a* and a miss checks the one eps-shift that it names
TRIALS_EXPECTED = {'herglotz 20x512 trials fails': ('inconclusive',
                                                    '-0x1.8f98c99c59af0p-4',
                                                    None,
                                                    'hypothesis not established: delta is not below '
                                                    'eps_a*=0.031380617377874481, the least eps-shift '
                                                    'radius, at z=(-0.6363961030678927+0.6363961030678928j); '
                                                    'the eps-shift at '
                                                    'eps=(0.029955730591188435+0.055150945529649525j) gives '
                                                    'fails at witness '
                                                    '(-0.6285386244680755+0.6441577427554368j)'),
                   'herglotz 20x512 trials holds': ('holds',
                                                    '0x1.a9bf0f5f33dd0p-4',
                                                    ('-0x1.5cebfd7993b7dp-1', '0x1.2cfb675e6b551p-1'),
                                                    'every neighbor certified at every grid point; '
                                                    'eps-shifts hold for |eps| < 0.031380617377874481; '
                                                    'delta=0.002 grid=3393b8c7f592'),
                   'herglotz 20x512 trials inconclusive': ('inconclusive',
                                                           '-0x1.8f98c99c59af0p-4',
                                                           None,
                                                           'hypothesis not established: delta is not below '
                                                           'eps_a*=0.031380617377874481, the least eps-shift '
                                                           'radius, at '
                                                           'z=(-0.6363961030678927+0.6363961030678928j); the '
                                                           'eps-shift at '
                                                           'eps=(0.029955730591188435+0.055150945529649525j) '
                                                           'gives fails at witness '
                                                           '(-0.6285386244680755+0.6441577427554368j)'),
                   'herglotz fold16 trials fails': ('inconclusive',
                                                    '-0x1.8f7b74fc64188p-4',
                                                    None,
                                                    'hypothesis not established: delta is not below '
                                                    'eps_a*=0.031380617377874481, the least eps-shift '
                                                    'radius, at z=(-0.6363961030678927+0.6363961030678928j); '
                                                    'the eps-shift at '
                                                    'eps=(0.029955730591188435+0.055150945529649525j) gives '
                                                    'fails at witness '
                                                    '(-0.6363961030678927+0.6363961030678928j)'),
                   'herglotz fold16 trials holds': ('holds',
                                                    '0x1.aaab4cafc0f06p-4',
                                                    ('-0x1.45d5b5c3f4f6bp-1', '0x1.45d5b5c3f4f6cp-1'),
                                                    'every neighbor certified at every grid point; '
                                                    'eps-shifts hold for |eps| < 0.031380617377874481; '
                                                    'delta=0.002 grid=2485623efeee'),
                   'herglotz fold16 trials inconclusive': ('inconclusive',
                                                           '-0x1.8f7b74fc64188p-4',
                                                           None,
                                                           'hypothesis not established: delta is not below '
                                                           'eps_a*=0.031380617377874481, the least eps-shift '
                                                           'radius, at '
                                                           'z=(-0.6363961030678927+0.6363961030678928j); the '
                                                           'eps-shift at '
                                                           'eps=(0.029955730591188435+0.055150945529649525j) '
                                                           'gives fails at witness '
                                                           '(-0.6363961030678927+0.6363961030678928j)'),
                   'schwarz 20x512 trials fails': ('inconclusive',
                                                   '-0x1.90e64bb4ae0d8p+0',
                                                   None,
                                                   'hypothesis not established: delta is not below '
                                                   'eps_a*=0.078217199303673102, the least eps-shift radius, '
                                                   'at z=(-0.8993901461295146+0.03312650064722295j); the '
                                                   'eps-shift at '
                                                   'eps=(0.030927431359084507-0.1533467151822014j) (as f + '
                                                   'eps z^p: (f + eps z^p)/(1 + eps) is undefined at eps=-1) '
                                                   'gives fails at witness '
                                                   '(-0.7544022349993543+0.49079248957984173j)'),
                   'schwarz 20x512 trials holds': ('holds',
                                                   '0x1.943bb286ca661p-2',
                                                   ('-0x1.a2f1d1bd196e1p-1', '-0x1.7fc80f3e252fep-2'),
                                                   'every neighbor certified at every grid point; eps-shifts '
                                                   'hold for |eps| < 0.078217199303673102; delta=0.002 '
                                                   'grid=3393b8c7f592'),
                   'schwarz 20x512 trials inconclusive': ('inconclusive',
                                                          '-0x1.ae20cbab05fd0p-1',
                                                          None,
                                                          'hypothesis not established: delta is not below '
                                                          'eps_a*=0.078217199303673102, the least eps-shift '
                                                          'radius, at '
                                                          'z=(-0.8993901461295146+0.03312650064722295j); the '
                                                          'eps-shift at '
                                                          'eps=(0.027502082057983546-0.13636289077153974j) '
                                                          'gives fails at witness '
                                                          '(-0.7544022349993543+0.49079248957984173j)'),
                   'schwarz fold16 trials fails': ('inconclusive',
                                                   '-0x1.1f69518e0115cp+0',
                                                   None,
                                                   'hypothesis not established: delta is not below '
                                                   'eps_a*=0.078236380523499585, the least eps-shift radius, '
                                                   'at z=(-0.9+1.1021821192326179e-16j); the eps-shift at '
                                                   'eps=(0.018549154437491642-0.15536941082248262j) (as f + '
                                                   'eps z^p: (f + eps z^p)/(1 + eps) is undefined at eps=-1) '
                                                   'gives fails at witness '
                                                   '(0.3444150891285809+0.831491579260158j)'),
                   'schwarz fold16 trials holds': ('holds',
                                                   '0x1.9495183dc04d1p-2',
                                                   ('-0x1.a9b943a7a4bf3p-1', '-0x1.60ae596039871p-2'),
                                                   'every neighbor certified at every grid point; eps-shifts '
                                                   'hold for |eps| < 0.078236380523499585; delta=0.002 '
                                                   'grid=2485623efeee'),
                   'schwarz fold16 trials inconclusive': ('inconclusive',
                                                          '-0x1.feaf58a7c0ee0p-2',
                                                          None,
                                                          'hypothesis not established: delta is not below '
                                                          'eps_a*=0.078236380523499585, the least eps-shift '
                                                          'radius, at z=(-0.9+1.1021821192326179e-16j); the '
                                                          'eps-shift at '
                                                          'eps=(0.016491846753151112-0.1381372138577255j) '
                                                          'gives fails at witness '
                                                          '(0.3444150891285809+0.831491579260158j)')}


@pytest.fixture(scope="module")
def observed_bits():
    return observed()


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_grid_bits_are_frozen(observed_bits, key):
    assert observed_bits[key] == EXPECTED[key]


@pytest.mark.parametrize("key", sorted(k for k in EXPECTED if k.endswith(" convolution")))
def test_convolution_bits_do_not_depend_on_theta_count(observed_bits, key):
    assert observed_bits[f"{key} T=10**6"] == observed_bits[key]


def test_every_value_is_pinned(observed_bits, observed_trial_bits):
    assert sorted(observed_bits) == sorted(EXPECTED)
    assert sorted(observed_trial_bits) == sorted(TRIALS_EXPECTED)


@pytest.fixture(scope="module")
def observed_trial_bits():
    return observed_trials()


@pytest.mark.parametrize("key", sorted(TRIALS_EXPECTED))
def test_trial_bits_are_frozen(observed_trial_bits, key):
    assert observed_trial_bits[key] == TRIALS_EXPECTED[key]
