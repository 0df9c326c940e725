"""Golden metering identity: the kernel ledger of small fixed solves.

Every metered kernel call adds one :class:`~repro.perfmodel.costs.CostEstimate`
to a ``(label, precision)`` bucket of the solver's
:class:`~repro.perfmodel.timer.KernelTimer`.  These tests pin, for one small
solve per solver family, every bucket's call count, modelled seconds (as
``float.hex()``, i.e. bit for bit), bytes and FLOPs, plus
``calls_by_label()``.  A change to the metering path (precision lookup,
cost-model memoization, label resolution) must leave all of them
identical; a change that adds the same costs in a different order shows
up in the last bits of ``model_seconds``.

The solves run on the NumPy reference backend so that the iteration
counts, and hence the call sequences, do not depend on the backend under
test.  To regenerate the table after an *intended* change to the cost
model or the call sequence::

    PYTHONPATH=src python tests/test_metering_identity.py
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import rng, set_config
from repro.matrices import laplace2d, laplace3d
from repro.preconditioners.polynomial import GmresPolynomialPreconditioner
from repro.solvers import (
    block_gmres,
    block_gmres_ir,
    gmres,
    gmres_fd,
    gmres_ir,
    gmres_ir_three_precision,
    solve_many,
)


def _gmres_fp64_cgs2():
    A = laplace3d(8)
    return gmres(A, np.ones(A.n_rows), restart=20, tol=1e-8, ortho="cgs2")


def _gmres_fp32_mgs():
    A = laplace3d(8)
    return gmres(
        A, np.ones(A.n_rows), precision="single", restart=20, tol=1e-5, ortho="mgs"
    )


def _gmres_ir():
    A = laplace3d(8)
    return gmres_ir(A, np.ones(A.n_rows), restart=10, tol=1e-10)


def _gmres_ir_refine_every_2():
    # Two inner cycles per refinement: the inner solver restarts once from
    # its own fp32 residual (SpMV, copy, axpy, norm) in between.
    A = laplace3d(8)
    return gmres_ir(A, np.ones(A.n_rows), restart=10, tol=1e-10, refine_every=2)


def _gmres_ir_same_precision():
    # Inner and outer precision equal: every cast is a no-op and books
    # nothing.
    A = laplace3d(8)
    return gmres_ir(
        A, np.ones(A.n_rows), inner_precision="double", restart=10, tol=1e-10
    )


def _gmres_fd():
    A = laplace3d(8)
    return gmres_fd(A, np.ones(A.n_rows), switch_iteration=10, restart=20, tol=1e-10)


def _ir_three_precision():
    A = laplace2d(10)
    return gmres_ir_three_precision(A, np.ones(A.n_rows), restart=10, tol=1e-8)


def _block_gmres():
    A = laplace3d(8)
    B = rng(3).standard_normal((A.n_rows, 3))
    return block_gmres(A, B, restart=10, tol=1e-8)


def _block_gmres_ir():
    A = laplace3d(8)
    B = rng(3).standard_normal((A.n_rows, 3))
    return block_gmres_ir(A, B, restart=10, tol=1e-10)


def _block_gmres_ir_refine_every_2():
    A = laplace3d(8)
    B = rng(3).standard_normal((A.n_rows, 3))
    return block_gmres_ir(A, B, restart=10, tol=1e-10, refine_every=2)


def _solve_many_one_column_tail():
    # 3 right-hand sides in blocks of 2: the last chunk is one column wide
    # and still takes the block path (SpMM residual, not SpMV).
    A = laplace3d(8)
    B = rng(5).standard_normal((A.n_rows, 3))
    return solve_many(A, B, block_size=2, restart=10, tol=1e-8)


def _poly_gmres():
    A = laplace3d(8)
    M = GmresPolynomialPreconditioner(A, degree=5, precision="double")
    return gmres(A, np.ones(A.n_rows), restart=20, tol=1e-8, preconditioner=M)


def _poly_power_gmres():
    A = laplace3d(8)
    M = GmresPolynomialPreconditioner(
        A, degree=5, precision="double", apply_method="power"
    )
    return gmres(A, np.ones(A.n_rows), restart=20, tol=1e-8, preconditioner=M)


def _poly_block_gmres():
    A = laplace3d(8)
    M = GmresPolynomialPreconditioner(A, degree=5, precision="double")
    B = rng(3).standard_normal((A.n_rows, 3))
    return block_gmres(A, B, restart=10, tol=1e-8, preconditioner=M)


def _poly_block_gmres_ir():
    # An fp64 polynomial inside the fp32 inner solver: every batched apply
    # goes through the precision wrapper's per-column casts.
    A = laplace3d(8)
    M = GmresPolynomialPreconditioner(A, degree=5, precision="double")
    B = rng(3).standard_normal((A.n_rows, 3))
    return block_gmres_ir(A, B, restart=10, tol=1e-10, preconditioner=M)


CASES = {
    "gmres-fp64-cgs2": _gmres_fp64_cgs2,
    "gmres-fp32-mgs": _gmres_fp32_mgs,
    "gmres-ir": _gmres_ir,
    "gmres-ir-refine-every-2": _gmres_ir_refine_every_2,
    "gmres-ir-same-precision": _gmres_ir_same_precision,
    "gmres-fd": _gmres_fd,
    "ir-three-precision": _ir_three_precision,
    "block-gmres": _block_gmres,
    "block-gmres-ir": _block_gmres_ir,
    "block-gmres-ir-refine-every-2": _block_gmres_ir_refine_every_2,
    "solve-many-one-column-tail": _solve_many_one_column_tail,
    "poly-gmres": _poly_gmres,
    "poly-power-gmres": _poly_power_gmres,
    "poly-block-gmres": _poly_block_gmres,
    "poly-block-gmres-ir": _poly_block_gmres_ir,
}


def ledger(result):
    """``(records, calls_by_label)`` of a solve, in a comparable form."""
    records = {
        f"{r.label}|{r.precision}": (r.calls, r.model_seconds.hex(), r.bytes, r.flops)
        for r in result.timer.records
    }
    return records, result.timer.calls_by_label()


GOLDEN: dict = {'block-gmres': ({'GEMM (No Trans)|double': (116,
                                             '0x1.136bbf96c258dp-9',
                                             10230232.0,
                                             5565440.0),
                  'GEMM (Trans)|double': (110,
                                          '0x1.055a57eeec2cfp-9',
                                          8190880.0,
                                          5099520.0),
                  'GEMV (No Trans)|double': (220,
                                             '0x1.03ccd75b143f3p-8',
                                             3156560.0,
                                             337920.0),
                  'GEMV (Trans)|double': (220,
                                          '0x1.03bc3ea287a05p-8',
                                          2255440.0,
                                          337920.0),
                  'Norm|double': (193, '0x1.7b86461bd5e4dp-8', 790528.0, 197632.0),
                  'Other|double': (286, '0x1.0cf288ada2a7dp-9', 3663360.0, 228192.0),
                  'SpMM|double': (62, '0x1.0701de71b3be4p-11', 3933432.0, 1113600.0)},
                 {'GEMM (No Trans)': 116,
                  'GEMM (Trans)': 110,
                  'GEMV (No Trans)': 220,
                  'GEMV (Trans)': 220,
                  'Norm': 193,
                  'Other': 286,
                  'SpMM': 62}),
 'block-gmres-ir': ({'GEMM (No Trans)|single': (147,
                                                '0x1.5c15c5074fe16p-9',
                                                6663360.0,
                                                7127040.0),
                     'GEMM (Trans)|single': (140,
                                             '0x1.4bf0ef40eb021p-9',
                                             5350320.0,
                                             6533120.0),
                     'GEMV (No Trans)|single': (286,
                                                '0x1.519b7b97b5a78p-8',
                                                2029192.0,
                                                428032.0),
                     'GEMV (Trans)|single': (286,
                                             '0x1.5198752818224p-8',
                                             1443464.0,
                                             428032.0),
                     'Norm|double': (3, '0x1.798edcf539967p-14', 12288.0, 3072.0),
                     'Norm|single': (220, '0x1.b09a97e73ac4ap-8', 450560.0, 225280.0),
                     'Other|double': (214,
                                      '0x1.f6fcb1881c765p-10',
                                      3676800.0,
                                      346534.0),
                     'Other|single': (240,
                                      '0x1.f7bb1144be9e6p-10',
                                      1024000.0,
                                      133120.0),
                     'SpMM|single': (70,
                                     '0x1.2770866ab1a6cp-11',
                                     2754840.0,
                                     1280000.0)},
                    {'GEMM (No Trans)': 147,
                     'GEMM (Trans)': 140,
                     'GEMV (No Trans)': 286,
                     'GEMV (Trans)': 286,
                     'Norm': 223,
                     'Other': 454,
                     'SpMM': 70}),
 'block-gmres-ir-refine-every-2': ({'GEMM (No Trans)|single': (168,
                                                               '0x1.8dc1c6ef43a50p-9',
                                                               7328832.0,
                                                               7618560.0),
                                    'GEMM (Trans)|single': (160,
                                                            '0x1.7b4609583e9dbp-9',
                                                            5884560.0,
                                                            6983680.0),
                                    'GEMV (No Trans)|single': (308,
                                                               '0x1.6b9326bb873b2p-8',
                                                               2164448.0,
                                                               450560.0),
                                    'GEMV (Trans)|single': (308,
                                                            '0x1.6b8fa5d75800cp-8',
                                                            1533664.0,
                                                            450560.0),
                                    'Norm|double': (3,
                                                    '0x1.798edcf539967p-14',
                                                    12288.0,
                                                    3072.0),
                                    'Norm|single': (242,
                                                    '0x1.dbdd40b18d718p-8',
                                                    495616.0,
                                                    247808.0),
                                    'Other|double': (168,
                                                     '0x1.56ee629544db3p-10',
                                                     3138548.0,
                                                     267486.0),
                                    'Other|single': (286,
                                                     '0x1.2c2490043cf8cp-9',
                                                     1239040.0,
                                                     157696.0),
                                    'SpMM|single': (84,
                                                    '0x1.6280bb963c680p-11',
                                                    3268944.0,
                                                    1478400.0)},
                                   {'GEMM (No Trans)': 168,
                                    'GEMM (Trans)': 160,
                                    'GEMV (No Trans)': 308,
                                    'GEMV (Trans)': 308,
                                    'Norm': 245,
                                    'Other': 454,
                                    'SpMM': 84}),
 'gmres-fd': ({'GEMV (No Trans)|double': (52,
                                          '0x1.ec679f7fb61b8p-11',
                                          2375384.0,
                                          486400.0),
               'GEMV (No Trans)|single': (21,
                                          '0x1.8cf58883206c4p-12',
                                          332256.0,
                                          122880.0),
               'GEMV (Trans)|double': (50,
                                       '0x1.d975bbc823e38p-11',
                                       2051600.0,
                                       460800.0),
               'GEMV (Trans)|single': (20, '0x1.7a263e37d21dcp-12', 266680.0, 112640.0),
               'Norm|double': (29, '0x1.c8374afda595ap-11', 118784.0, 29696.0),
               'Norm|single': (13, '0x1.9901debeb096ap-12', 26624.0, 13312.0),
               'Other|double': (74, '0x1.cdee1176d56cep-12', 348624.0, 21149.0),
               'Other|single': (16, '0x1.0caa76f65841cp-13', 71680.0, 8704.0),
               'SpMV|double': (28, '0x1.d9dcce0c646fbp-13', 1362032.0, 179200.0),
               'SpMV|single': (12, '0x1.94afdbe3c2227p-14', 380976.0, 76800.0)},
              {'GEMV (No Trans)': 73,
               'GEMV (Trans)': 70,
               'Norm': 42,
               'Other': 90,
               'SpMV': 40}),
 'gmres-fp32-mgs': ({'GEMV (No Trans)|single': (1,
                                                '0x1.2eef24a65eb2ap-16',
                                                32824.0,
                                                14336.0),
                     'Norm|single': (122, '0x1.a8cf5fff6f59fp-9', 464896.0, 124928.0),
                     'Other|double': (15, '0x1.f7a9b5bf96b8ap-15', 13216.0, 826.0),
                     'Other|single': (125, '0x1.0670beb01ab2cp-10', 733184.0, 118272.0),
                     'SpMV|single': (16, '0x1.0dca9297d6c1ap-13', 507968.0, 102400.0)},
                    {'GEMV (No Trans)': 1, 'Norm': 122, 'Other': 140, 'SpMV': 16}),
 'gmres-fp64-cgs2': ({'GEMV (No Trans)|double': (37,
                                                 '0x1.5e6db33623770p-11',
                                                 1780544.0,
                                                 368640.0),
                      'GEMV (Trans)|double': (36,
                                              '0x1.54f30b372ed16p-11',
                                              1551024.0,
                                              350208.0),
                      'Norm|double': (21, '0x1.4a5d01569263ap-11', 86016.0, 21504.0),
                      'Other|double': (43, '0x1.196211ea50776p-12', 230496.0, 14150.0),
                      'SpMV|double': (20, '0x1.5279257690e23p-13', 972880.0, 128000.0)},
                     {'GEMV (No Trans)': 37,
                      'GEMV (Trans)': 36,
                      'Norm': 21,
                      'Other': 43,
                      'SpMV': 20}),
 'gmres-ir': ({'GEMV (No Trans)|single': (84,
                                          '0x1.8cf58883206c7p-10',
                                          1329024.0,
                                          491520.0),
               'GEMV (Trans)|single': (80,
                                       '0x1.7a263e37d21dap-10',
                                       1066720.0,
                                       450560.0),
               'Norm|double': (1, '0x1.f769269c4cc89p-16', 4096.0, 1024.0),
               'Norm|single': (44, '0x1.5a154652956bcp-10', 90112.0, 45056.0),
               'Other|double': (76, '0x1.1c8c554aee7dep-11', 491924.0, 48056.0),
               'Other|single': (48, '0x1.92fc0dd09880cp-12', 204800.0, 26624.0),
               'SpMV|single': (40, '0x1.513d373dcc725p-12', 1269920.0, 256000.0)},
              {'GEMV (No Trans)': 84,
               'GEMV (Trans)': 80,
               'Norm': 45,
               'Other': 124,
               'SpMV': 40}),
 'gmres-ir-refine-every-2': ({'GEMV (No Trans)|single': (126,
                                                         '0x1.29b8266258513p-9',
                                                         1993536.0,
                                                         737280.0),
                              'GEMV (Trans)|single': (120,
                                                      '0x1.1b9caea9dd963p-9',
                                                      1600080.0,
                                                      675840.0),
                              'Norm|double': (1,
                                              '0x1.f769269c4cc89p-16',
                                              4096.0,
                                              1024.0),
                              'Norm|single': (66,
                                              '0x1.038ff4bdf0110p-9',
                                              135168.0,
                                              67584.0),
                              'Other|double': (91,
                                               '0x1.21be0a48635d9p-11',
                                               407888.0,
                                               39444.0),
                              'Other|single': (78,
                                               '0x1.476db461b6e0cp-11',
                                               337920.0,
                                               43008.0),
                              'SpMV|single': (63,
                                              '0x1.0993684d7766dp-11',
                                              2000124.0,
                                              403200.0)},
                             {'GEMV (No Trans)': 126,
                              'GEMV (Trans)': 120,
                              'Norm': 67,
                              'Other': 169,
                              'SpMV': 63}),
 'gmres-ir-same-precision': ({'GEMV (No Trans)|double': (84,
                                                         '0x1.8d4bf8f22fd9ap-10',
                                                         2658048.0,
                                                         491520.0),
                              'GEMV (Trans)|double': (80,
                                                      '0x1.7a509375d491cp-10',
                                                      2133440.0,
                                                      450560.0),
                              'Norm|double': (45,
                                              '0x1.61f5ef25e5fcdp-10',
                                              184320.0,
                                              46080.0),
                              'Other|double': (116,
                                               '0x1.c492ed2261bd5p-11',
                                               852372.0,
                                               74680.0),
                              'SpMV|double': (40,
                                              '0x1.5279257690e24p-12',
                                              1945760.0,
                                              256000.0)},
                             {'GEMV (No Trans)': 84,
                              'GEMV (Trans)': 80,
                              'Norm': 45,
                              'Other': 116,
                              'SpMV': 40}),
 'ir-three-precision': ({'GEMV (No Trans)|half': (105,
                                                  '0x1.ef8a49ccdd46dp-10',
                                                  163200.0,
                                                  120000.0),
                         'GEMV (Trans)|half': (100,
                                               '0x1.d80a4900fc68fp-10',
                                               131100.0,
                                               110000.0),
                         'Norm|double': (1, '0x1.f755bb6e2ed9dp-16', 800.0, 200.0),
                         'Norm|half': (55, '0x1.b08ba69d014bbp-10', 11000.0, 11000.0),
                         'Norm|single': (10, '0x1.3a950c07db708p-12', 4000.0, 2000.0),
                         'Other|double': (94,
                                          '0x1.5c413a18d3408p-11',
                                          132344.0,
                                          11070.0),
                         'Other|half': (55, '0x1.cd6a0420c5b32p-12', 22000.0, 5500.0),
                         'Other|single': (35, '0x1.25a52f8316b31p-12', 28000.0, 2000.0),
                         'SpMV|half': (50, '0x1.a3ab108e1b3b4p-12', 178200.0, 46000.0),
                         'SpMV|single': (5, '0x1.4fce1746e1d2fp-15', 24420.0, 4600.0)},
                        {'GEMV (No Trans)': 105,
                         'GEMV (Trans)': 100,
                         'Norm': 66,
                         'Other': 184,
                         'SpMV': 55}),
 'poly-block-gmres': ({'GEMM (No Trans)|double': (19,
                                                  '0x1.68eaad10774f3p-12',
                                                  1690584.0,
                                                  912384.0),
                       'GEMM (Trans)|double': (18,
                                               '0x1.561f41732c9cfp-12',
                                               1333584.0,
                                               829440.0),
                       'GEMV (No Trans)|double': (40,
                                                  '0x1.79e421f8d7a04p-11',
                                                  573920.0,
                                                  61440.0),
                       'GEMV (Trans)|double': (40,
                                               '0x1.79cbfe03ae01ep-11',
                                               410080.0,
                                               61440.0),
                       'Norm|double': (39, '0x1.32c413873eca1p-10', 159744.0, 39936.0),
                       'Other|double': (155,
                                        '0x1.3c2f3d7b109c5p-10',
                                        4232112.0,
                                        317499.0),
                       'SpMM|double': (51,
                                       '0x1.b0cfa7975c484p-12',
                                       3316428.0,
                                       979200.0)},
                      {'GEMM (No Trans)': 19,
                       'GEMM (Trans)': 18,
                       'GEMV (No Trans)': 40,
                       'GEMV (Trans)': 40,
                       'Norm': 39,
                       'Other': 155,
                       'SpMM': 51}),
 'poly-block-gmres-ir': ({'GEMM (No Trans)|single': (42,
                                                     '0x1.8de2597f257d3p-11',
                                                     1999296.0,
                                                     2211840.0),
                          'GEMM (Trans)|single': (40,
                                                  '0x1.7b7a718cc9dd6p-11',
                                                  1605360.0,
                                                  2027520.0),
                          'GEMV (No Trans)|single': (88,
                                                     '0x1.9f8515efdac3ap-10',
                                                     631312.0,
                                                     135168.0),
                          'GEMV (Trans)|single': (88,
                                                  '0x1.9f81b0a12059bp-10',
                                                  451088.0,
                                                  135168.0),
                          'Norm|double': (3, '0x1.798edcf539967p-14', 12288.0, 3072.0),
                          'Norm|single': (66,
                                          '0x1.038ff4bdf0110p-9',
                                          135168.0,
                                          67584.0),
                          'Other|double': (422,
                                           '0x1.cad084329f593p-9',
                                           9884076.0,
                                           732282.0),
                          'Other|single': (72,
                                           '0x1.2e3d0a5c72604p-11',
                                           307200.0,
                                           39936.0),
                          'SpMM|double': (88,
                                          '0x1.7567dbe1f543ap-11',
                                          5722464.0,
                                          1689600.0),
                          'SpMM|single': (20,
                                          '0x1.51ad2b0868760p-13',
                                          798800.0,
                                          384000.0)},
                         {'GEMM (No Trans)': 42,
                          'GEMM (Trans)': 40,
                          'GEMV (No Trans)': 88,
                          'GEMV (Trans)': 88,
                          'Norm': 69,
                          'Other': 494,
                          'SpMM': 108}),
 'poly-gmres': ({'GEMV (No Trans)|double': (13,
                                            '0x1.eb96701a8ebffp-13',
                                            303488.0,
                                            49152.0),
                 'GEMV (Trans)|double': (12,
                                         '0x1.c5aabdaf4e587p-13',
                                         221520.0,
                                         43008.0),
                 'Norm|double': (9, '0x1.1b2b25b7eb30dp-12', 36864.0, 9216.0),
                 'Other|double': (89, '0x1.6747b0da9fa91p-11', 944672.0, 71330.0),
                 'SpMV|double': (36, '0x1.30a03b511bfecp-12', 1751184.0, 230400.0)},
                {'GEMV (No Trans)': 13,
                 'GEMV (Trans)': 12,
                 'Norm': 9,
                 'Other': 89,
                 'SpMV': 36}),
 'poly-power-gmres': ({'GEMV (No Trans)|double': (13,
                                                  '0x1.eb96701a8ebffp-13',
                                                  303488.0,
                                                  49152.0),
                       'GEMV (Trans)|double': (12,
                                               '0x1.c5aabdaf4e587p-13',
                                               221520.0,
                                               43008.0),
                       'Norm|double': (9, '0x1.1b2b25b7eb30dp-12', 36864.0, 9216.0),
                       'Other|double': (54, '0x1.a864dbebae90ap-12', 543264.0, 42658.0),
                       'SpMV|double': (36,
                                       '0x1.30a03b511bfecp-12',
                                       1751184.0,
                                       230400.0)},
                      {'GEMV (No Trans)': 13,
                       'GEMV (Trans)': 12,
                       'Norm': 9,
                       'Other': 54,
                       'SpMV': 36}),
 'solve-many-one-column-tail': ({'GEMM (No Trans)|double': (222,
                                                            '0x1.06bf7d137c66cp-8',
                                                            10169976.0,
                                                            3095552.0),
                                 'GEMM (Trans)|double': (210,
                                                         '0x1.f113ecaf15cc6p-9',
                                                         8124032.0,
                                                         2834432.0),
                                 'GEMV (No Trans)|double': (110,
                                                            '0x1.03c2ad7a1f386p-9',
                                                            1352560.0,
                                                            112640.0),
                                 'GEMV (Trans)|double': (110,
                                                         '0x1.03b0d9cab8517p-9',
                                                         902000.0,
                                                         112640.0),
                                 'Norm|double': (195,
                                                 '0x1.7f7518690e7e7p-8',
                                                 798720.0,
                                                 199680.0),
                                 'Other|double': (346,
                                                  '0x1.2e0d2bc28642bp-9',
                                                  2587168.0,
                                                  160930.0),
                                 'SpMM|double': (119,
                                                 '0x1.f7d2fed4dfa57p-11',
                                                 6247388.0,
                                                 1120000.0)},
                                {'GEMM (No Trans)': 222,
                                 'GEMM (Trans)': 210,
                                 'GEMV (No Trans)': 110,
                                 'GEMV (Trans)': 110,
                                 'Norm': 195,
                                 'Other': 346,
                                 'SpMM': 119})}


@pytest.mark.parametrize("case", sorted(CASES))
def test_metering_ledger_is_bit_identical(case):
    set_config(backend="numpy")
    records, calls = ledger(CASES[case]())
    expected_records, expected_calls = GOLDEN[case]
    assert records == expected_records
    assert calls == expected_calls


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    from pprint import pformat

    set_config(backend="numpy")
    table = {name: ledger(fn()) for name, fn in sorted(CASES.items())}
    print("GOLDEN: dict = " + pformat(table, width=88, sort_dicts=True))
