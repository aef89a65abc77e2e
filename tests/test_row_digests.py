"""The bytes of every row the quadrature sums, not only the sums.

A change of per-node rounding far below half an ulp of an integral
leaves every sum, and so every report digest, as it was; these pins see
it.  Each entry is the sha256 of one row array ``quadrature._batch_sums``
receives, interior and boundary alike, at the nodes in the points'
order, in the order the rows arrive: for the ``dense_family.ini``
decomposition at doubled counts (two interior chunks) and for the ball3
suite at its plan."""

import hashlib
from collections.abc import Iterator

import numpy as np

from curvcert import config, quadrature, report, verify, zoo
from test_geometry import DENSE_INI

DENSE_ROWS = [
    "02541da34888eb4359a57628a2a3b946bc1a866a375029f0b58ca30dcbab91e8",
    "87375bbd01a1f934de1fafb2c6362874c81eb7811d077d6ec64109be11a4384d",
    "df899427516cc0bcbb66d678676ce32519754cdc0999fb30fa4b5a2ac67c5730",
    "4bd194996834fc1ce1109d795ffc98232134b5589a4fae270e84dbd889a5d1bc",
    "565989561545235963882231ea6ba7b760be400f4b422e2fbd2d51deb89d2cda",
    "8d0aa8a8b7d889aa9b60368f0c5d8d14a1e424094d5fa4a82b6950c4f057c862",
    "3b544db0f3d257c50e3fc7ca628c8d0b2213c43a20e562c9092c29be2fda0190",
    "d2da891a6dfa0ed3634838c7b8b40e11056f6896399080078f90f78ced710e19",
    "6378d0022a8ec5197ca9d360be6e821766cd761908860085815a60537fe8a59f",
    "4ae0b79fc74c3451d70281bb9198c2b30767cf31f24126758f06947baba8d5f3",
    "cfebf872571c25334a65db5a539bedaf2f967c78b00c4970538b3444ee671d9c",
    "6a9935ae00e8efefcde7df11a75f4e9a00601d9e95b159b9474a3347292b7fe2",
    "8aa70c0b992a5a7fbc85ecbc016fdcb7959cd5668c2ddd072921d76c132354aa",
    "1bc4da2c650a57383a1744d3a7dd67a10b9703f86e9469d1c16ea48a28531f2f",
    "ac1b53d3f23e2855f1551429586a2aceb630b64e8c2c5fad91e693b76578c354",
    "6b304cabc01186c6deb8813e3bfff861c9ce1c118855113f7d50d833b6493f07",
    "878b982003d76e9acbd974a9c4b7e4e45d0d187e1d09d72e6edd5a18e27448bc",
    "b1aa8422dabdb8475061daa0d8a3bfa319f8d1b0aec099693124fae4c4797dab",
    "f2039d3e7c665c850736fc77834e83001d97ad7aa4c8e7ac1f7203fc54266457",
    "50cfeb6787c42e6773ae456e086a33673ff951268bafe48caa2796e23c1f5dc6",
]

BALL3_ROWS = [
    "9e85c40a3795c4f30115dca533bf54fff842e5df2806c053488cfdb1ad0f0e9f",
    "aacb419cefae1b578ea4dc43798a724fd7b0def9ccc41f07dbd2efbcafbde871",
    "f437319d979e25fd74387f42bff958ce8f8f7ac9160f09332b041fd227f525a7",
    "a357e28a876732ede755f219124ff7b7b6de130e7bc52c73445862c7dc384f9f",
    "a0295ee77c61d29e2e0a24046ce8d8f49e5d1a19ee7374a1da40b5264fb53289",
    "e8c47304c90dad3d3664336f7ca50af12f9e87850afa723827cb159807ea8947",
    "91db0777fb259dd5c55a06bc610fcb87bfa89225e2f9f7a480422ab11b880bd0",
    "7ec51063fc1e943a5adde0c1be05b364661f6509bfc78dcfd82106fcf6cefe1e",
    "454f77c7a1cb3fd989cad891d205558ab3cb688952fc9cff54fabece88f802af",
    "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
]


def _row_digests(monkeypatch, run):
    """sha256 of the bytes of every row ``_batch_sums`` receives while
    ``run()`` runs, each at the batch's nodes as ``_batch_sums`` reads it."""
    digests = []
    batch_sums = quadrature._batch_sums

    def digest(geom, row):
        fv = np.asarray(row)
        nodes = geom.x.shape[1:]
        if fv.shape != nodes:
            fv = geom.at_nodes(fv).reshape(nodes)
        digests.append(hashlib.sha256(
            np.ascontiguousarray(fv, dtype=float).tobytes()).hexdigest())

    def recorded(F, geom, *args):
        def fn(geom):
            out = F(geom)
            if isinstance(out, Iterator):
                return (digest(geom, row) or row for row in out)
            a = np.asarray(out)
            for row in [a] if a.ndim <= 1 else a.reshape(-1, a.shape[-1]):
                digest(geom, row)
            return out

        return batch_sums(fn, geom, *args)

    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "_batch_sums", recorded)
        run()
    return digests


def test_dense_family_doubled_rows(monkeypatch):
    target = config.load_config(str(DENSE_INI))
    g = target.neumann("0.3*x + 0.2*x^2*cos(y) + (-0.25)*x*sin(y) "
                       "+ 0.35*x^2*sin(2*y)")
    hs = [target.h_field(f"1 + {a}*x^2*cos(y) + {b}*sin(2*y) + {c}*x")
          for a, b, c in (("0.2", "(-0.15)", "0.1"),
                          ("(-0.25)", "0.12", "(-0.3)"))]
    plan = target.plan
    qi = tuple(2 * c for c in plan.quad_interior)
    qb = tuple(2 * c for c in plan.quad_boundary)
    got = _row_digests(monkeypatch, lambda: verify.decomposition_batch(
        target.space, g, hs, qi, qb, plan.boundary_counts))
    assert got == DENSE_ROWS


def test_ball3_suite_rows(monkeypatch):
    got = _row_digests(monkeypatch,
                       lambda: report.run_suite(zoo.load("ball3")))
    assert got == BALL3_ROWS
