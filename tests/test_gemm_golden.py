"""Pinned bytes of single-blade gemm results at the serve sizes.

The serve stream issues gemm calls of order 16 to 128 with the default
``k`` and ``m``.  These tests pin the sha256 of the result matrix
bytes and of the performance report of ``api.gemm`` at each of those
sizes, plus two rectangular shapes that need zero padding, so a change
to the kernel's accumulation order or its cycle and traffic accounting
fails here even where a tolerance-based check would pass.

The digests must only change with an intended change of behavior;
regenerate them with ``python tests/test_gemm_golden.py``.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.blas import api

#: (p, q, r) -> (sha256 of ``value.tobytes()``, sha256 of the report
#: JSON) for a p×q · q×r product.
GOLDEN = {
    (16, 16, 16): (
        "80f203856838ae5ed2635c40c2964a2ac4e3dfc24ec374c349df55a3f2f4ada5",
        "e7dff4cc41c3a09ea40ec75999c35ec95bcd32f0417672bdd5ac0cb75ede6c65"),
    (24, 24, 24): (
        "8de0e657e43712c354138bb97bdd1cfff3c6cd1aeb6b05dcd1a0b16544f6b319",
        "b4297e722e74a279fd5368eaa222a1055fc54d375fa6ede19528f854221307df"),
    (32, 32, 32): (
        "005a07ffd950b875f38d1f6ece96219124b88b08915c2764b86dced729962913",
        "7009c1196a0af7b7b4fa1db24ccef0cb7f28e500a396486c2f1f5b9ca431f147"),
    (48, 48, 48): (
        "f998ac8a3b7add2672cbc650606fe55c5fa47e974dd67eb23840ea8d56b35444",
        "259e9b6c0f22debc468cfbe769182154cc2d5fe4c3d8b4985d0f673af8122100"),
    (64, 64, 64): (
        "691d115de8227d2608e4d5c67848ce64926c2b0ced32b28aa7e61fb7275973fc",
        "fdf0a08234576ac2dba4a3452dbff0801f5887fc362c0089a164b8f58ad996cf"),
    (96, 96, 96): (
        "38642e38418af9078512adb315825e5ffb3e2f852caed6896233784c6c75fadb",
        "c2c308ebf1cfc805be74301901bab8a048e857563dabc0a1100511ab3dd0e3d4"),
    (128, 128, 128): (
        "8b350c84341a97d1c42ba4fbdda2b6e7854c76ce07b9877f225db3508ada1dc2",
        "7e61e5a46326e66931f060e8c203333782c32d60aac9314f6ed7ac5a4d0555d7"),
    (20, 36, 12): (
        "37f68876448ba81d2823c1302c2fbff42df7a762f31390e2ab97d018aed6b8ff",
        "11e67c9b90297ddbc9b26c1301dd6acda96eb3628b46918a349c558da78341fc"),
    (100, 7, 50): (
        "1112341bf47b85476da36a7ff0c93445a4fb2d951de8129eafee71e5a19d06ef",
        "25cfda96d6723daab472518b4e97b9c82e9d36dc01b10afffb765cd45bd0aa77"),
}

SHAPES = [(n, n, n) for n in (16, 24, 32, 48, 64, 96, 128)] + [
    (20, 36, 12), (100, 7, 50)]


def _digests(shape):
    p, q, r = shape
    rng = np.random.default_rng(list(shape))
    A = rng.standard_normal((p, q))
    B = rng.standard_normal((q, r))
    result = api.gemm(A, B)
    report = json.dumps(dataclasses.asdict(result.report), sort_keys=True)
    return (hashlib.sha256(result.value.tobytes()).hexdigest(),
            hashlib.sha256(report.encode()).hexdigest())


@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_gemm_digests_pinned(shape):
    assert _digests(shape) == GOLDEN[shape]


if __name__ == "__main__":
    for shape in SHAPES:
        print(f"    {shape}: {_digests(shape)},")
