"""Byte identity of the presets: the SHA-256 of every preset's output at
--trials 40 --seed 7, at workers 1 and 2, against a checked-in table.

The table was made with numpy 2.4.6.  A change that alters output bytes on
purpose updates it and says in CHANGES.md which outputs changed and why.
"""

import hashlib

import pytest

from fadestream import cli

DIGESTS = {
    "fig4": "f56e0188e826ea252881a4a20c3c6f89dd74bad092588124e66e53d2258a88b7",
    "fig5a": "099feab191fe4f8a0f31e8fc313ef9931025ef49bf53d5bab0901e3e72cef4b2",
    "fig5b": "70f0dbd2f657f2a3f0bba2fbf795b95d684f2266064242ce0c54e8f28cc9fd5f",
    "fig6a": "7b43899fe894e0ebb42eb4bb01da797d29432a04abec67f9dadffac089349972",
    "fig6b": "1a1aaab69199f66754d892cb44ba328a93e2f6afcd849adeece09b963376c2a9",
    "fig7": "db84487b082012c7a7669c3fd9368d6f6f263d4946a425ee9b4e85c53c6edb93",
    "fig8": "f6d5ea3563123998dbf0d58a3b8a96fb40d57ab885fdccd29f77c1ca9e33e585",
}


def test_the_table_covers_every_preset():
    assert sorted(DIGESTS) == sorted(cli.PRESETS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("preset", sorted(DIGESTS))
def test_preset_output_bytes_match_the_table(tmp_path, counting_pool, preset, workers):
    out = tmp_path / f"{preset}.out"
    argv = ["--preset", preset, "--trials", "40", "--seed", "7", "--workers", str(workers), "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[preset]
    if preset == "fig4" and workers == 2:
        assert counting_pool.starts == 1  # two group chunks at 40 trials: the pooled path
