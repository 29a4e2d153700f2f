"""Golden sha256 of the dataset artifacts, produced through ``cli.main``.

generate -> build -> preprocess must reproduce these bytes exactly, so an
engine, sampling or preprocessing change that alters any flow, series or
normalized tensor fails here. The hashes are tied to NumPy 2.4.6's Generator
streams (``default_rng`` draws feed the synthetic flow); another NumPy that
changes a stream changes every hash. Checkpoints and reports are not pinned
because their bytes go through BLAS; compare those between two commits with
the ``.perfbench/<workload>/digests.txt`` that ``perfbench/run.py`` writes.
"""

import pytest

from lobkit import io as lio
from lobkit.cli import main

GOLDEN = {
    ("sz000001", 0): {
        "flow.csv":
            "a47055f0e34c9856ec5018c9b820f4ff4d62ca0bb67af8fd1a62af6365178e8d",
        "series.bin":
            "de56824f248afa8b3fc965fe54d5cc784a58d6de57ba8c27daeb486e6cf1510c",
        "series.meta.txt":
            "c783978b91638be45021e6c42b44356092bc52a9fe12270ba4f0b72992c2c24d",
        "data/train_series.bin":
            "d43d58104965f88fd11fe774bc3158b1871e9f71234399497a016f5a2cde3f05",
        "data/test_series.bin":
            "4a88236bfe4b52618ad10ecb2cd19c46ddab29c13e23a8ac826dd749a2f83e3d",
        "data/train_labels.bin":
            "db4961be13cd61f46ec647f7ba280fb77d462bf2d0828808ffca1e2511a4d376",
        "data/test_labels.bin":
            "4d3bd9dc75e3726c91459415d76945a2f88a847f7a5e4b3081e99d9dca5d2dbd",
        "data/norm_stats.txt":
            "69b91d0247b4a5d1a534f45ef051ede84477768c02905a4ebe9950f2e8482603",
        "data/meta.txt":
            "e64c86267056a37c9ef630609ec47ee0aa3409a7acc9a35674c52d70cc18c3b4",
    },
    ("sz000002", 1): {
        "flow.csv":
            "1813d7f689b204a5cb1a547fe1e9da2e312f15c7a76235373132dc94ced122aa",
        "series.bin":
            "b6aadda4e07a700c67882b424eb5ab3ad2f84f33260b74592c2c24a4a878e68b",
        "series.meta.txt":
            "87b24091f00b7abd9e22079678e4daee71a21392709aad5d977529a848a72ea5",
        "data/train_series.bin":
            "03ae5e97b869a18bd75f671f54081ae5ba1b1987d5a500c10166b2e32267e3ad",
        "data/test_series.bin":
            "76a5ef902b6478503947e1f1b84d069142e50def8439dac143371b4cd8cedaa0",
        "data/train_labels.bin":
            "d4a3a4ef8be9e03f8c06913d867b7055de95291b32acfdce9db5326a00e99055",
        "data/test_labels.bin":
            "77e1ccea11cd5c575a91e3fb6c72d5ea2ad1578315223444fdab861c72742a1e",
        "data/norm_stats.txt":
            "12504465ea7eb355a562afbb64fec4a657f108121f8bb25504a8989e3229abe2",
        "data/meta.txt":
            "6e7533ecc52f12e24dc3309dfaeeec3fc4b15e63b90a47b7b5b7aac6d416f30c",
    },
    ("sz000858", 0): {
        "flow.csv":
            "08639e3ad282ada72b60aea0d207aca1492654391b3cb91b1cbd74b206b3ee82",
        "series.bin":
            "5b2496241c99a03ce522dbaa382a68fe72d2a93082f3aa74e3d0cfd2be16a1eb",
        "series.meta.txt":
            "76d5ce7585d0d49c0cf8c735141c537abade4b574b24a50f1350c6bc77448adf",
        "data/train_series.bin":
            "3a565504b210f2136f6d695ef9b250fc20dc3312e11dd60ec894ded340c36039",
        "data/test_series.bin":
            "fcfe9dfd2779494deedf6a80d80b1c764b91c881da6ff4c64449789969b8cd95",
        "data/train_labels.bin":
            "a854eb90451313174d334cd19cad26e3a6a3a654df750877c92fff96c4575065",
        "data/test_labels.bin":
            "bb81dd7553da6274656ebc7bfd0eeb298b78efdbcdf73361275e5208ffaf268c",
        "data/norm_stats.txt":
            "b0eebbf6bae1493b8984a45af1416d2cd33128ec35c8bfc77ac8753464304724",
        "data/meta.txt":
            "7a0102d23cce3a6cfa3b3b32d48fa496e7e0673888edaa4ee41cb40d03bd5fae",
    },
    ("sz002415", 2): {
        "flow.csv":
            "ce01f35e090e3613e3b66c9aee2c517acb12f421497e3eebfb7cd6c983dde485",
        "series.bin":
            "86895d483e7e6cd4c17f3227a489a76799f4f2880791abd7a1b8e43260a97d18",
        "series.meta.txt":
            "1fcd9e3c77dddad4e6c0ae0d0417421d4ec4c1a4e8f536b8b44905f34ab5675b",
        "data/train_series.bin":
            "edfa9a584cfe5b6cd360a9ed2b7f2acc40d1cc1288d9c2f5bd7d9fe8e75b04a7",
        "data/test_series.bin":
            "3f2d8b66f58944732f6cda14bdbd77f61df0f6659652ee9ebb92e70e0c574d64",
        "data/train_labels.bin":
            "db5ccafc84301b59e21a3c53257138cb7f319efb2ad37c2718c7343ebe5fefc4",
        "data/test_labels.bin":
            "7af5f94a62a066f0795a6e3f44f2f3c2e592ede17799bb6a593455cf2755a5e7",
        "data/norm_stats.txt":
            "0b186efed064defeae00a2cf8760b3350e3f2fcde803f33add24a1c2e7abf0b2",
        "data/meta.txt":
            "741b06b8a644fdcb539390f878813a1b32e4a29aac7e1d669d9286fba83e16ff",
    },
    ("sz300147", 5): {
        "flow.csv":
            "e0ed99e07772e83cd9808d2b216419e85ee1634e127aebd52c77022ef690c28f",
        "series.bin":
            "6e44f321c0c272dff1d8ca4c61ac276c776bed86de2cb3f178e068d16aba6bb9",
        "series.meta.txt":
            "666d37fde176f9f83db2ccc441bec4340860facf1390915ae79270e00a0e90af",
        "data/train_series.bin":
            "dc761a4353d069ddb1141da86d22c8a128c6140e3f5d216dd39a232ff1313933",
        "data/test_series.bin":
            "051db731d7b6e3e055a594fb9d10a42a72294d8464a3b1e8e8f7c9fa5c83a3d4",
        "data/train_labels.bin":
            "0dbef97fcfc0bab9ab48dda0e9b9c246b887fcb29caa4988f7cadcfed6c14558",
        "data/test_labels.bin":
            "52406d6e4ffe4851350a84a105aff95c02299969d0a31f764392bf8b6709ed51",
        "data/norm_stats.txt":
            "f66e1a3825426ebea61215dd8c948df7e1dcab25db99979ae2e75064783a2c5e",
        "data/meta.txt":
            "8be3463f3159c7033bc0e8823cd837324089423524188769990648c54a8c7644",
    },
}


@pytest.mark.parametrize("profile,seed", sorted(GOLDEN))
def test_dataset_artifacts_match_golden_sha256(profile, seed, tmp_path):
    d = tmp_path
    assert main(["generate", "--profile", profile, "--seed", str(seed),
                 "--out", str(d / "flow.csv")]) == 0
    assert main(["build", "--flow", str(d / "flow.csv"),
                 "--out", str(d / "series.bin")]) == 0
    assert main(["preprocess", "--series", str(d / "series.bin"),
                 "--out", str(d / "data")]) == 0
    got = {rel: lio.file_sha256(d / rel) for rel in GOLDEN[profile, seed]}
    assert got == GOLDEN[profile, seed]
