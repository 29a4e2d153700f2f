"""Golden sha256 of the dataset artifacts, produced through ``cli.main``.

generate -> build -> preprocess must reproduce these bytes exactly, so an
engine, sampling or preprocessing change that alters any flow, series or
normalized tensor fails here. The hashes are tied to NumPy 2.4.6's Generator
streams (``default_rng`` draws feed the synthetic flow); another NumPy that
changes a stream changes every hash. Checkpoints and reports are not pinned
by bytes, because those go through BLAS: test_golden_values.py pins their
values, and the ``.perfbench/<workload>/digests.txt`` that
``perfbench/run.py`` writes compares their bytes between two commits.
"""

import pytest

from lobkit import io as lio
from lobkit.cli import main

FILES = ("flow.csv", "series.bin", "series.meta.txt",
         "data/train_series.bin", "data/test_series.bin",
         "data/train_labels.bin", "data/test_labels.bin",
         "data/norm_stats.txt", "data/meta.txt")

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
    ("sz000001", 1): {
        "flow.csv":
            "fa935272cac2b15c01b00047da2056c47446c160faaabb8f997b36da042dda09",
        "series.bin":
            "19c9df8ae7af15e50651acd42989926068d241e899e4608462e3b987a465c771",
        "series.meta.txt":
            "99b235350df5cf653d0c6b976771204a6d9ead4ffaf55b8f07ecc7b8eca73a48",
        "data/train_series.bin":
            "c9885854f728be668b993b2cbedac7648b57ce4c455dde1c32feff8854b50f7e",
        "data/test_series.bin":
            "64474386157ca6feeca8312d6ede0300aea7f1d88f2e1b180bc66516dd4ed2d0",
        "data/train_labels.bin":
            "af1779b3e688019a9523c75d55a2c7471cc3a702eb6168229f7abc63d387a424",
        "data/test_labels.bin":
            "48b5aa02fb7bdee22ad9c97379ff5765e8ad4c6c28ad991b14ef22e3c38d3083",
        "data/norm_stats.txt":
            "adf140a8652edccd88bee4e6eb7275dc89b882f4e1273718df459f54b950d95d",
        "data/meta.txt":
            "5cf2e4b2236b664cd58e912a42b4d63d33ef71594ad40d15732cd650c3fd462b",
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
    ("sz000002", 3): {
        "flow.csv":
            "f6d23d4061365365100e1905fb6bb811cc75abe3cee20b974398280fc5250a66",
        "series.bin":
            "8b1bb78ebad75320b206d05f8a24597f65ea0a49141ebf79119bfa0c556068bc",
        "series.meta.txt":
            "4b941888c7a6f4c49f9020ed14471b3ccfcce1f27b1b44d529074a1643c402a6",
        "data/train_series.bin":
            "255fe7134fe3d71e39775d65e742536296271a1fe3ac861c4ef34dc7142d9a4d",
        "data/test_series.bin":
            "3d5837df46943460f54c3ba3d64bd793fd9f2d27329be2011d9e208345474fee",
        "data/train_labels.bin":
            "5cd380c6a71ec028af3f68e5fcb99353f617e7f9562d7b75c5195821442b7698",
        "data/test_labels.bin":
            "3c625e7231014dea9f5c5b483ccf89ce03eacd05e56052a83bd3314e86866598",
        "data/norm_stats.txt":
            "5d93c992849911b18d05954bad5d7ed64ded3e400f1abea01fbef32936ba3b4b",
        "data/meta.txt":
            "b7be04c28fcd54db30cd942febb0067984bb8e6acb457a71568626e412f9f657",
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
    ("sz000858", 1): {
        "flow.csv":
            "1c3fb68b7ec8e4afe45a80e200d3a79208fed62e6905fb8745b5219fea6bfad1",
        "series.bin":
            "a3c5b59aa6879ac3fb7e1189482f4545b9faebedde3f473d0e7d00287ccfea77",
        "series.meta.txt":
            "166ae4448adbb0ce620c59eae53ac492735b3bf3688c71efe66bf4354ebccee1",
        "data/train_series.bin":
            "279c3ff41b72af63fe67bf6880d5bdcb65625669fdd803814909a192ec31990d",
        "data/test_series.bin":
            "63ae3be89ac418fd5a2e802aa4b7da6ad5f699cbfe475fe5759701fa24716a3f",
        "data/train_labels.bin":
            "c749e28dd9e823a9ddade4173e10848d65c510fa4573afd5b20cdad5c1b8e39d",
        "data/test_labels.bin":
            "e80bb1e83c3ab561e032bcb839df1fd0993662af40f585540f6ef2aecd37ebe5",
        "data/norm_stats.txt":
            "f2999b775a66430136b9f120d53bc343c3352a9a6f365ba2584fdebc2906ceab",
        "data/meta.txt":
            "37e6abde4efd53fb9cdc21bd43f05406c15c7363e0dc99b7d18de970b59023c1",
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
    ("sz002415", 4): {
        "flow.csv":
            "cafc4ad21d68bb469f373728b2d32964e243cef441269921ea25891101318904",
        "series.bin":
            "52e75a32cfd919cf36e520834a175e963a67f02dfc76413e92425191743cd7c8",
        "series.meta.txt":
            "cec8542b27366438f20fa59ed8c3f33da64a89a5c3d8d3e1ae4ca1e1e21456a0",
        "data/train_series.bin":
            "e33eb913c73fbf93bbd6b7af643f2d7e42065aa8549929efcb9697f976ba1321",
        "data/test_series.bin":
            "d1c0d7ba8a9a39f8bfd73e3a4e3f6bd6a17788d5a0c1113162521c17ca37a55b",
        "data/train_labels.bin":
            "53361a0f75c6f883113ecdab7d5b8f1ea3337d6d04f129000974f5300cd7f532",
        "data/test_labels.bin":
            "14106b18c1ec7968a114c098c45d6c57d09d9845da185b494a7572575372c98a",
        "data/norm_stats.txt":
            "193f24a5562f9faf9ef579507d5990535ee7f819ad14804300b99ae7024261c2",
        "data/meta.txt":
            "879ba46314e2b38bc675d688a910a2efe2e3dc8a5b124daee1ca8234af23197f",
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
    ("sz300147", 6): {
        "flow.csv":
            "1a1bfc0df2cf536e90cb5d51c3f441a255dc647b21f60dfbcb1f811c555b0da3",
        "series.bin":
            "d0c0ae28405a07c1846bdecff96bb02b26384a7e7ecfcf46648e1bfeb3a772f7",
        "series.meta.txt":
            "10d482375e62ee8f4273b9ca17a370ae554eb22e60fde79ae56a7711174d69d3",
        "data/train_series.bin":
            "7c258201d72bf273abb4a4b6507a88a7a21838054eb1be6d7f83e72860813607",
        "data/test_series.bin":
            "11d46593f08795d8880cf3dbd98d2bd201d4f15423a37c950418ff61d9c00f16",
        "data/train_labels.bin":
            "dafe8a5f9e15c8d24cad2e9edca994f5b784bbeaf37ec5688fac3238a5fd2237",
        "data/test_labels.bin":
            "f2d7cb90987152cf78c698229469730829590a37db074b473f969373dd2cca6c",
        "data/norm_stats.txt":
            "20d012e96537bbd97007cb5485ae2678593c4ad02cfc99d83a8b2eef6e1a8b5e",
        "data/meta.txt":
            "e56e530f48ed01350a9fb6631acacc879e400421f1c0b646bb2bd927ef110f73",
    },
}

# A deeper export: on sz000001/0 the 20th bid level is padding (volume 1)
# in 566 of the 4740 rows, so these pin the padding path at l != 10.
GOLDEN_LEVELS = {
    ("sz000001", 0, 20): {
        "flow.csv":
            "a47055f0e34c9856ec5018c9b820f4ff4d62ca0bb67af8fd1a62af6365178e8d",
        "series.bin":
            "3f08984b3cb11286000a871caa96cdf7c5ffaf19d7392f251e76ec81a1eef4bb",
        "series.meta.txt":
            "a686175f6dbeb5a81a289d7c2fdf0e46dfab125a39283c301130ae938e973500",
        "data/train_series.bin":
            "73e11301a3ebf9582e943f358fa8665e5d5737a8ca72e5b01cb5a08608a21db9",
        "data/test_series.bin":
            "45f72eac4c485a8078664c535f722c30783da4f5f7dc0884c350a3b1322e2670",
        "data/train_labels.bin":
            "db4961be13cd61f46ec647f7ba280fb77d462bf2d0828808ffca1e2511a4d376",
        "data/test_labels.bin":
            "4d3bd9dc75e3726c91459415d76945a2f88a847f7a5e4b3081e99d9dca5d2dbd",
        "data/norm_stats.txt":
            "c88d0d990ad364fb476f262ccd389f081930c70e0bf9b1cd47bce907a8531427",
        "data/meta.txt":
            "36c70bd46218472e40face87462158d50de818f8e0865f57092dcd819f6e7e63",
    },
}


def _walk(d, profile, seed, levels=10):
    """Hashes of every file one generate -> build -> preprocess walk writes."""
    assert main(["generate", "--profile", profile, "--seed", str(seed),
                 "--out", str(d / "flow.csv")]) == 0
    assert main(["build", "--flow", str(d / "flow.csv"),
                 "--levels", str(levels), "--out", str(d / "series.bin")]) == 0
    assert main(["preprocess", "--series", str(d / "series.bin"),
                 "--out", str(d / "data")]) == 0
    return {rel: lio.file_sha256(d / rel) for rel in FILES}


@pytest.mark.parametrize("profile,seed", sorted(GOLDEN))
def test_dataset_artifacts_match_golden_sha256(profile, seed, tmp_path):
    assert _walk(tmp_path, profile, seed) == GOLDEN[profile, seed]


@pytest.mark.parametrize("profile,seed,levels", sorted(GOLDEN_LEVELS))
def test_deeper_export_artifacts_match_golden_sha256(profile, seed, levels,
                                                     tmp_path):
    assert (_walk(tmp_path, profile, seed, levels)
            == GOLDEN_LEVELS[profile, seed, levels])
