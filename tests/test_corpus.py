"""The synthetic corpus is published data: its records are pinned bit for bit."""

import hashlib
import json

import pytest

from layerpool.corpus import make_synthetic_sts, make_synthetic_triplets


def digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("make, args, want", [
    (make_synthetic_triplets, {},
     "ec57990ce16ec6e3dcb741abce1768a546c06977417d4a5e472659b9e9812c0f"),
    (make_synthetic_triplets, {"num_pairs": 64, "seed": 0},
     "6efd2bfb2c7748c93b0d3283c0625d52c2cec2491100e0866ecc1dc8cc53aca6"),
    (make_synthetic_triplets, {"num_pairs": 16, "seed": 7},
     "ef9965a503d49adb43e64ccc1ef01bb7f30dbeabb3fd1027141173ad3f07d374"),
    (make_synthetic_sts, {},
     "043f81ed18630cc989efaf4ca630a759662cb37350c56e95d09996e9ae40b7d5"),
    (make_synthetic_sts, {"num_records": 64, "seed": 0},
     "7ebd8dcda3a8c3596bae32d89a65d658948a1e8901cb28e8678e96b2715902f4"),
    (make_synthetic_sts, {"num_records": 16, "seed": 7},
     "24050aaeba2faf10ff8373678bd11c46ddd26b91585557a9d0dc3b2c60c36fb3"),
], ids=["triplets-default", "triplets-64-0", "triplets-16-7",
        "sts-default", "sts-64-0", "sts-16-7"])
def test_published_records_keep_their_bits(make, args, want):
    assert digest(make(**args)) == want
