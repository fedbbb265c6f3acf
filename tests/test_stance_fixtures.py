"""Byte-level guard on the stance fixtures that many tests share.

The fixtures are laid out by a search over confusion matrices and pairwise
couplings; this pins the gold column and every system column of each one by
sha256, so any change to how they are fitted or laid out fails here first.
"""

import hashlib

import pytest

DIGESTS = {
    "stance_small": {
        "gold": "9c44e0a294495618086399033942b7de95b06f216643ad00ad574c82cefc289d",
        "alpha.01": "e85c5cf73334c7188907a0cb695fcd752346c238c15553e2c0db2e7e69c96e6b",
        "alpha.02": "2fccc9d4783575c57681f86a1c00a567757d8ccd2ae260563bedca456ebca562",
        "bravo.01": "fcf5c0a614ae45818c2dbcdee2d9b586a5f8a7f689e77e2afc9bc2a455b58c03",
        "charlie.01": "7425f30d8d4746b80a8131a1da2f4011e056e103db827f846891f106526e6ac7",
        "bravo.02": "671eb56b3597f85b05511f6268be43221e9449a9ba920c6631e17b86e1c5791a",
    },
    "stance_small_with_gold": {
        "gold": "9c44e0a294495618086399033942b7de95b06f216643ad00ad574c82cefc289d",
        "Gold_Standard": "9c44e0a294495618086399033942b7de95b06f216643ad00ad574c82cefc289d",
        "alpha.01": "e85c5cf73334c7188907a0cb695fcd752346c238c15553e2c0db2e7e69c96e6b",
        "alpha.02": "c99c86d1af66f9eb9c0dc5d29c7a12aecb8a6bf47f11bc7effccb4f7969caaea",
        "bravo.01": "56b8bcd7f8e3c9b2b9e849ffe1a7a80bd9f376ac8ad69624e5c4bcc4dca6caed",
        "charlie.01": "f7c4edd3baae37d276cf03329698097ee536fde8190d236431d52c9a696224d5",
        "bravo.02": "197c35b4554ab4f264fb25e0155af9e4b9c430633e73674f33c3d1e55c293b89",
    },
    "stance_large": {
        "gold": "12a654033c6774bdbc7281913cd159d112b1133a96394e821bc12231b18c2a15",
        "alpha.02": "5023c228d3882056c4e37122c7bde2f5d40878e7f9f29675c26732e95d437988",
        "alpha.01": "fc575a8f1d96e6e7de80fd575ed9176b70d27740847ec5b029eb34847d035973",
        "bravo.01": "7427f22bb813474bf2854161ff52a2c95560eeaa82a62c4271e2c560c0490fba",
        "charlie.01": "dcb41481dd91d426a8320ffdb285a5533e71c49f3e45f64cadae3a6d8c0e2f2f",
        "bravo.02": "20aaeb19d6906a54c0abd8320b8e8f320b7cbd7912b92b570deb20203d9c3058",
    },
}


def column_digest(values) -> str:
    return hashlib.sha256("\n".join(values).encode("utf-8")).hexdigest()


def table_digests(table) -> dict:
    return {"gold": column_digest(table.gold)} | {
        name: column_digest(col) for name, col in table.systems.items()
    }


@pytest.mark.parametrize("fixture", sorted(DIGESTS))
def test_stance_fixture_columns_are_pinned(fixture, request):
    table = request.getfixturevalue(fixture)
    got = table_digests(table)
    assert list(got) == list(DIGESTS[fixture])
    assert got == DIGESTS[fixture]
