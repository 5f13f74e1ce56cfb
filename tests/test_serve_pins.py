"""Pins of the served content of the 21 servebench keys.

Every key of ``benchmarks/servebench/workloads.py`` is searched and filed
in process, through the store's own warm path, and each stored object is
pinned by one SHA-256 of its inflated stream: the header line, which
holds the key, and the arrays.  The gzip bytes are not hashed, because
zlib builds may deflate one stream differently.  A change meant to be
bit-identical on the serve path must leave every hash as it is; one that
changes served content on purpose updates this table and says why.
"""

import hashlib
import importlib.util
import sys
import zlib
from pathlib import Path

from repro.serve import ScheduleKey, ScheduleStore, warm_store

M, S = 6, 15

#: key -> SHA-256 of its stored object's inflated stream.
PINS = {
    # cold-heuristic
    ScheduleKey("tbs", 32, M, S): "c7d284338313b82da72d22c4157b8b2ed036751732a19a0fc848e5e2549abd8c",
    ScheduleKey("syr2k", 32, M, S): "33e5b46ef1d635bf80d4f1c05d75a6e7dbb2a12f423baac826ad3775e8e0c57b",
    ScheduleKey("chol", 32, M, S): "298faa05874b59310019229c6e9d775444b5922617ee13bd80876c01cc44e809",
    ScheduleKey("tbs", 40, M, S): "3636c77e78b53207a5007c5a220ab370195739db9faa2271a3c39ca5d421d3f2",
    ScheduleKey("syr2k", 40, M, S): "9b1d38d0281f89bb053b51073fcdbeff9f5f7dcfa4bc331053380b792c4f3427",
    ScheduleKey("chol", 40, M, S): "000618963b3852dc13fec3cd6bf58f5413bf5b1b25dea5e18caa00f33bf87a37",
    ScheduleKey("tbs", 56, M, S): "0b8d39f4c990465aa2e4d233419a2a8c4b3499fe58b7764ebf43c66e2a091a90",
    # cold-search
    ScheduleKey("tbs", 24, M, S, policy="search"): "1f5310afa257b99c4a358575054a70cc4b78044cae743192d89817d1694175b0",
    ScheduleKey("syr2k", 24, M, S, policy="search"): "ba6e4d3be229a6430589132addd8a47c31d5b6b80f01e8fcbf648995c309b246",
    ScheduleKey("chol", 24, M, S, policy="search"): "821fc9c638b98c0da9d9b8c6bf3bfd139e21f2c099e79ef66b96661924b092e0",
    ScheduleKey("tbs", 24, M, S, p=4, policy="cosearch"): "b68762ac382d271d2b79b961bc370ce3f767dd1bc71618a3f50b96824c05de1c",
    ScheduleKey("chol", 16, M, S, p=2, policy="cosearch"): "f36c4608c0c4f023760acb698cb1b080c9db8bfe732d31bd6752e7548b06db6e",
    # warm-read
    ScheduleKey("tbs", 26, M, S): "0c78f82e72d1c81e18bc2831ac4cb526cb097bb189e52cdfb70542ed56642296",
    ScheduleKey("syr2k", 15, M, S): "3a233b63842d49b836e79b476683373f0440ca9a5b1c33fa42cd1370efc6f665",
    ScheduleKey("chol", 22, M, S): "b6cef384aff2da190e2515089d33c8707721a6f38b110ae674cc25c75d4bbc11",
    ScheduleKey("tbs", 27, M, S): "706382ab744a8c823f3ab15f62e02393de681a4bf3b6b3d6a97c32248c230f2c",
    ScheduleKey("syr2k", 16, M, S): "bb0f9a75394e5fc63ff8f25c422200a03cf502f31e31684d9c35817953718962",
    ScheduleKey("chol", 23, M, S): "87ee8bac46c4f69533809a08c83e3c015fe16198dbfddb87a4349c96efcce843",
    ScheduleKey("tbs", 28, M, S): "2f72f717c51748a8a38976d157b1e4937955eccc68e89ef65f01a9e68287c5b1",
    ScheduleKey("chol", 24, M, S): "8383523560e902ee345f21612e7def29c84d6ae6dc20b0bf27e6aa01a4e771c6",
    ScheduleKey("tbs", 29, M, S): "3c2c41a9e0bcfc6f0c18355c06eb920ed8f1fd7fd1c4a74e3005306edb1ee038",
}


def _servebench_keys() -> set[ScheduleKey]:
    """Every key of servebench's workloads, read from its own table."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "servebench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("servebench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {key for workload in module.WORKLOADS.values() for key in workload.keys}


def test_pins_cover_the_servebench_keys():
    assert set(PINS) == _servebench_keys()
    assert len(PINS) == 21


def test_served_content_is_pinned(tmp_path):
    store = ScheduleStore(tmp_path / "store")
    warm_store(store, list(PINS))
    changed = []
    for key, pin in PINS.items():
        with open(store.object_path(key), "rb") as fh:
            stream = zlib.decompress(fh.read(), wbits=31)
        if hashlib.sha256(stream).hexdigest() != pin:
            changed.append(key.canonical())
    assert not changed, f"the stored objects of {changed} changed"
