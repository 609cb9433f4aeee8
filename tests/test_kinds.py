import pytest

from xfo.errors import XfoError
from xfo.kinds import (
    ENTITY,
    INDEPENDENT_CONTINUANT,
    UPPER_TAXONOMY,
    KindTable,
    is_upper,
)


def test_upper_taxonomy_shape():
    assert UPPER_TAXONOMY["Continuant"] == "Entity"
    assert UPPER_TAXONOMY["Occurrent"] == "Entity"
    assert UPPER_TAXONOMY["Object"] == "MaterialEntity"
    assert UPPER_TAXONOMY["ObjectAggregate"] == "MaterialEntity"
    assert UPPER_TAXONOMY["RelationalQuality"] == "Quality"
    assert UPPER_TAXONOMY["Role"] == "Realizable"
    assert UPPER_TAXONOMY["Disposition"] == "Realizable"
    assert UPPER_TAXONOMY["Function"] == "Realizable"
    assert UPPER_TAXONOMY["Transitional"] == "Occurrent"
    assert UPPER_TAXONOMY["Process"] == "Occurrent"
    assert len(UPPER_TAXONOMY) == 16


def test_every_upper_node_reaches_entity():
    table = KindTable()
    for name in UPPER_TAXONOMY:
        path = table.path_to_entity(name)
        assert path[-1] == ENTITY
        # acyclic: no repeats on the path
        assert len(set(path)) == len(path)


def test_user_kinds_attach_below_one_node():
    table = KindTable({"Vessel": "Object", "WaterDropper": "Vessel"})
    assert table.path_to_entity("WaterDropper") == (
        "WaterDropper",
        "Vessel",
        "Object",
        "MaterialEntity",
        "IndependentContinuant",
        "Continuant",
        "Entity",
    )
    assert table.is_subkind("WaterDropper", INDEPENDENT_CONTINUANT)
    assert not table.is_subkind("WaterDropper", "Occurrent")
    assert table.attachment("WaterDropper") == "Object"
    assert table.depth_below_attachment("WaterDropper") == 2
    assert table.depth_below_attachment("Object") == 0


def test_shadowing_upper_name_rejected():
    with pytest.raises(XfoError):
        KindTable({"Object": "Entity"})


def test_unknown_parent_rejected():
    with pytest.raises(XfoError):
        KindTable({"Ghost": "Nowhere"})


def test_membership_decidable_over_corpus(registry):
    # Every registered kind has exactly one path to Entity.
    table = registry.kinds
    for name in table.names():
        path = table.path_to_entity(name)
        assert path[0] == name and path[-1] == ENTITY
        assert len(set(path)) == len(path)
        # The attachment is the first upper node on the path, as many edges up.
        depth = table.depth_below_attachment(name)
        assert depth == path.index(table.attachment(name))
        assert is_upper(path[depth]) and not any(map(is_upper, path[:depth]))


def test_is_upper():
    assert is_upper("Entity")
    assert not is_upper("TrafficLight")
