import random

import pytest

from hierkg.errors import NotFoundError
from hierkg.model import (
    Chunk,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    validate_hierarchy,
)

from helpers import make_random_hierarchy


def minimal_hierarchy() -> Hierarchy:
    h = Hierarchy()
    h.entities["e0"] = Entity(id="e0", name="E0", description="only", layer=0, source_chunk_ids=["c0"])
    h.layers.append(GraphLayer(index=0, entity_ids={"e0"}))
    return h


def three_layer_chain() -> Hierarchy:
    h = Hierarchy()
    h.entities["e0"] = Entity(id="e0", name="E0", description="leaf", layer=0, source_chunk_ids=["c0"])
    h.entities["a1"] = Entity(id="a1", name="A1", description="mid", layer=1)
    h.entities["a2"] = Entity(id="a2", name="A2", description="top", layer=2)
    h.parent_map = {"e0": "a1", "a1": "a2"}
    h.layers = [
        GraphLayer(index=0, entity_ids={"e0"}),
        GraphLayer(index=1, entity_ids={"a1"}),
        GraphLayer(index=2, entity_ids={"a2"}),
    ]
    return h


class TestValidateHierarchy:
    def test_minimal_valid_graph(self):
        assert validate_hierarchy(minimal_hierarchy()) == []

    def test_aggregate_with_source_chunk_is_violation(self):
        h = three_layer_chain()
        h.entities["a1"].source_chunk_ids = ["c9"]
        violations = validate_hierarchy(h)
        assert any("a1" in v and "source chunks" in v for v in violations)

    def test_parent_cycle_detected(self):
        h = three_layer_chain()
        h.parent_map["a2"] = "a1"
        violations = validate_hierarchy(h)
        assert any("cycle" in v for v in violations)

    def test_parent_cycle_matches_dfs_oracle(self):
        # oracle: DFS over parent_map finds a back edge iff validate reports a cycle
        h = three_layer_chain()
        h.parent_map["a2"] = "a1"

        def has_cycle(parent_map):
            for start in parent_map:
                seen = set()
                node = start
                while node in parent_map:
                    if node in seen:
                        return True
                    seen.add(node)
                    node = parent_map[node]
            return False

        assert has_cycle(h.parent_map)
        assert any("cycle" in v for v in validate_hierarchy(h))

    def test_wrong_parent_layer(self):
        h = three_layer_chain()
        h.parent_map["e0"] = "a2"
        violations = validate_hierarchy(h)
        assert any("e0" in v and "layer" in v for v in violations)

    @pytest.mark.parametrize("child, parent", [("e0", "ghost"), ("ghost", "a1")])
    def test_parent_link_to_unknown_entity(self, child, parent):
        h = three_layer_chain()
        h.parent_map[child] = parent
        violations = validate_hierarchy(h)
        assert any("ghost" in v and "does not exist" in v for v in violations)

    def test_random_hierarchies_are_valid(self):
        for seed in range(10):
            h = make_random_hierarchy(random.Random(seed), n_leaves=50)
            assert validate_hierarchy(h) == []


class TestAncestors:
    def test_top_layer_entity_is_its_own_chain(self):
        h = three_layer_chain()
        assert h.ancestors("a2") == ["a2"]

    def test_full_chain(self):
        h = three_layer_chain()
        assert h.ancestors("e0") == ["e0", "a1", "a2"]

    def test_unknown_id(self):
        with pytest.raises(NotFoundError):
            three_layer_chain().ancestors("nope")

    def test_matches_naive_parent_walk_on_random_forest(self):
        rng = random.Random(7)
        h = make_random_hierarchy(rng, n_leaves=200)
        for eid in h.entities:
            chain = [eid]
            node = eid
            while node in h.parent_map:
                node = h.parent_map[node]
                chain.append(node)
            assert h.ancestors(eid) == chain


class TestEntitiesOfCluster:
    """The entities of each aggregate's cluster, read from the inverted parent_map."""

    def test_clusters_partition_lower_layer(self):
        rng = random.Random(3)
        h = make_random_hierarchy(rng, n_leaves=120)
        children_of: dict[str, set[str]] = {}
        for child, parent in h.parent_map.items():
            children_of.setdefault(parent, set()).add(child)
        for i in range(1, len(h.layers)):
            union = set()
            for aid in h.layers[i].entity_ids:
                children = children_of.get(aid, set())
                assert not (union & children)
                union |= children
            assert union == h.layers[i - 1].entity_ids


def test_chunk_roundtrip():
    c = Chunk(id="c1", text="a b c", doc_id="d", token_count=3)
    assert Chunk.from_dict(c.to_dict()) == c


def test_relation_roundtrip():
    r = Relation(id="r1", source_id="a", target_id="b", description="x", layer=0)
    assert Relation.from_dict(r.to_dict()) == r


@pytest.mark.parametrize(
    "obj",
    [
        Entity(id="e0", name="E0", description="leaf", layer=0, source_chunk_ids=["c0"]),
        Relation(id="r1", source_id="a", target_id="b", description="x", layer=0),
        Chunk(id="c1", text="a b c", doc_id="d", token_count=3),
    ],
    ids=["entity", "relation", "chunk"],
)
def test_undeclared_attribute_rejected(obj):
    # slotted: a stray attribute, such as the retired Entity.parent_id, cannot be set
    with pytest.raises(AttributeError):
        obj.parent_id = "a1"
