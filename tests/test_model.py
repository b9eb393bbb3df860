import copy
import pickle
import random

import pytest

from hierkg.errors import InvalidArgumentError, NotFoundError
from hierkg.model import (
    Chunk,
    Entity,
    GraphLayer,
    Hierarchy,
    Relation,
    RelationKind,
    RowRange,
    validate_hierarchy,
)

from helpers import make_random_hierarchy


def minimal_hierarchy() -> Hierarchy:
    h = Hierarchy()
    h.entities["e0"] = Entity(id="e0", name="E0", description="only", layer=0, source_chunk_ids=["c0"])
    h.layers.append(GraphLayer(index=0, entity_ids={"e0"}))
    return h


def names_parent_link(violations: list[str], links: list[tuple[str, str]]) -> bool:
    """Whether a violation is about one of the child -> parent links."""
    return any(v.startswith(f"entity {child}: parent {parent} ") for v in violations for child, parent in links)


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
        assert names_parent_link(violations, [("a1", "a2"), ("a2", "a1")])

    def test_parent_cycle_matches_dfs_oracle(self):
        # oracle: a walk up parent_map finds the cycle, and validate names one of its links
        h = three_layer_chain()
        h.parent_map["a2"] = "a1"

        def cycle_links(parent_map):
            for start in parent_map:
                path = []
                node = start
                while node in parent_map:
                    if node in path:
                        cycle = path[path.index(node):]
                        return [(child, parent_map[child]) for child in cycle]
                    path.append(node)
                    node = parent_map[node]
            return []

        links = cycle_links(h.parent_map)
        assert sorted(links) == [("a1", "a2"), ("a2", "a1")]
        assert names_parent_link(validate_hierarchy(h), links)

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

    @pytest.mark.parametrize("kind", ["entity", "relation"])
    @pytest.mark.parametrize("layer", [-1, 1])
    def test_unlisted_record_outside_the_layers(self, kind, layer):
        h = minimal_hierarchy()
        if kind == "entity":
            h.entities["x"] = Entity("x", "X", "stray", layer)
        else:
            h.relations["x"] = Relation("x", "e0", "e0", "stray", layer)
        assert f"{kind} x: layer {layer} outside hierarchy" in validate_hierarchy(h)

    def test_exact_duplicate_names_both_relations(self):
        h = minimal_hierarchy()
        h.entities["e1"] = Entity("e1", "E1", "other", 0, ["c0"])
        h.layers[0].entity_ids.add("e1")
        for rid in ("r0", "r1", "r2"):
            h.relations[rid] = Relation(rid, "e0", "e1", "same text", 0)
            h.layers[0].relation_ids.add(rid)
        assert validate_hierarchy(h) == [
            "relation r1: exact duplicate of relation r0",
            "relation r2: exact duplicate of relation r0",
        ]
        h.relations["r2"].description = "other text"
        assert validate_hierarchy(h) == ["relation r1: exact duplicate of relation r0"]

    @pytest.mark.parametrize(
        "entity_ids, relation_id, first",
        [((7, 8), "r0", "entity 7"), (("e7", 8), "r0", "entity 8"), (("e7", "e8"), 5, "relation 5")],
        ids=["int-entity-ids", "str-and-int-entity-ids", "int-relation-id"],
    )
    def test_id_that_is_not_a_string(self, entity_ids, relation_id, first):
        # int ids once passed, and save_index wrote an index that load_index
        # refused; a str id beside an int one raised TypeError from a sort
        h = Hierarchy(layers=[GraphLayer(0, set(entity_ids), {relation_id})])
        for eid in entity_ids:
            h.entities[eid] = Entity(eid, "E", "leaf", 0, ["c0"])
        h.relations[relation_id] = Relation(relation_id, *entity_ids, "joins them", 0)
        assert validate_hierarchy(h) == [f"{first}: id is int, not str"]

    def test_random_hierarchies_are_valid(self):
        for seed in range(10):
            h = make_random_hierarchy(random.Random(seed), n_leaves=50)
            assert validate_hierarchy(h) == []


def reference_validate_hierarchy(h: Hierarchy) -> list[str]:
    """The validator validate_hierarchy replaced, kept as the mutation oracle's reference.

    It spells the layer listing rule out case by case, walks every ancestor
    chain for cycles, and misses a relation that two layers list and a
    hierarchy with no layers.
    """
    violations: list[str] = []
    top = len(h.layers) - 1

    seen_relation_keys: set[tuple] = set()
    for eid, e in h.entities.items():
        if e.id != eid:
            violations.append(f"entity {eid}: key does not match id field {e.id}")
        if e.layer < 0 or e.layer > top:
            violations.append(f"entity {eid}: layer {e.layer} outside hierarchy")
            continue
        if e.layer == 0 and not e.source_chunk_ids:
            violations.append(f"entity {eid}: layer-0 entity without source chunks")
        if e.layer >= 1 and e.source_chunk_ids:
            violations.append(f"entity {eid}: aggregate carries source chunks")
        if eid not in h.layers[e.layer].entity_ids:
            violations.append(f"entity {eid}: missing from layer {e.layer} listing")

    for eid, pid in h.parent_map.items():
        e = h.entities.get(eid)
        parent = h.entities.get(pid)
        if e is None:
            violations.append(f"parent link {eid} -> {pid}: child does not exist")
        elif parent is None:
            violations.append(f"entity {eid}: parent {pid} does not exist")
        elif parent.layer != e.layer + 1:
            violations.append(f"entity {eid}: parent {pid} at layer {parent.layer}, expected {e.layer + 1}")

    for rid, r in h.relations.items():
        if r.source_id == r.target_id:
            violations.append(f"relation {rid}: self-loop")
        for end in (r.source_id, r.target_id):
            e = h.entities.get(end)
            if e is None:
                violations.append(f"relation {rid}: endpoint {end} does not exist")
            elif e.layer != r.layer:
                violations.append(f"relation {rid}: endpoint {end} not at layer {r.layer}")
        inter = r.kind in (RelationKind.INTER_CLUSTER_AGGREGATED, RelationKind.INTER_CLUSTER_CONCATENATED)
        if inter != (r.layer >= 1):
            violations.append(f"relation {rid}: kind {r.kind.value} invalid at layer {r.layer}")
        if r.layer < 0 or r.layer > top:
            violations.append(f"relation {rid}: layer {r.layer} outside hierarchy")
        elif rid not in h.layers[r.layer].relation_ids:
            violations.append(f"relation {rid}: missing from layer {r.layer} listing")
        key = (r.source_id, r.target_id, r.layer, r.description)
        if key in seen_relation_keys:
            violations.append(f"relation {rid}: exact duplicate of another relation")
        seen_relation_keys.add(key)

    for layer in h.layers:
        for eid in layer.entity_ids:
            e = h.entities.get(eid)
            if e is None:
                violations.append(f"layer {layer.index}: lists unknown entity {eid}")
            elif e.layer != layer.index:
                violations.append(f"layer {layer.index}: entity {eid} declares layer {e.layer}")
        for rid in layer.relation_ids:
            if rid not in h.relations:
                violations.append(f"layer {layer.index}: lists unknown relation {rid}")
    if h.layers and not h.layers[0].entity_ids:
        violations.append("layer 0 is empty")

    # parent links must form a forest (no cycles) and, per layer pair,
    # cover every non-top entity exactly once
    for eid in h.entities:
        try:
            h.ancestors(eid)
        except InvalidArgumentError as exc:
            violations.append(f"entity {eid}: {exc}")

    for i in range(len(h.layers) - 1):
        lower = h.layers[i].entity_ids
        upper = h.layers[i + 1].entity_ids
        parents = {h.parent_map.get(eid) for eid in lower}
        missing = {eid for eid in lower if h.parent_map.get(eid) is None}
        for eid in sorted(missing):
            violations.append(f"entity {eid}: no parent although layer {i + 1} exists")
        if parents - {None} != upper:
            violations.append(
                f"layer {i + 1}: entity set differs from the parents assigned to layer {i}"
            )

    return violations


def with_relations(h: Hierarchy, rng: random.Random) -> Hierarchy:
    """Add well-formed relations to every layer of h that has two entities or more."""
    for layer in h.layers:
        ids = sorted(layer.entity_ids)
        kind = RelationKind.BASE if layer.index == 0 else RelationKind.INTER_CLUSTER_CONCATENATED
        for ordinal in range(len(ids) // 2 if len(ids) > 1 else 0):
            rid = f"r{layer.index}:{ordinal}"
            a, b = rng.sample(ids, 2)
            h.relations[rid] = Relation(rid, a, b, f"relation {rid}", layer.index, kind)
            layer.relation_ids.add(rid)
    return h


def layer_of(h: Hierarchy, k: int, rng: random.Random) -> str:
    return rng.choice(sorted(h.layers[k].entity_ids))


def any_relation(h: Hierarchy, rng: random.Random) -> Relation:
    return h.relations[rng.choice(sorted(h.relations))]


def other_layer(h: Hierarchy, k: int, rng: random.Random) -> int:
    return rng.choice([j for j in range(len(h.layers)) if j != k])


def unlist_entity(h, rng):
    e = h.entities[rng.choice(sorted(h.entities))]
    h.layers[e.layer].entity_ids.discard(e.id)


def list_unknown_entity(h, rng):
    h.layers[rng.randrange(len(h.layers))].entity_ids.add("ghost")


def shift_entity_layer(h, rng):
    e = h.entities[rng.choice(sorted(h.entities))]
    e.layer = other_layer(h, e.layer, rng)


def entity_layer_outside(h, rng):
    h.entities[rng.choice(sorted(h.entities))].layer = rng.choice([-1, len(h.layers)])


def unlist_relation(h, rng):
    r = any_relation(h, rng)
    h.layers[r.layer].relation_ids.discard(r.id)


def list_unknown_relation(h, rng):
    h.layers[rng.randrange(len(h.layers))].relation_ids.add("ghost")


def shift_relation_layer(h, rng):
    r = any_relation(h, rng)
    r.layer = other_layer(h, r.layer, rng)


def relation_layer_outside(h, rng):
    any_relation(h, rng).layer = rng.choice([-1, len(h.layers)])


def clear_leaf_chunks(h, rng):
    h.entities[layer_of(h, 0, rng)].source_chunk_ids = []


def give_aggregate_chunks(h, rng):
    h.entities[layer_of(h, rng.randrange(1, len(h.layers)), rng)].source_chunk_ids = ["c0"]


def dangling_parent(h, rng):
    h.parent_map[layer_of(h, 0, rng)] = "ghost"


def parent_two_layers_up(h, rng):
    h.parent_map[layer_of(h, 0, rng)] = layer_of(h, 2, rng)


def parent_cycle(h, rng):
    leaf = layer_of(h, 0, rng)
    h.parent_map[h.ancestors(leaf)[-1]] = leaf


def missing_parent(h, rng):
    del h.parent_map[rng.choice(sorted(h.parent_map))]


def childless_aggregate(h, rng):
    h.entities["orphan"] = Entity("orphan", "orphan", "no children", 1)
    h.layers[1].entity_ids.add("orphan")
    h.parent_map["orphan"] = layer_of(h, 2, rng)


def self_loop(h, rng):
    r = any_relation(h, rng)
    r.target_id = r.source_id


def dangling_endpoint(h, rng):
    any_relation(h, rng).target_id = "ghost"


def endpoint_on_other_layer(h, rng):
    r = any_relation(h, rng)
    r.target_id = layer_of(h, other_layer(h, r.layer, rng), rng)


def wrong_kind(h, rng):
    r = any_relation(h, rng)
    r.kind = RelationKind.INTER_CLUSTER_AGGREGATED if r.layer == 0 else RelationKind.BASE


def index_not_position(h, rng):
    # the reference sees this too, through the layer fields of the entities listed
    h.layers[rng.randrange(len(h.layers))].index += len(h.layers)


def exact_duplicate(h, rng):
    r = any_relation(h, rng)
    h.relations["dup"] = Relation("dup", r.source_id, r.target_id, r.description, r.layer, r.kind)
    h.layers[r.layer].relation_ids.add("dup")


CORRUPTIONS = [
    unlist_entity, list_unknown_entity, shift_entity_layer, entity_layer_outside,
    unlist_relation, list_unknown_relation, shift_relation_layer, relation_layer_outside,
    clear_leaf_chunks, give_aggregate_chunks,
    dangling_parent, parent_two_layers_up, parent_cycle, missing_parent, childless_aggregate,
    self_loop, dangling_endpoint, endpoint_on_other_layer, wrong_kind, exact_duplicate,
    index_not_position,
]


def relation_listed_twice(h, rng):
    r = any_relation(h, rng)
    h.layers[other_layer(h, r.layer, rng)].relation_ids.add(r.id)


def corruptible_hierarchies():
    """Seeds of make_random_hierarchy with relations, keeping those with three
    layers or more, which parent_two_layers_up needs."""
    for seed in range(20):
        rng = random.Random(seed)
        h = with_relations(make_random_hierarchy(rng, n_leaves=60), rng)
        if len(h.layers) >= 3:
            yield seed, h


class TestValidateMatchesReference:
    """Mutation oracle: one corruption at a time on well-formed random
    hierarchies; validate_hierarchy reports a violation exactly when the
    validator it replaced does."""

    def test_enough_hierarchies(self):
        assert len(list(corruptible_hierarchies())) >= 10

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
    def test_reports_exactly_when_reference_does(self, corrupt):
        for seed, h in corruptible_hierarchies():
            assert validate_hierarchy(h) == [] == reference_validate_hierarchy(h), seed
            corrupt(h, random.Random(seed))
            reported, expected = validate_hierarchy(h), reference_validate_hierarchy(h)
            assert bool(reported) == bool(expected), (seed, reported, expected)
            assert reported, seed

    def test_relation_listed_by_two_layers(self):
        # the reference checked only that a listed relation exists
        for seed, h in corruptible_hierarchies():
            relation_listed_twice(h, random.Random(seed))
            assert any("which does not declare layer" in v for v in validate_hierarchy(h)), seed
            assert reference_validate_hierarchy(h) == [], seed

    def test_no_layers(self):
        assert reference_validate_hierarchy(Hierarchy()) == []
        assert validate_hierarchy(Hierarchy()) == ["layer 0 is empty"]

    def test_index_differs_from_position(self):
        h = minimal_hierarchy()
        h.layers[0].index = 1
        assert "layer 0: index field is 1" in validate_hierarchy(h)


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


def test_row_range_is_a_read_only_mapping_view():
    ids = ["a", "b", "c", "d"]
    rows = {x: i for i, x in enumerate(ids)}
    view = RowRange(ids, rows, 1, 3, lambda i: ids[i].upper())
    assert list(view) == ["b", "c"] and len(view) == 2
    assert view["b"] == "B" and view.get("c") == "C" and view.get("a") is None
    assert dict(view) == {"b": "B", "c": "C"} and view == {"b": "B", "c": "C"}
    assert RowRange(ids, rows, 1, 3)["c"] == 2  # the value is the row by default
    for key in ["a", "d", "z", 7, None, ("b",), ["b"], b"b"]:
        assert key not in view
        with pytest.raises(KeyError):
            view[key]
    with pytest.raises(TypeError):
        view["b"] = "x"
    assert not hasattr(view, "update") and not hasattr(view, "pop")
    for copied in (copy.copy(view), copy.deepcopy(view), pickle.loads(pickle.dumps(view))):
        assert type(copied) is dict and copied == {"b": "B", "c": "C"}

    keys = view.keys()
    assert list(keys) == ["b", "c"] and len(keys) == 2
    assert "b" in keys and "c" in keys
    assert "a" not in keys and "d" not in keys and "z" not in keys and 7 not in keys and ["b"] not in keys
    assert keys == {"b", "c"} and {"b", "c"} == keys and keys != {"b"}
    assert keys - {"b"} == {"c"} and {"a", "b"} - keys == {"a"}
    assert type(keys | {"x"}) is set
    assert not hasattr(keys, "add") and not hasattr(keys, "discard")


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
