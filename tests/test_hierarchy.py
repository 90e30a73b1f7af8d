import pytest

from regio.errors import (
    DanglingParent,
    DuplicateCode,
    HierarchyError,
    ParentLevelMismatch,
    TargetCoarserThanSource,
    TargetFinerThanSource,
    UnknownLevel,
    UnknownRegion,
)
from regio.hierarchy import (
    RegionHierarchy,
    RegionNode,
    SpatialLevel,
    load_hierarchy,
)


def write_csv(tmp_path, rows):
    path = tmp_path / "hierarchy.csv"
    path.write_text("code,level,parent,country\n" + "\n".join(rows) + "\n")
    return path


class TestLoadHierarchy:
    def test_minimal_chain(self, tmp_path):
        h = load_hierarchy(write_csv(tmp_path, ["DE,NUTS0,,DE", "DE1,NUTS1,DE,DE"]))
        assert len(h) == 2
        assert h.node("DE1").parent == "DE"

    def test_five_level_chain(self, tmp_path):
        rows = [
            "DE,NUTS0,,DE",
            "DE1,NUTS1,DE,DE",
            "DE11,NUTS2,DE1,DE",
            "DE111,NUTS3,DE11,DE",
            "DE111_0001,LAU,DE111,DE",
        ]
        h = load_hierarchy(write_csv(tmp_path, rows))
        assert len(h) == 5
        assert h.ancestor("DE111_0001", SpatialLevel.NUTS0) == "DE"

    def test_dangling_parent(self, tmp_path):
        path = write_csv(tmp_path, ["DE,NUTS0,,DE", "DE1,NUTS1,XX,DE"])
        with pytest.raises(DanglingParent):
            load_hierarchy(path)

    def test_duplicate_code(self, tmp_path):
        path = write_csv(tmp_path, ["DE,NUTS0,,DE", "DE1,NUTS1,DE,DE", "DE1,NUTS1,DE,DE"])
        with pytest.raises(DuplicateCode):
            load_hierarchy(path)

    def test_unknown_level_token(self, tmp_path):
        path = write_csv(tmp_path, ["DE,NUTS9,,DE"])
        with pytest.raises(UnknownLevel):
            load_hierarchy(path)

    def test_parent_at_wrong_level(self, tmp_path):
        # NUTS2 node pointing straight at a NUTS0 parent
        path = write_csv(tmp_path, ["DE,NUTS0,,DE", "DE11,NUTS2,DE,DE"])
        with pytest.raises(ParentLevelMismatch):
            load_hierarchy(path)

    def test_nuts0_code_must_equal_country(self, tmp_path):
        path = write_csv(tmp_path, ["DX,NUTS0,,DE"])
        with pytest.raises(ParentLevelMismatch):
            load_hierarchy(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("region,level,parent,country\nDE,NUTS0,,DE\n")
        with pytest.raises(UnknownLevel):
            load_hierarchy(path)


class TestQueries:
    def test_descendants_one_step(self, tmp_path):
        h = load_hierarchy(write_csv(tmp_path, ["DE,NUTS0,,DE", "DE1,NUTS1,DE,DE"]))
        assert h.descendants("DE", SpatialLevel.NUTS1) == ["DE1"]

    def test_descendants_sorted(self, mini_hierarchy):
        laus = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)
        assert laus == sorted(laus)
        assert len(laus) == 3

    def test_descendants_self(self, mini_hierarchy):
        assert mini_hierarchy.descendants("AA000", SpatialLevel.NUTS3) == ["AA000"]

    def test_descendants_target_coarser(self, mini_hierarchy):
        with pytest.raises(TargetCoarserThanSource):
            mini_hierarchy.descendants("AA0", SpatialLevel.NUTS0)

    def test_descendants_unknown_code(self, mini_hierarchy):
        with pytest.raises(UnknownRegion):
            mini_hierarchy.descendants("ZZ", SpatialLevel.LAU)

    def test_ancestor_to_root(self, mini_hierarchy):
        assert mini_hierarchy.ancestor("AA_000_0000", SpatialLevel.NUTS0) == "AA"

    def test_ancestor_self(self, mini_hierarchy):
        assert mini_hierarchy.ancestor("AA000", SpatialLevel.NUTS3) == "AA000"

    def test_ancestor_unknown_code(self, mini_hierarchy):
        with pytest.raises(UnknownRegion):
            mini_hierarchy.ancestor("ZZ", SpatialLevel.NUTS0)

    def test_ancestor_target_finer(self, mini_hierarchy):
        with pytest.raises(TargetFinerThanSource):
            mini_hierarchy.ancestor("AA000", SpatialLevel.LAU)

    def test_regions_at_with_country_filter(self, mini_hierarchy):
        assert len(mini_hierarchy.regions_at(SpatialLevel.LAU)) == 12
        assert len(mini_hierarchy.regions_at(SpatialLevel.LAU, "AA")) == 6
        assert mini_hierarchy.regions_at(SpatialLevel.NUTS0) == ["AA", "BB"]

    @pytest.mark.parametrize("level", list(SpatialLevel), ids=lambda level: level.name)
    def test_positions_of_a_whole_level(self, mini_hierarchy, level):
        codes = mini_hierarchy.regions_at(level)
        n = len(codes)
        for whole in (codes, tuple(codes)):
            assert mini_hierarchy.positions(level, whole).tolist() == list(range(n))
            assert mini_hierarchy.rows(level, whole).tolist() == list(range(n))
        assert mini_hierarchy.positions(level, codes[::-1]).tolist() == list(range(n))[::-1]
        other = SpatialLevel(level - 1) if level else SpatialLevel.LAU
        with pytest.raises(UnknownRegion):
            mini_hierarchy.positions(other, codes)


class TestInvariants:
    def test_descendants_ancestor_round_trip(self, mini_hierarchy):
        for code in ["AA", "AA0", "AA00", "AA000", "BB001"]:
            level = mini_hierarchy.node(code).level
            for lau in mini_hierarchy.descendants(code, SpatialLevel.LAU):
                assert mini_hierarchy.ancestor(lau, level) == code

    def test_partition_property(self, mini_hierarchy):
        # Descendant sets of distinct NUTS3 regions are disjoint and cover
        # the country's LAU regions.
        for country in mini_hierarchy.countries():
            seen = []
            for n3 in mini_hierarchy.regions_at(SpatialLevel.NUTS3, country):
                seen.extend(mini_hierarchy.descendants(n3, SpatialLevel.LAU))
            assert sorted(seen) == mini_hierarchy.regions_at(SpatialLevel.LAU, country)
            assert len(seen) == len(set(seen))

    def test_levels_totally_ordered(self):
        order = [
            SpatialLevel.NUTS0,
            SpatialLevel.NUTS1,
            SpatialLevel.NUTS2,
            SpatialLevel.NUTS3,
            SpatialLevel.LAU,
        ]
        for coarse, fine in zip(order, order[1:]):
            assert fine.is_finer_than(coarse)
            assert coarse.is_coarser_than(fine)
        assert SpatialLevel.LAU.is_finer_than(SpatialLevel.NUTS3)

    def test_immutable_nodes(self):
        node = RegionNode("DE", SpatialLevel.NUTS0, None, "DE")
        with pytest.raises(AttributeError):
            node.code = "FR"

    def test_constructed_hierarchy_validates(self):
        with pytest.raises(DanglingParent):
            RegionHierarchy([RegionNode("DE1", SpatialLevel.NUTS1, None, "DE")])

    @pytest.mark.parametrize("nodes", [
        [RegionNode("DE", SpatialLevel.NUTS0, None, "DE"),
         RegionNode("", SpatialLevel.NUTS1, "DE", "DE")],
        [RegionNode("", SpatialLevel.NUTS0, None, "")],  # passes every other check
    ], ids=["child", "root"])
    def test_empty_code_rejected(self, nodes):
        with pytest.raises(HierarchyError, match="empty region code"):
            RegionHierarchy(nodes)
