import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cube_stages_row_on_the_trefoil():
    tool = _tool("cube_stages")
    for _, t, ring in tool.THEORIES:
        row = tool.stages(3, t, ring)
        assert row["generators"] == 30
        assert row["entries"] > 0
        assert min(row["complex_s"], row["validate_s"], row["homology_s"]) >= 0
        assert row["rss_before_mib"] <= row["rss_built_mib"] <= row["rss_end_mib"]
    table = tool.main(["3"])
    assert table == 0
