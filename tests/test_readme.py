"""The README's config documentation against the config parser."""

import re
from pathlib import Path

from nnmetric.harness import _SCHEMA, ExperimentConfig, parse_config_text

README = Path(__file__).resolve().parent.parent / "README.md"


def config_section() -> str:
    """The README text from the config-format heading to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index("### Config format")
    end = text.index("\n### ", start + 1)
    return text[start:end]


def test_key_table_lists_exactly_the_schema_keys():
    lines = config_section().splitlines()
    header = lines.index("| Key | Meaning | Default |")
    keys = []
    for line in lines[header + 2 :]:
        if not line.startswith("|"):
            break
        first_cell = line.split("|")[1]
        keys += re.findall(r"`([^`]+)`", first_cell)
    assert len(keys) == len(set(keys))
    assert sorted(keys) == sorted(_SCHEMA)


def test_ini_example_resolves():
    example = re.search(r"```ini\n(.*?)```", config_section(), re.DOTALL).group(1)
    config = ExperimentConfig.from_mapping(parse_config_text(example))
    assert config.task == "regress"
    assert config.methods == ("euclidean", "gw", "egop")
