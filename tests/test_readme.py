"""README's code blocks run as written, so its quick start cannot go stale."""

import re
from pathlib import Path

from fpekit import dsl, validate

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_the_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_the_json_formats_parse_and_validate():
    blocks = _blocks("json")
    assert blocks
    for text in blocks:
        spec = dsl.parse_spec(text)
        assert validate(spec) == [] and dsl.parse_spec(dsl.serialize_spec(spec)) == spec
