"""The public names, pinned: adding or removing one is a visible change."""

import re
from pathlib import Path

import fpekit
from fpekit import analysis, ranking

PACKAGE = {
    # errors
    "BadParameter", "CsvFieldError", "EntropyUnavailable", "ExampleFormatMismatch",
    "FpeError", "InputOutOfDomain", "InvalidFormat", "NotInFormat", "NotSubset",
    "ParseFailure", "RankOutOfRange", "SpecSyntaxError", "UnknownNodeType",
    "UnsplittableAtom", "VectorShapeMismatch", "WalkBudgetExceeded",
    # formats
    "Ccn", "Concat", "Date", "DelimStringSet", "DelimVarString", "FixedString",
    "IntegralDomain", "Range", "Ssn", "StringSet", "Union", "VarString", "Violation",
    "alphabet", "contains", "ensure_valid", "enumerate_members", "size",
    "validate",
    # ranking
    "Rank", "rank", "unrank",
    # dsl
    "parse_charset", "parse_spec", "serialize_charset", "serialize_spec",
    # intfpe
    "Fe1Backend", "IntFpeKey", "WalkRecorder", "cycle_walk_decrypt", "cycle_walk_encrypt",
    "read_key_file", "write_key_file",
    # splitting
    "RankVector", "build_plan", "path_signature", "rank_multi", "unrank_multi",
    # cipher
    "CipherConfig", "decrypt", "encrypt", "format_fingerprint", "keygen",
}

ANALYSIS = {
    "sgfpe_signature", "SgfpeScheme", "GfpeScheme", "IdentificationCurve", "BenchReport",
    "expansion_and_cycles", "records_format",
}

RANKING = {"Rank", "rank", "unrank"}


def test_the_public_names_are_pinned():
    for module, names in ((fpekit, PACKAGE), (analysis, ANALYSIS), (ranking, RANKING)):
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        assert set(module.__all__) == names, module.__name__
        assert all(hasattr(module, name) for name in names), module.__name__
    assert (len(PACKAGE), len(ANALYSIS), len(RANKING)) == (59, 7, 3)


def test_the_version_is_the_one_pyproject_declares():
    # a regex, since tomllib is not in every supported Python
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, flags=re.M | re.S).group(1)
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, flags=re.M).group(1)
    assert fpekit.__version__ == declared
