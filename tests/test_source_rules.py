"""The source rules of scripts/check_src.py: each holds on the tree, and
each reports a violation planted in a copy of it at the planted line."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("check_src", ROOT / "scripts" / "check_src.py")
check_src = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_src)

# rule: (module, text after which the violation goes, None for the end of
# the module; the violation, its flagged line marked "# planted"; the
# finding, with {where} for the marked line's "path:line").  The dead
# method goes into a class the imported gsl has, since that rule reads each
# class's bases from it.
PLANTED = {
    "no_assert": ("dense.py", None, "assert True  # planted\n", "{where}"),
    "no_floating_point": ("dense.py", None, "HALF = 0.5  # planted\n", "{where}"),
    "no_broad_except": ("dense.py", None, "try:\n    pass\nexcept Exception:  # planted\n    pass\n", "{where}"),
    "no_dead_code": ("dense.py", None, "def planted():  # planted\n    pass\n", "{where} planted"),
    "public_names_used": ("__init__.py", "__all__ = [\n", '    "planted",  # planted\n', "planted"),
    "no_dead_method": ("errors.py", "class GslError(Exception):\n",
                       "    def planted(self):  # planted\n        return self\n", "{where} GslError.planted"),
    "no_unused_import": ("dense.py", None, "import os  # planted\n", "{where} os"),
    "no_unused_parameter": ("dense.py", None, "def _planted(used, unused):  # planted\n    return used\n",
                            "{where} _planted(unused)"),
    "oracle_independent": ("exact.py", None, "from gsl import padic  # planted\n", "exact -> padic"),
    "stdlib_only": ("dense.py", None, "import sympy  # planted\n", "{where} sympy"),
}


@pytest.fixture(scope="module")
def source():
    return check_src.Source(ROOT)


@pytest.mark.parametrize("check", check_src.RULES, ids=lambda check: check.__name__)
def test_source_rule_holds(source, check):
    found = check(source)
    assert not found, check.message + "\n  " + "\n  ".join(found)


@pytest.mark.parametrize("check", check_src.RULES, ids=lambda check: check.__name__)
def test_source_rule_reports_a_planted_violation(tmp_path, check):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src" / "gsl", tmp_path / "src" / "gsl", ignore=ignore)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=ignore)
    (tmp_path / "docs").mkdir()
    for doc in ("README.md", "docs/formats.md"):
        shutil.copyfile(ROOT / doc, tmp_path / doc)
    module, anchor, violation, finding = PLANTED[check.__name__]
    path = tmp_path / "src" / "gsl" / module
    text = path.read_text()
    text = text + violation if anchor is None else text.replace(anchor, anchor + violation, 1)
    path.write_text(text)
    line = next(i for i, row in enumerate(text.splitlines(), 1) if row.endswith("# planted"))
    assert finding.format(where=f"src/gsl/{module}:{line}") in check(check_src.Source(tmp_path))
