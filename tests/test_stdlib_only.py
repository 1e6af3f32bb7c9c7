"""natsim is stdlib-only: `src/natsim` imports nothing but the standard
library and itself, on every Python version the tests run on."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "natsim"


def test_src_imports_only_the_standard_library():
    allowed = sys.stdlib_module_names | {"natsim"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert len(list(SRC.glob("*.py"))) > 1 and not outside, outside
