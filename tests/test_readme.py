"""The README's library sketch runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_prints_its_commented_values():
    (sketch,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL)
    expected = [line.split("#", 1)[1].strip() for line in sketch.splitlines() if line.startswith("print(")]
    assert expected == ["4 6", "Certified", "Certified"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
