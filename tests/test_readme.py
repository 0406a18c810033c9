"""The README's library quick start runs and prints what its comments say."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_quick_start_prints_what_its_comments_state():
    block = quick_start_block()
    # the value after "# " on each print line, in order
    stated = [m.group(1) for m in re.finditer(r"^print\(.*\)\s+# (.+)$", block, re.M)]
    assert stated == ["True", "0.0", "cX(d=2) target=D.info control=D.shield2"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the reduce loop prints its branches between the verdict lines and the record
    assert [lines[0], lines[1], lines[-1]] == stated
    assert len(lines) == 5
