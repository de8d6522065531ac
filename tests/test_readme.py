"""The README's library sketch runs as written, so an API change cannot
leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["sol"].status == "optimal"
    assert namespace["traj"].t[-1] == namespace["sol"].t_end
    assert capsys.readouterr().out.split() == [repr(namespace["sol"].t_end), "optimal"]
