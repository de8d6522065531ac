"""The README's library sketch runs as written, and its study spec parses,
so an API change cannot leave them stale."""

import re
from pathlib import Path

from thermoforge.study import StudySpec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["sol"].status == "optimal"
    assert namespace["traj"].t[-1] == namespace["sol"].t_end
    assert capsys.readouterr().out.split() == [repr(namespace["sol"].t_end), "optimal"]


def test_study_spec_parses(tmp_path):
    # the layout block, then the study.json block that names it
    layout, study = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    (tmp_path / "layout.json").write_text(layout)
    spec = StudySpec.from_json(study, base_dir=tmp_path)
    assert spec.layout.device_count == 6
    assert spec.loads_w == {1: 5000.0, 2: 7000.0, 3: 6000.0, 4: 4000.0,
                            5: 5000.0, 6: 5000.0}
    assert (spec.oloc.segments, spec.oloc.mesh_refinements) == (50, 2)
