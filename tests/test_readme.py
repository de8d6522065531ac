"""The README's library sketch runs as written, its study spec parses, its
option lists name every field, its notation paragraph states each
example's canonical form, its network paragraph names the state order,
and its command lines run, so an API change cannot leave them stale."""

import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from thermoforge.cli import main as cli_main
from thermoforge.config import NotationError, parse_notation
from thermoforge.oloc import OlocOptions
from thermoforge.study import StudySpec
from thermoforge.thermal import PhysicsParams, build_physics_graph

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["sol"].status == "optimal"
    assert namespace["traj"].t_stop == namespace["sol"].t_end
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


def test_option_lists_name_every_field():
    # the first sentence of the paragraph that lists each record's fields
    paragraphs = README.read_text().split("\n\n")
    for opening, record in (("OLOC options:", OlocOptions),
                            ("Physics parameters", PhysicsParams)):
        (paragraph,) = [p for p in paragraphs if p.startswith(opening)]
        sentence = re.split(r"\.\s", paragraph, maxsplit=1)[0]
        names = [n for n in re.findall(r"`([^`]+)`", sentence) if n != record.__name__]
        assert sorted(names) == sorted(f.name for f in fields(record)), opening


def test_notation_paragraph_states_the_canonical_forms():
    # `"<given>"` is `"<canonical>"`; any other example is canonical itself,
    # but the one that `fails at position <n>`
    paragraphs = README.read_text().split("\n\n")
    (paragraph,) = [p for p in paragraphs if p.startswith("Notation:")]
    text = " ".join(paragraph.split())
    canonical = dict(re.findall(r'`"(0[^"`]*)"` is `"(0[^"`]*)"`', text))
    ((bad, position),) = re.findall(r'`"(0[^"`]*)"` fails at position (\d+)', text)
    examples = re.findall(r'`"(0[^"`]*)"`', text)
    assert canonical and len(examples) > 2 * len(canonical) + 1
    for example in examples:
        if example != bad:
            assert parse_notation(example).notation == canonical.get(example, example)
    with pytest.raises(NotationError) as err:
        parse_notation(bad)
    assert err.value.position == int(position)


def test_network_paragraph_names_the_node_order():
    # its first sentence names a configuration, then that model's states
    paragraphs = README.read_text().split("\n\n")
    (paragraph,) = [p for p in paragraphs if p.startswith("Thermal network:")]
    sentence = re.split(r"\.\s", paragraph, maxsplit=1)[0]
    (notation, *names) = re.findall(r"`([^`]+)`", sentence)
    graph = parse_notation(notation.strip('"'))
    physics = build_physics_graph(graph, {lab: 1.0 for lab in graph.labels})
    assert tuple(names) == physics.names


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # every line but `run` (the 9-configuration study at 50 segments), in a
    # directory holding the README's layout and study spec
    layout, study = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    (tmp_path / "layout.json").write_text(layout)
    (tmp_path / "study.json").write_text(study)
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                if "thermoforge " in b]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("thermoforge ")]
    assert [argv[0] for argv in commands] == [
        "count", "count", "enumerate", "cluster", "solve", "run"]
    for argv in commands[:-1]:
        assert cli_main(argv) == 0, (argv, capsys.readouterr().err)
