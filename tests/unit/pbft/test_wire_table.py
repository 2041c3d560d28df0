"""Guard against regrowth of hand-written codecs.

A message's byte layout is declared once, as its ``LAYOUT``; ``@message``
compiles ``encode``/``decode``/``body_size`` from it.  A method of one of
those names written into a class body would be a second statement of the
layout that nothing holds to the first.
"""

import ast
import dataclasses
import pathlib

import repro
import repro.membership.messages as membership_messages
import repro.pbft.messages as pbft_messages

from repro.pbft.wire import Atom, boxed, raw

SRC = pathlib.Path(repro.__file__).parent
MODULES = (pbft_messages, membership_messages)
CODEC_NAMES = {
    "encode", "decode", "body_size", "encode_header",
    "encode_into", "decode_from", "size", "encode_op", "decode_op",
}


def message_classes():
    for module in MODULES:
        for cls in vars(module).values():
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                yield cls


def class_nodes(module):
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_no_message_class_writes_a_codec_method_or_a_struct_in_its_body():
    for module in MODULES:
        for node in class_nodes(module):
            bound = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    bound |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            assert not bound & CODEC_NAMES, (module.__name__, node.name)
            structs = {name for name in bound if name[0] == "_" and name[1:].isupper()}
            assert not structs, (module.__name__, node.name)  # the old _HEAD/_FLAGS/_LAYOUT
        assert "struct" not in vars(module), module.__name__


def test_every_message_class_has_a_layout_naming_each_field_once():
    nodes = {node.name: node for module in MODULES for node in class_nodes(module)}
    classes = list(message_classes())
    assert len(classes) == 21
    for cls in classes:
        fields = sorted(f.name for f in dataclasses.fields(cls))
        assert sorted(cls.LAYOUT.fields) == fields, cls.__name__
        # ...and in the source: one ``LAYOUT = layout(...)`` whose keywords
        # are the fields (a repeated keyword would not even compile).
        (call,) = [
            stmt.value for stmt in nodes[cls.__name__].body
            if isinstance(stmt, ast.Assign) and stmt.targets[0].id == "LAYOUT"
        ]
        assert call.func.id == "layout"
        named = sorted(kw.arg for kw in call.keywords if kw.arg != "header_through")
        assert named == fields, cls.__name__
        if hasattr(cls, "TAG"):
            assert cls.LAYOUT.prefix == (cls.TAG,)
            assert pbft_messages._TAG_TO_CLASS[cls.TAG] is cls


def test_the_wire_table_lives_in_the_files_it_always_did():
    assert sorted(path.name for path in (SRC / "pbft").iterdir() if path.suffix == ".py") == [
        "__init__.py", "admission.py", "client.py", "cluster.py", "config.py", "log.py",
        "messages.py", "node.py", "nondet.py", "reconfig.py", "recovery.py", "replica.py",
        "viewchange.py", "wire.py",
    ]


def spell(kind) -> str:
    """A kind as a layout writes it."""
    if isinstance(kind, type):
        return kind.__name__
    if isinstance(kind, Atom):
        return f"enum{kind.allowed}" if kind.allowed else kind.name
    if isinstance(kind, raw):
        charged = "" if kind.charged == kind.size else f", charged={kind.charged}"
        return f"raw({kind.size}{charged})"
    if isinstance(kind, boxed):
        return f"boxed({kind.cls.__name__})"
    return f"seq({', '.join(map(spell, kind.item))})"


def layout_table() -> str:
    """DESIGN.md section 7's per-message table, from the layouts themselves:
    ``PYTHONPATH=src python -c "from tests.unit.pbft.test_wire_table import
    layout_table; print(layout_table())"``."""
    rows = ["| class | leading bytes | fields, in wire order |", "|---|---|---|"]
    for cls in message_classes():
        spec = cls.LAYOUT
        fields = ", ".join(
            f"`{name}` {spell(kind)}" + " ‖" * (name == spec.header_through)
            for name, kind in spec.fields.items()
        )
        rows.append(f"| `{cls.__name__}` | {bytes(spec.prefix).hex(' ') or '—'} | {fields} |")
    return "\n".join(rows)


def test_design_md_carries_the_table_the_layouts_generate():
    assert layout_table() in (SRC.parent.parent / "DESIGN.md").read_text()
