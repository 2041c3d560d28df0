"""Guard against regrowth of hand-written codecs.

A byte layout — of a protocol message, an ordered op, a reply, a migration
payload or chunk, the tx-table image — is declared once, as a class's
``LAYOUT``; ``@message`` compiles ``encode``/``decode``/``body_size`` from
it.  A method of one of those names written into a class body, or an
``Encoder()``/``Decoder()`` anywhere outside ``pbft/wire.py``, would be a
second statement of a layout that nothing holds to the first.
"""

import ast
import dataclasses
import pathlib

import repro
import repro.apps.kvstore as kvstore
import repro.apps.sqlapp as sqlapp
import repro.membership.messages as membership_messages
import repro.pbft.messages as pbft_messages
import repro.shard.txapp as txapp

from repro.pbft.wire import Atom, boxed, raw, tagged

SRC = pathlib.Path(repro.__file__).parent
MESSAGE_MODULES = (pbft_messages, membership_messages)
OP_MODULES = (kvstore, sqlapp, txapp)
MODULES = MESSAGE_MODULES + OP_MODULES
CODEC_NAMES = {
    "encode", "decode", "body_size", "encode_header",
    "encode_into", "decode_from", "size", "encode_op", "decode_op",
}


def message_classes(*modules):
    for module in modules or MODULES:
        for cls in vars(module).values():
            if isinstance(cls, type) and hasattr(cls, "LAYOUT") and cls.__module__ == module.__name__:
                yield cls


def class_nodes(module):
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def test_no_message_class_writes_a_codec_method_or_a_struct_in_its_body():
    for module in MODULES:
        declared = {cls.__name__ for cls in message_classes(module)}
        for node in class_nodes(module):
            if node.name not in declared:
                continue  # an application, not a wire class
            bound = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bound.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    bound |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            assert not bound & CODEC_NAMES, (module.__name__, node.name)
            structs = {name for name in bound if name[0] == "_" and name[1:].isupper()}
            assert not structs, (module.__name__, node.name)  # the old _HEAD/_FLAGS/_LAYOUT
    for module in MESSAGE_MODULES:  # (kvstore packs its *slots* with one, not its ops)
        assert "struct" not in vars(module), module.__name__


def test_every_message_class_has_a_layout_naming_each_field_once():
    nodes = {node.name: node for module in MODULES for node in class_nodes(module)}
    assert len(list(message_classes(*MESSAGE_MODULES))) == 21
    assert [len(list(message_classes(module))) for module in OP_MODULES] == [3, 6, 34]
    for cls in message_classes():
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
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
            assert pbft_messages.MESSAGES.classes[bytes([cls.TAG])] is cls


def test_every_family_registers_its_classes_under_distinct_tags():
    families = {
        pbft_messages.MESSAGES: 18, kvstore.KV_OP: 2, sqlapp.SQL_REPLY: 4,
        txapp.TX_OP: 15, txapp.TX_REPLY: 9, txapp.UNIT: 2,
    }
    for family, size in families.items():
        assert len(family.classes) == size, family.__name__
        for tag, cls in family.classes.items():
            assert bytes(cls.LAYOUT.prefix[: family.width]) == tag
    # Every class with leading constant bytes is in exactly one family,
    # system ops and the page image (0xFF.., "TXS1") aside.
    registered = [cls for family in families for cls in family.classes.values()]
    assert len(registered) == len(set(registered))
    loose = {cls.__name__ for cls in message_classes() if cls.LAYOUT.prefix} - {
        cls.__name__ for cls in registered}
    assert loose == {"Join2Payload", "ReconfigPayload", "SqlOp", "TxTableImage"}


def test_no_encoder_or_decoder_is_built_outside_the_wire_module():
    """``Encoder(...)`` / ``Decoder(...)`` anywhere else in ``src/repro`` is a
    hand-written codec: the classes stay (``bench/`` and tests use them as
    an independent statement of the formats), their call sites do not."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "pbft" / "wire.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("Encoder", "Decoder"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders


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
    if isinstance(kind, tagged):
        return kind.__name__
    return f"seq({', '.join(map(spell, kind.item))})"


def layout_table(*modules) -> str:
    """DESIGN.md section 7's tables, from the layouts themselves — the protocol
    messages', then one per module of the op families: ``PYTHONPATH=src python
    -c "from tests.unit.pbft.test_wire_table import *; print(layout_table());
    [print(layout_table(m)) for m in OP_MODULES]"``."""
    rows = ["| class | leading bytes | fields, in wire order |", "|---|---|---|"]
    for cls in message_classes(*modules or MESSAGE_MODULES):
        spec = cls.LAYOUT
        fields = ", ".join(
            f"`{name}` {spell(kind)}" + " ‖" * (name == spec.header_through)
            for name, kind in spec.fields.items()
        )
        rows.append(f"| `{cls.__name__}` | {bytes(spec.prefix).hex(' ') or '—'} | {fields} |")
    return "\n".join(rows)


def test_design_md_carries_the_table_the_layouts_generate():
    design = (SRC.parent.parent / "DESIGN.md").read_text()
    assert layout_table() in design
    for module in OP_MODULES:
        assert layout_table(module) in design, module.__name__
