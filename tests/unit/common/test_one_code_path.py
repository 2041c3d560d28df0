"""Guard against regrowth of the retired off/on switch."""

import pathlib

import repro
import repro.common.hotpath as stub

SRC = pathlib.Path(repro.__file__).parent


def test_no_module_reads_the_switch_and_the_stub_exports_only_the_constant():
    """``repro.common.hotpath`` exists for ``bench/run.py`` only, which
    imports ``HOTPATH`` and refuses to measure unless ``enabled`` is true;
    it goes when that guard does.  No module under ``src/repro`` may
    mention it, so a second code path cannot grow back behind it."""
    mentions = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "common" / "hotpath.py"
        and "hotpath" in path.read_text().lower()
    ]
    assert mentions == []
    assert [name for name in vars(stub) if not name.startswith("__")] == ["HOTPATH"]
    assert stub.HOTPATH.enabled is True
