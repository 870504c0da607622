import gc
from pathlib import Path

import pytest

from healthmap import compile_xml, deserialize

DATA_DIR = Path(__file__).parent / "data"

# Instrument ids in the 9-module CPU fixture: 1 on CPU, 10/20/30/40 on the
# cores, 12/22/32/42 on the FPUs. Module ids: CPU=1, cores 10..40, FPUs
# 12..42. Core k carries OS core id k.
FPU_C0_INSTRUMENT = 12
CPU_C3 = 40


@pytest.fixture(scope="session")
def table1_xml() -> str:
    return (DATA_DIR / "table1.xml").read_text()


@pytest.fixture(scope="session")
def table1_compiled(table1_xml):
    return compile_xml(table1_xml)


@pytest.fixture()
def table1_map(table1_compiled):
    image, _sidecar = table1_compiled
    return deserialize(image)


@pytest.fixture()
def table1_sidecar(table1_compiled):
    return table1_compiled[1]


@pytest.fixture()
def paused_collector():
    """Automatic garbage collection off for the test, as `hm` runs its
    commands; the caller's setting comes back afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
