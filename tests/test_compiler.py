import pytest

from healthmap import (
    Sidecar,
    compile_xml,
    deserialize,
    parse_description,
)
from healthmap.compiler import build_map, compile_description
from healthmap.errors import (
    BadEnumValueError,
    DuplicateIdError,
    IdRangeCollisionError,
    SchemaViolationError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from healthmap.model import Severity

MINIMAL = '<healthmap version="1"><module id="1" name="SOC" criticality="ZERO"/></healthmap>'


def test_minimal_document():
    desc = parse_description(MINIMAL)
    assert len(desc.modules) == 1
    assert desc.modules[0].name == "SOC"


def test_xml_syntax_error():
    with pytest.raises(XmlSyntaxError):
        parse_description("<healthmap><module></healthmap>")


def test_duplicate_module_id_reports_both_lines():
    text = """<healthmap version="1">
      <module id="3" name="A" criticality="ZERO"/>
      <module id="3" name="B" criticality="ZERO"/>
    </healthmap>"""
    with pytest.raises(DuplicateIdError) as exc:
        parse_description(text)
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_dependency_to_missing_module():
    text = """<healthmap version="1">
      <module id="1" name="A" criticality="ZERO"/>
      <dependency provider="1" dependent="99" severity="LOW"/>
    </healthmap>"""
    with pytest.raises(UnresolvedReferenceError):
        parse_description(text)


def test_bad_enum_value():
    text = ('<healthmap version="1">'
            '<module id="1" name="A" criticality="SEVERE"/></healthmap>')
    with pytest.raises(BadEnumValueError):
        parse_description(text)


def test_unknown_element_rejected():
    text = ('<healthmap version="1">'
            '<widget id="1"/></healthmap>')
    with pytest.raises(SchemaViolationError):
        parse_description(text)


def test_empty_healthmap_compiles_to_header_only():
    image, sidecar = compile_xml('<healthmap version="1"/>')
    assert len(image) == 32
    assert sidecar.names() == {}


def test_table1_fixture_compiles(table1_xml, table1_sidecar):
    image, sidecar = compile_xml(table1_xml)
    hm = deserialize(image)
    assert len(hm.modules) == 9
    assert len(hm.diag_resources) == 9
    assert len(hm.faults) == 0
    assert len(hm.detections) == 0
    names = sorted(sidecar.names().values())
    assert names == sorted([
        "CPU", "CPU.C0", "CPU.C0.FPU", "CPU.C1", "CPU.C1.FPU",
        "CPU.C2", "CPU.C2.FPU", "CPU.C3", "CPU.C3.FPU"])


def test_core_id_passthrough(table1_xml):
    _image, sidecar = compile_xml(table1_xml)
    assert sidecar.core_modules() == {10: 0, 20: 1, 30: 2, 40: 3}


def test_compile_is_deterministic(table1_xml):
    first = compile_xml(table1_xml)
    second = compile_xml(table1_xml)
    assert first[0] == second[0]
    assert first[1].format() == second[1].format()


def test_compiled_image_round_trips(table1_xml):
    image, _ = compile_xml(table1_xml)
    from healthmap import serialize
    assert serialize(deserialize(image)) == image


def test_template_count_one_equals_inline():
    templated = """<healthmap version="1">
      <module id="1" name="TOP" criticality="ZERO">
        <template name="u" count="1" baseId="10" idStride="10">
          <module id="0" name="U{i}" criticality="LOW">
            <instrument id="1" kind="3"/>
          </module>
        </template>
      </module>
    </healthmap>"""
    inline = """<healthmap version="1">
      <module id="1" name="TOP" criticality="ZERO">
        <module id="10" name="U0" criticality="LOW">
          <instrument id="11" kind="3"/>
        </module>
      </module>
    </healthmap>"""
    assert parse_description(templated) == parse_description(inline)


def test_template_expansion_matches_manual(table1_xml):
    manual_parts = ['<healthmap version="1">',
                    '<module id="1" name="CPU" criticality="ZERO">',
                    '<instrument id="1" kind="0"/>']
    for k in range(4):
        base = 10 * (k + 1)
        manual_parts.append(
            f'<module id="{base}" name="C{k}" criticality="LOW" '
            f'coreId="{k}">'
            f'<instrument id="{base}" kind="1"/>'
            f'<module id="{base + 2}" name="FPU" criticality="LOW">'
            f'<instrument id="{base + 2}" kind="2"/>'
            f'</module></module>')
    manual_parts += ['</module>', '</healthmap>']
    manual = "".join(manual_parts)
    assert compile_xml(table1_xml)[0] == compile_xml(manual)[0]


def test_overlapping_template_id_ranges():
    text = """<healthmap version="1">
      <module id="1" name="TOP" criticality="ZERO">
        <template name="a" count="2" baseId="10" idStride="1">
          <module id="0" name="A{i}" criticality="LOW"/>
        </template>
        <template name="b" count="2" baseId="11" idStride="1">
          <module id="0" name="B{i}" criticality="LOW"/>
        </template>
      </module>
    </healthmap>"""
    with pytest.raises(IdRangeCollisionError):
        parse_description(text)


def test_duplicate_dotted_names_rejected():
    text = """<healthmap version="1">
      <module id="1" name="A" criticality="ZERO"/>
      <module id="2" name="A" criticality="ZERO"/>
    </healthmap>"""
    with pytest.raises(SchemaViolationError):
        compile_description(parse_description(text))


def test_fpu_criticality_caps_core_row(table1_xml):
    # min(HIGH, c_FPU) must be LOW for the reference table to show LOW
    desc = parse_description(table1_xml)
    hm, sidecar = build_map(desc)
    fpu = hm.modules[sidecar.id_for_name("CPU.C0.FPU")]
    assert fpu.criticality == Severity.LOW


def test_sidecar_round_trip(table1_xml):
    _image, sidecar = compile_xml(table1_xml)
    again = Sidecar.parse(sidecar.format())
    assert again.names() == sidecar.names()
    assert again.core_modules() == sidecar.core_modules()


def test_sidecar_id_for_name_first_inserted_id_wins():
    sidecar = Sidecar.parse("7 A\n3 B\n5 A\n")
    assert sidecar.id_for_name("A") == 7
    assert sidecar.id_for_name("B") == 3
    assert sidecar.id_for_name("C") is None
    # a repeated id renames its module: the old name passes to the next id
    sidecar.add(7, "C")
    assert sidecar.id_for_name("A") == 5
    assert sidecar.id_for_name("C") == 7
