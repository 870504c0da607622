import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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

from helpers import nest_xml

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


def test_template_overlap_outranks_duplicate_id():
    # module 11 is also declared outside both templates: the overlap is
    # still what gets reported, as when templates were expanded first
    text = """<healthmap version="1">
      <module id="1" name="TOP" criticality="ZERO">
        <module id="11" name="X" criticality="LOW"/>
        <template name="a" count="2" baseId="10" idStride="1">
          <module id="0" name="A{i}" criticality="LOW"/>
        </template>
        <template name="b" count="2" baseId="11" idStride="1">
          <module id="0" name="B{i}" criticality="LOW"/>
        </template>
      </module>
    </healthmap>"""
    with pytest.raises(IdRangeCollisionError,
                       match="^line 4: module id 11 already claimed by "
                             "template at line 7$"):
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


@pytest.mark.parametrize("body, where", [
    ('<module id="1" name="A" criticality="LOW">'
     '<instrument id="1" kind="0">\n\n'
     '<module id="5" name="X" criticality="LOW"/></instrument></module>',
     "<module> inside <instrument>"),
    ('<module id="1" name="A" criticality="LOW">\n'
     '<instrument id="1" kind="0">\n'
     '<template name="t" count="1" baseId="5" idStride="1">'
     '<module id="0" name="X" criticality="LOW"/></template>'
     '</instrument></module>',
     "<template> inside <instrument>"),
    ('<module id="1" name="A" criticality="LOW"/>'
     '<module id="2" name="B" criticality="LOW"/>\n\n'
     '<dependency provider="1" dependent="2" severity="LOW"><widget/>'
     '</dependency>',
     "<widget> inside <dependency>"),
], ids=["module-in-instrument", "template-in-instrument",
        "widget-in-dependency"])
def test_child_of_leaf_element_rejected_with_its_line(body, where):
    # these used to be dropped silently: module 5 never reached the image
    with pytest.raises(SchemaViolationError) as exc:
        parse_description(f'<healthmap version="1">{body}</healthmap>')
    assert str(exc.value) == f"line 3: unexpected element {where}"


# -- templates against the same forest written out by hand -------------------

CRITICALITIES = ["ZERO", "LOW", "MEDIUM", "HIGH"]


@st.composite
def forests(draw):
    """A random description as nested dicts: modules, instruments and
    templates (at the root and under modules, never inside another
    template), with "{i}" in names and core ids, plus dependencies given as
    index pairs into the expanded module list."""
    def items(depth, at_root, in_template):
        out = []
        for _ in range(draw(st.integers(0, 3 if depth < 4 else 0))):
            tags = ["module"]
            if not at_root:
                tags.append("instrument")
            if not in_template:
                tags.append("template")
            tag = draw(st.sampled_from(tags))
            if tag == "module":
                out.append({
                    "tag": tag,
                    "crit": draw(st.sampled_from(CRITICALITIES)),
                    "name_i": draw(st.booleans()),
                    "core": draw(st.sampled_from(
                        [None, "{i}", "1{i}", "7"] if in_template
                        else [None, "7"])),
                    "children": items(depth + 1, False, in_template)})
            elif tag == "instrument":
                out.append({"tag": tag, "kind": draw(st.integers(0, 255))})
            else:
                out.append({"tag": tag,
                            "count": draw(st.integers(0, 3)),
                            "gap": draw(st.integers(0, 2)),
                            "body": items(depth + 1, at_root, True)})
        return out

    forest = items(0, True, False)
    deps = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                                   st.sampled_from(CRITICALITIES[1:])),
                         max_size=4))
    _annotate(forest, [1], None, None)
    return forest, deps


def _annotate(items, next_id, local, prefix):
    """Give every element its id (a local one inside a template), every
    template its baseId and idStride, and every module a name unique among
    its siblings in the expanded tree."""
    for pos, item in enumerate(items):
        if item["tag"] == "template":
            body_ids = [0]
            _annotate(item["body"], next_id, body_ids, f"T{pos}x")
            item["stride"] = body_ids[0] + item["gap"]
            item["base"] = next_id[0]
            next_id[0] += item["count"] * item["stride"] + 1
            continue
        counter = next_id if local is None else local
        item["id"] = counter[0]
        counter[0] += 1
        if item["tag"] == "module":
            item["name"] = (f"{prefix}{pos}_{{i}}" if prefix
                            else f"M{pos}" + "{i}" * item["name_i"])
            _annotate(item["children"], next_id, local, None)


def _element(item, ident, sub):
    if item["tag"] == "instrument":
        return f'<instrument id="{ident}" kind="{item["kind"]}"/>'
    core = f' coreId="{sub(item["core"])}"' if item["core"] else ""
    return (f'<module id="{ident}" name="{sub(item["name"])}" '
            f'criticality="{item["crit"]}"{core}>')


def _templated(items):
    out = []
    for item in items:
        if item["tag"] == "template":
            out.append(f'<template name="t" count="{item["count"]}" '
                       f'baseId="{item["base"]}" idStride="{item["stride"]}">')
            out += _templated(item["body"])
            out.append("</template>")
        else:
            out.append(_element(item, item["id"], lambda text: text))
            if item["tag"] == "module":
                out += _templated(item["children"])
                out.append("</module>")
    return out


def _inline(items, offset, index, module_ids):
    def sub(text):
        return text if index is None else text.replace("{i}", str(index))

    out = []
    for item in items:
        if item["tag"] == "template":
            for k in range(item["count"]):
                out += _inline(item["body"], item["base"] + k * item["stride"],
                               k, module_ids)
            continue
        ident = item["id"] + (offset or 0)
        out.append(_element(item, ident, sub))
        if item["tag"] == "module":
            module_ids.append(ident)
            out += _inline(item["children"], offset, index, module_ids)
            out.append("</module>")
    return out


def _render(forest, deps):
    """The forest as written with templates and as written out by hand."""
    module_ids = []
    inline = _inline(forest, None, None, module_ids)
    tail = []
    for a, b, severity in deps:
        if len(module_ids) > 1 and a % len(module_ids) != b % len(module_ids):
            tail.append(f'<dependency provider="{module_ids[a % len(module_ids)]}" '
                        f'dependent="{module_ids[b % len(module_ids)]}" '
                        f'severity="{severity}"/>')
    return ("\n".join(['<healthmap version="1">', *_templated(forest), *tail,
                       "</healthmap>"]),
            "\n".join(['<healthmap version="1">', *inline, *tail,
                       "</healthmap>"]))


@settings(max_examples=150, deadline=None)
@given(forests())
def test_templates_compile_like_the_forest_written_out(case):
    templated, inline = _render(*case)
    assert parse_description(templated) == parse_description(inline)
    image, sidecar = compile_xml(templated)
    inline_image, inline_sidecar = compile_xml(inline)
    assert image == inline_image
    assert sidecar.format() == inline_sidecar.format()


def _templates(items, found):
    for item in items:
        if item["tag"] == "template":
            if item["count"] and item["body"]:
                found.append((items, item))
        else:
            _templates(item.get("children", ()), found)
    return found


@settings(max_examples=100, deadline=None)
@given(forests(), st.data())
def test_overlapping_template_instances_collide(case, data):
    forest, deps = case
    candidates = _templates(forest, [])
    assume(candidates)
    siblings, template = data.draw(st.sampled_from(candidates))
    # a second template whose first instance lands on an instance of this one
    shift = data.draw(st.integers(0, template["count"] - 1))
    siblings.insert(data.draw(st.integers(0, len(siblings))),
                    dict(template, base=template["base"]
                         + shift * template["stride"]))
    templated, _inline_text = _render(forest, deps)
    with pytest.raises(IdRangeCollisionError):
        parse_description(templated)


# -- depth ---------------------------------------------------------------------

def test_parse_twenty_thousand_deep_nest():
    desc = parse_description(f'<healthmap version="1">{nest_xml(20_000)}'
                             f'</healthmap>')
    depth, level = 0, desc.modules
    while level:
        assert len(level) == 1 and level[0].id == depth
        depth, level = depth + 1, level[0].children
    assert depth == 20_000


def test_template_instance_two_thousand_deep():
    head = '<healthmap version="1"><module id="1" name="TOP" criticality="ZERO">'
    tail = "</module></healthmap>"
    templated = (f'{head}<template name="deep" count="2" baseId="10" '
                 f'idStride="5000">{nest_xml(2_000, 0, "C{i}")}</template>'
                 f'{tail}')
    inline = (f'{head}{nest_xml(2_000, 10, "C0")}'
              f'{nest_xml(2_000, 5010, "C1")}{tail}')
    image, sidecar = compile_xml(templated)
    inline_image, inline_sidecar = compile_xml(inline)
    assert image == inline_image
    assert sidecar.format() == inline_sidecar.format()
    assert len(deserialize(image).modules) == 4_001
