import gc
import re
from pathlib import Path

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
    FieldRangeError,
    HealthMapError,
    IdRangeCollisionError,
    SchemaViolationError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from healthmap.model import Severity, quote_token

from helpers import nest_xml, reference_parse_description

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


def _in_top(body: str) -> str:
    return ('<healthmap version="1">\n'
            '<module id="1" name="TOP" criticality="ZERO">\n'
            f'{body}</module>\n</healthmap>')


@pytest.mark.parametrize("body, error, message", [
    # "-0" is a valid core id, "-1" is not
    ('<template name="c" count="2" baseId="10" idStride="10">\n'
     '<module id="0" name="C{i}" criticality="LOW" coreId="-{i}"/>\n'
     '</template>\n', SchemaViolationError,
     "line 4: attribute coreId='-1' must be >= 0"),
    # instance 0 of b lands on 8, instance 1 on 10, which a claimed
    ('<template name="a" count="3" baseId="10" idStride="1">\n'
     '<module id="0" name="A{i}" criticality="LOW"/>\n</template>\n'
     '<template name="b" count="2" baseId="8" idStride="2">\n'
     '<module id="0" name="B{i}" criticality="LOW"/>\n</template>\n',
     IdRangeCollisionError,
     "line 3: module id 10 already claimed by template at line 6"),
    # a stride too short for the body: instance 1's instrument 11 is
    # instance 0's second one
    ('<template name="a" count="2" baseId="10" idStride="1">\n'
     '<module id="0" name="A{i}" criticality="LOW">\n'
     '<instrument id="0" kind="1"/>\n<instrument id="1" kind="1"/>\n'
     '</module>\n</template>\n', IdRangeCollisionError,
     "line 3: instrument id 11 already claimed by template at line 3"),
    # stride 0: instance 1 claims instance 0's id before its coreId "-1"
    # is read
    ('<template name="a" count="2" baseId="10" idStride="0">\n'
     '<module id="0" name="A{i}" criticality="LOW" coreId="-{i}"/>\n'
     '</template>\n', IdRangeCollisionError,
     "line 3: module id 10 already claimed by template at line 3"),
    # instance 1 repeats an id declared outside any template
    ('<module id="12" name="X" criticality="LOW"/>\n'
     '<template name="a" count="2" baseId="10" idStride="2">\n'
     '<module id="0" name="A{i}" criticality="LOW"/>\n</template>\n',
     DuplicateIdError, "duplicate module id 12 at lines 3 and 5"),
    ('<template name="a" count="2" baseId="10" idStride="2">\n'
     '<module id="0" name="A{i}" criticality="LOW"/>\n</template>\n'
     '<module id="12" name="X" criticality="LOW"/>\n',
     DuplicateIdError, "duplicate module id 12 at lines 4 and 6"),
    # the colliding id is read before the bad criticality
    ('<template name="a" count="2" baseId="10" idStride="1">\n'
     '<module id="0" name="A{i}" criticality="LOW"/>\n</template>\n'
     '<template name="b" count="1" baseId="11" idStride="1">\n'
     '<module id="0" name="B{i}" criticality="BAD"/>\n</template>\n',
     IdRangeCollisionError,
     "line 3: module id 11 already claimed by template at line 6"),
], ids=["core-id-at-instance-1", "collision-at-instance-1",
        "instrument-collision-at-instance-1", "collision-before-core-id",
        "duplicate-at-instance-1", "duplicate-after-instances",
        "collision-before-criticality"])
def test_instance_refusal_is_the_walks_first(body, error, message):
    # each refusal is met at one instance of an element, in walk order
    with pytest.raises(error) as exc:
        parse_description(_in_top(body))
    assert str(exc.value) == message


@pytest.mark.parametrize("body, message", [
    ('<module id="x" name="" criticality="SEVERE" bogus="1"><widget/>'
     '</module>', "line 1: unknown module attributes ['bogus']"),
    ('<module id="x" name="" criticality="SEVERE"><widget/></module>',
     "line 1: <module> missing attribute 'name'"),
    ('<module id="x" name="A" criticality="SEVERE"><widget/></module>',
     "line 1: attribute id='x' is not an integer"),
    ('<module id="0" name="A" criticality="SEVERE"><widget/></module>',
     "line 1: bad criticality value 'SEVERE'"),
    ('<module id="0" name="A" criticality="LOW"><widget/></module>',
     "line 1: <widget> not allowed inside a template"),
    ('<module id="0" name="A" criticality="LOW" coreId="1-{i}"/>',
     "line 1: attribute coreId='1-0' is not an integer"),
    ('<instrument id="0" kind="1"/>',
     "line 1: unexpected element <instrument> under <healthmap>"),
    ('<dependency provider="1" dependent="2" severity="LOW"/>',
     "line 1: <dependency> not allowed inside a template"),
], ids=["unknown-attribute", "empty-name", "bad-id", "bad-criticality",
        "unknown-child", "bad-core-id", "instrument-at-root",
        "dependency"])
@pytest.mark.parametrize("count", ["0", "1"])
def test_empty_template_body_is_checked_as_instance_0(count, body, message):
    # a count-0 template expands to nothing, but its body is read and
    # checked as its instance 0 would be, with the same first error
    text = (f'<healthmap version="1"><template name="t" count="{count}" '
            f'baseId="0" idStride="1">{body}</template></healthmap>')
    with pytest.raises(HealthMapError) as exc:
        parse_description(text)
    assert str(exc.value) == message


def test_valid_empty_template_claims_no_id_and_adds_nothing():
    # its body's ids collide with a module and an instrument outside it,
    # and a dependency names its module: none of them is declared
    empty = ('<template name="c" count="0" baseId="1" idStride="10">\n'
             '<module id="0" name="C{i}" criticality="LOW" coreId="{i}">\n'
             '<instrument id="6" kind="1"/>\n'
             '<module id="1" name="F" criticality="LOW"/>\n'
             '</module>\n<instrument id="5" kind="1"/>\n</template>\n')
    plain = _in_top('<instrument id="7" kind="1"/>\n')
    image, sidecar = compile_xml(plain)
    templated = plain.replace("</module>", f"{empty}</module>", 1)
    assert compile_xml(templated)[0] == image
    assert compile_xml(templated)[1].format() == sidecar.format()
    assert parse_description(templated) == parse_description(plain)
    with pytest.raises(UnresolvedReferenceError):
        parse_description(templated.replace(
            "</healthmap>", '<dependency provider="1" dependent="2" '
                            'severity="LOW"/></healthmap>'))


def test_template_bound_counts_what_was_declared_before_it():
    # the header's R count is u16: two instruments declared by hand and
    # one by each of 65 534 instances would need 65 536
    text = """<healthmap version="1">
      <module id="1" name="TOP" criticality="ZERO">
        <instrument id="1" kind="0"/>
        <instrument id="2" kind="0"/>
        <template name="a" count="{count}" baseId="10" idStride="1">
          <module id="0" name="A{{i}}" criticality="LOW">
            <instrument id="0" kind="0"/>
          </module>
        </template>
      </module>
    </healthmap>"""
    with pytest.raises(SchemaViolationError,
                       match="^line 5: template takes the declared "
                             "instruments to 65536, above 65535$"):
        parse_description(text.format(count=65534))
    assert len(parse_description(text.format(count=3)).modules[0]
               .children) == 3
    # an empty template may run to the largest count
    parse_description('<healthmap version="1"><template name="e" '
                      'count="65535" baseId="0" idStride="1"/></healthmap>')


@pytest.mark.parametrize("count, shown", [
    ("9" * 158, f"'{'9' * 40}'... (158 characters)"),
    ("0x" + "f" * 4000, "<16000-bit integer>"),
])
def test_long_template_count_is_quoted(count, shown):
    # a count past the cap is named by quote_int: one of more than 40
    # digits by its head and length, one past str()'s digit limit by its
    # bit length
    text = (f'<healthmap version="1"><template name="t" count="{count}" '
            f'baseId="0" idStride="1"/></healthmap>')
    with pytest.raises(SchemaViolationError) as exc:
        parse_description(text)
    assert str(exc.value) == f"line 1: template count {shown} above 65535"


LONG_NAME = "n" * 3000
MODULE_A = '<module id="1" name="A" criticality="LOW"'


@pytest.mark.parametrize("text, message", [
    (f'<healthmap version="1">{MODULE_A} {LONG_NAME}="1"/></healthmap>',
     f"line 1: unknown module attributes "
     f"{quote_token(str([LONG_NAME]))}"),
    (f'<healthmap version="1">{MODULE_A}><{LONG_NAME}/></module>'
     f'</healthmap>',
     f"line 1: unexpected element <{quote_token(LONG_NAME)}> inside "
     f"<module>"),
    (f'<{LONG_NAME} version="1"/>',
     f"root element must be <healthmap>, got <{quote_token(LONG_NAME)}>"),
])
def test_long_xml_name_is_quoted(text, message):
    with pytest.raises(SchemaViolationError) as exc:
        parse_description(text)
    assert str(exc.value) == message and len(message) < 200


@pytest.mark.parametrize("body, error, message", [
    (f'{MODULE_A} __line__="x"/>', SchemaViolationError,
     "line 1: unknown module attributes ['__line__']"),
    ('<module id="1" name="A" criticality="LOW"><instrument id="1" '
     'kind="0" bogus="x"/></module>', SchemaViolationError,
     "line 1: unknown instrument attributes ['bogus']"),
    (f'{MODULE_A}/><module id="2" name="B" criticality="LOW"/>'
     '<dependency provider="1" dependent="2" severity="LOW" bogus="x"/>',
     SchemaViolationError,
     "line 1: unknown dependency attributes ['bogus']"),
    ('<template name="t" count="1" baseId="0" idStride="1" junk="y">'
     '<module id="0" name="M" criticality="LOW"/></template>',
     SchemaViolationError, "line 1: unknown template attributes ['junk']"),
    (f'{MODULE_A}/><module id="2" name="B" criticality="LOW"/>'
     '<dependency provider="1" dependent="2" severity="ZERO"/>',
     BadEnumValueError, "line 1: severity must not be ZERO"),
    ('<module id="1" name="" criticality="LOW"/>', SchemaViolationError,
     "line 1: <module> missing attribute 'name'"),
], ids=["module-line-key", "instrument", "dependency", "template",
        "zero-dependency", "empty-name"])
def test_element_refusal_names_its_line(body, error, message):
    with pytest.raises(error) as exc:
        parse_description(f'<healthmap version="1">{body}</healthmap>')
    assert str(exc.value) == message


def test_root_takes_only_its_version():
    with pytest.raises(SchemaViolationError) as exc:
        parse_description('<healthmap version="1" extra="x">\n'
                          '</healthmap>')
    assert str(exc.value) == "line 1: unknown healthmap attributes ['extra']"
    assert parse_description('<healthmap>\n</healthmap>').modules == []


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
    # a sidecar holds each id once: a repeated id is refused, not renamed
    with pytest.raises(DuplicateIdError, match="duplicate module id 7"):
        sidecar.add(7, "C")
    assert sidecar.id_for_name("A") == 7
    assert sidecar.id_for_name("C") is None
    assert sidecar.names() == {7: "A", 3: "B", 5: "A"}


def test_sidecar_checks_before_it_stores():
    sidecar = Sidecar()
    with pytest.raises(FieldRangeError, match="core id -1 outside"):
        sidecar.add(9, "D", core_id=-1)
    assert sidecar.names() == {} and sidecar.id_for_name("D") is None
    sidecar.add(9, "D", core_id=2)
    assert sidecar.core_modules() == {9: 2}


def test_sidecar_parse_refuses_a_repeated_id_at_its_line():
    # every id listed twice under two names: refused at the first repeat,
    # not renamed (each rename rebuilt the whole name index)
    text = "".join(f"{i} {n}{i}\n" for n in "MN" for i in range(8000))
    with pytest.raises(DuplicateIdError) as info:
        Sidecar.parse(text)
    assert str(info.value) == "sidecar line 8001: duplicate module id 0"


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


# -- one read per template element, against the walk that reads every instance

ATTR_NAMES = ["id", "name", "criticality", "coreId", "kind", "count",
              "baseId", "idStride", "bogus"]
ATTR_VALUES = ["0", "1", "2", "11", "-1", "-{i}", "{i}", "0{i}", "1{i}", "",
               "x", "0x10", "ZERO", "LOW", "BAD", "9" * 50]
INSERTS = ['<instrument id="V" kind="1"/>',
           '<module id="V" name="N{i}" criticality="LOW" coreId="{i}"/>',
           '<template name="t" count="2" baseId="V" idStride="1">'
           '<module id="0" name="T{i}" criticality="LOW"/></template>',
           '<dependency provider="V" dependent="1" severity="LOW"/>',
           '<widget/>']


@st.composite
def mutated_descriptions(draw):
    """A `_templated` forest with up to three mutations, each on one line:
    an attribute set (to a value valid or not at some instance) or
    dropped, an element inserted, or a leaf element repeated."""
    lines = _render(*draw(forests()))[0].split("\n")
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["set", "drop", "insert", "repeat"]))
        line = lines[pos]
        if op == "insert":
            lines.insert(pos + 1, draw(st.sampled_from(INSERTS)).replace(
                "V", draw(st.sampled_from(ATTR_VALUES[:4]))))
        elif op == "repeat":
            if line.endswith("/>"):
                lines.insert(pos, line)
        elif not line.startswith("</"):
            name = draw(st.sampled_from(ATTR_NAMES))
            line = re.sub(f' {name}="[^"]*"', "", line)
            if op == "set":
                end = -2 if line.endswith("/>") else -1
                line = (f'{line[:end]} {name}='
                        f'"{draw(st.sampled_from(ATTR_VALUES))}"{line[end:]}')
            lines[pos] = line
    return "\n".join(lines)


def _outcome(parse, text):
    """The description with every line number (repr shows the fields that
    == skips), or the refusal's class and message."""
    try:
        return repr(parse(text))
    except HealthMapError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(mutated_descriptions())
def test_parse_matches_the_walk_that_reads_every_instance(text):
    assert (_outcome(parse_description, text)
            == _outcome(reference_parse_description, text))


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


def test_parse_leaves_no_cyclic_garbage(paused_collector):
    # the expat parser and its handlers would hold each other, and with
    # them the whole element tree, until a collection pass
    text = (Path(__file__).parent.parent / "demo" / "data" /
            "cpu.xml").read_text()
    gc.collect()
    description = parse_description(text)
    assert gc.collect() == 0
    assert description.modules
