"""Off-line preparation: parse the XML system description, expand
templates, build the in-memory map and emit the binary image plus a name
sidecar.

Schema:

    <healthmap version="1">
      <module id="U32" name="NAME" criticality="ZERO|LOW|MEDIUM|HIGH"
              [coreId="U32"]>
        <instrument id="U32" kind="U8"/>
        <module .../>                       <!-- nesting = parent -->
      </module>
      <dependency provider="U32" dependent="U32"
                  severity="LOW|MEDIUM|HIGH"/>
      <template name="NAME" count="N" baseId="U32" idStride="U32">
        ...module subtree...
      </template>
    </healthmap>

Template instances: every module/instrument id inside the subtree is
treated as an offset added to baseId + k*idStride for instance k, and the
placeholder "{i}" in name/coreId attributes is replaced with k. A template
may sit at the root or in a module, but not inside another template;
instruments and dependencies have no child elements. Every element takes
only the attributes shown; any other is refused. Module names in the
binary live only in the sidecar (one line per module:
"<id> <dotted-name> [core=<coreId>]").

`parse_description` expands templates during its one walk over an explicit
stack, and neither it nor `build_map` limits the nesting depth. A module
inside a template is read and checked once, at its first visit, and each
later instance of it is stamped from that read: its ids offset, "{i}"
replaced in its name, and only a coreId holding "{i}" parsed again. A
template of count 0 adds nothing, but its body is read and checked as
instance 0 would be.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import xml.parsers.expat as expat
from dataclasses import dataclass, field
from typing import Optional

from . import codec
from .errors import (
    BadEnumValueError,
    DuplicateIdError,
    IdRangeCollisionError,
    SchemaViolationError,
    UnresolvedReferenceError,
    XmlSyntaxError,
)
from .model import (QUOTED_CHARS, U32_MAX, HealthMap, Severity, check_field,
                     int_token, quote_int, quote_token, text_lines)

_MODULE_ATTRS = {"id", "name", "criticality", "coreId"}
_INSTRUMENT_ATTRS = {"id", "kind"}
_DEPENDENCY_ATTRS = {"provider", "dependent", "severity"}
_TEMPLATE_ATTRS = {"name", "count", "baseId", "idStride"}
# the key of an element's source line, an int; no XML name can spell it
_LINE = "#line"

# The image header counts modules (M) and instruments (R) in u16 fields, so
# a template may not expand past this many of either.
MAX_DECLARED = 0xFFFF


@dataclass
class InstrumentDecl:
    id: int
    kind: int
    line: Optional[int] = field(default=None, compare=False)


@dataclass
class ModuleDecl:
    id: int
    name: str
    criticality: Severity
    core_id: Optional[int] = None
    instruments: list[InstrumentDecl] = field(default_factory=list)
    children: list["ModuleDecl"] = field(default_factory=list)
    line: Optional[int] = field(default=None, compare=False)


@dataclass
class DependencyDecl:
    provider: int
    dependent: int
    severity: Severity
    line: Optional[int] = field(default=None, compare=False)


@dataclass
class HmDescription:
    modules: list[ModuleDecl] = field(default_factory=list)
    dependencies: list[DependencyDecl] = field(default_factory=list)


class Sidecar:
    """Module id -> dotted name (and OS core id for processing cores)."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._ids: dict[str, int] = {}   # name -> first-inserted module id
        self._core_ids: dict[int, int] = {}

    def add(self, module_id: int, name: str,
            core_id: Optional[int] = None) -> None:
        """Name module `module_id`, which the sidecar must not hold yet; a
        refused id or core id stores nothing."""
        if module_id in self._names:
            raise DuplicateIdError(f"duplicate module id {module_id}")
        if core_id is not None:
            self._core_ids[module_id] = check_field(core_id,
                                                    (U32_MAX, "core id"))
        self._names[module_id] = name
        self._ids.setdefault(name, module_id)

    def name_for_id(self, module_id: int) -> Optional[str]:
        return self._names.get(module_id)

    def id_for_name(self, name: str) -> Optional[int]:
        return self._ids.get(name)

    def core_modules(self) -> dict[int, int]:
        """module id -> OS core id, for modules declared as cores."""
        return dict(self._core_ids)

    def names(self) -> dict[int, str]:
        return dict(self._names)

    def format(self) -> str:
        lines = []
        for mid, name in self._names.items():
            core = self._core_ids.get(mid)
            suffix = f" core={core}" if core is not None else ""
            lines.append(f"{mid} {name}{suffix}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Sidecar":
        sc = cls()
        for lineno, line in text_lines(text):
            parts = line.split()
            try:
                if len(parts) not in (2, 3):
                    raise SchemaViolationError(
                        f"expected '<id> <name> [core=<n>]', got "
                        f"{quote_token(line)}")
                core_id = None
                if len(parts) == 3:
                    if not parts[2].startswith("core="):
                        raise SchemaViolationError(
                            f"bad field {quote_token(parts[2])}")
                    core_id = int_token(parts[2][5:], "core id",
                                        SchemaViolationError, U32_MAX)
                sc.add(int_token(parts[0], "module id", SchemaViolationError,
                                 U32_MAX), parts[1], core_id)
            except (SchemaViolationError, DuplicateIdError) as exc:
                raise type(exc)(f"sidecar line {lineno}: {exc}") from None
        return sc


# --------------------------------------------------------------------------
# parsing


def _parse_with_lines(xml_text: str) -> ET.Element:
    """Parse via expat so every element carries its source line number."""
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()

    def start(tag, attrs):
        element = builder.start(tag, attrs)
        element.set(_LINE, parser.CurrentLineNumber)

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: builder.end(tag)
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(xml_text, True)
    except expat.ExpatError as exc:
        raise XmlSyntaxError(
            f"XML syntax error: {expat.errors.messages[exc.code]} at "
            f"line {exc.lineno}, column {exc.offset}") from None
    finally:
        # `start` refers to the parser that holds it; dropping the handlers
        # breaks that cycle, so the parse is freed by reference counting
        # and leaves nothing for the cyclic collector
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = None
    return builder.close()


def _line(elem: ET.Element) -> int:
    return elem.attrib[_LINE]


def _name(text: str) -> str:
    """An XML name (or names) for an error line: as it is up to
    QUOTED_CHARS characters, a longer one quoted by `quote_token`."""
    return text if len(text) <= QUOTED_CHARS else quote_token(text)


def _attr(elem: ET.Element, name: str, inst: Optional[tuple] = None) -> str:
    """A required attribute, "{i}" read as the template instance's index."""
    raw = elem.attrib.get(name)
    if raw is None:
        raise SchemaViolationError(
            f"line {_line(elem)}: <{_name(elem.tag)}> missing attribute "
            f"{name!r}")
    return raw if inst is None else raw.replace("{i}", str(inst[1]))


def _int_attr(elem: ET.Element, name: str,
              inst: Optional[tuple] = None) -> int:
    raw = _attr(elem, name, inst)
    try:
        value = int(raw, 0)
    except ValueError:
        raise SchemaViolationError(
            f"line {_line(elem)}: attribute {name}={quote_token(raw)} is "
            f"not an integer") from None
    if value < 0:
        raise SchemaViolationError(
            f"line {_line(elem)}: attribute {name}={quote_token(raw)} "
            f"must be >= 0")
    return value


def _severity_attr(elem: ET.Element, name: str,
                   allow_zero: bool) -> Severity:
    raw = _attr(elem, name)
    try:
        value = Severity[raw]
    except KeyError:
        raise BadEnumValueError(
            f"line {_line(elem)}: bad {name} value {quote_token(raw)}") \
            from None
    if value == Severity.ZERO and not allow_zero:
        raise BadEnumValueError(f"line {_line(elem)}: {name} must not be ZERO")
    return value


def _check_attrs(elem: ET.Element, allowed: set[str]) -> None:
    unknown = set(elem.attrib) - allowed - {_LINE}
    if unknown:
        raise SchemaViolationError(
            f"line {_line(elem)}: unknown {_name(elem.tag)} attributes "
            f"{_name(str(sorted(unknown)))}")


def _expand(parent: ET.Element, inst: Optional[tuple],
            declared: dict[str, int]):
    """The children of `parent` in document order, each with the template
    instance it belongs to, as (id offset, index, line of the <template>,
    live), or None; a <template> gives its children once per instance,
    k-major. A template of count 0 gives them once, as instance 0 with
    `live` False: its body is read and checked, but claims no id and adds
    nothing. Before a template expands, its instances' modules and
    instruments are added to the `declared` counts, which may not pass
    MAX_DECLARED."""
    for child in parent:
        if child.tag != "template" or inst is not None:
            pairs = ((child, inst),)
        else:
            _check_attrs(child, _TEMPLATE_ATTRS)
            count, base_id, stride = (_int_attr(child, name) for name in
                                      ("count", "baseId", "idStride"))
            line = _line(child)
            if count > MAX_DECLARED:
                raise SchemaViolationError(f"line {line}: template count "
                                           f"{quote_int(count)} above "
                                           f"{MAX_DECLARED}")
            for tag in declared:
                declared[tag] += count * sum(1 for _ in child.iter(tag))
                if declared[tag] > MAX_DECLARED:
                    raise SchemaViolationError(
                        f"line {line}: template takes the declared {tag}s "
                        f"to {declared[tag]}, above {MAX_DECLARED}")
            pairs = ((sub, (base_id + k * stride, k, line, count > 0))
                     for k in range(max(count, 1)) for sub in child)
        for elem, where in pairs:
            if where is not None and elem.tag not in ("module", "instrument"):
                raise SchemaViolationError(
                    f"line {_line(elem)}: <{_name(elem.tag)}> not allowed "
                    f"inside a template")
            yield elem, where


def parse_description(xml_text: str) -> HmDescription:
    """Parse, expand templates and check the XML description in one walk.
    A module inside a template is read and checked at its first visit, and
    each later instance of it is stamped from that read."""
    root = _parse_with_lines(xml_text)
    if root.tag != "healthmap":
        raise SchemaViolationError(
            f"root element must be <healthmap>, got <{_name(root.tag)}>")
    _check_attrs(root, {"version"})
    version = root.attrib.get("version", "1")
    if version != "1":
        raise SchemaViolationError(f"unsupported description version "
                                   f"{quote_token(version)}")
    # (tag, id) -> line of its element / of its template; an overlap of
    # template ranges is raised at once, a duplicate id after the walk
    seen: dict[tuple[str, int], int] = {}
    claimed: dict[tuple[str, int], int] = {}
    duplicates: list[str] = []
    # modules and instruments declared so far, template instances included
    declared = {"module": 0, "instrument": 0}

    def claim(tag: str, value: int, inst: Optional[tuple], line: int) -> int:
        key = (tag, value)
        if inst is not None:
            if not inst[3]:
                return value    # a count-0 template's body declares nothing
            if key in claimed:
                # the earlier template first, whichever claimed first
                first, second = sorted((claimed[key], inst[2]))
                raise IdRangeCollisionError(
                    f"line {first}: {tag} id {quote_int(value)} already "
                    f"claimed by template at line {second}")
            claimed[key] = inst[2]
        else:   # an instance was counted when its template was met
            declared[tag] += 1
        if key in seen:
            duplicates.append(f"duplicate {tag} id {quote_int(value)} "
                              f"at lines {seen[key]} and {line}")
        seen.setdefault(key, line)
        return value

    def element_id(elem: ET.Element, inst: Optional[tuple]) -> int:
        value = _int_attr(elem, "id") + (inst[0] if inst else 0)
        return claim(elem.tag, value, inst, _line(elem))

    # module in a template -> what its first visit read: (local id, raw
    # name, criticality, core id, whether coreId holds "{i}", line, its
    # instruments' (local id, kind, line), its submodules in pop order)
    reads: dict[ET.Element, tuple] = {}
    desc = HmDescription()
    # (element, its template instance, its decl's parent or None); the root
    # comes first, the children of each module in document order
    stack: list[tuple] = [(root, None, None)]
    while stack:
        elem, inst, parent = stack.pop()
        read = reads.get(elem)
        if read is not None:
            # a later instance: its first passed every check that does not
            # depend on the instance, in the order this one would meet it
            local, name, crit, core_id, core_varies, line, instruments, \
                subs = read
            offset = inst[0]
            decl = ModuleDecl(
                id=claim("module", local + offset, inst, line),
                name=name.replace("{i}", str(inst[1])),
                criticality=crit,
                # "-{i}" is a valid coreId at instance 0, not at 1
                core_id=(_int_attr(elem, "coreId", inst) if core_varies
                         else core_id),
                instruments=[InstrumentDecl(
                    claim("instrument", child_local + offset, inst,
                          child_line), kind, child_line)
                    for child_local, kind, child_line in instruments],
                line=line,
            )
            (desc.modules if parent is None else parent.children).append(decl)
            stack += [(sub, inst, decl) for sub in subs]
            continue
        decl = None
        if elem is not root:
            _check_attrs(elem, _MODULE_ATTRS)
            name = _attr(elem, "name", inst)
            if not name:   # an empty name counts as missing
                raise SchemaViolationError(
                    f"line {_line(elem)}: <module> missing attribute 'name'")
            decl = ModuleDecl(
                id=element_id(elem, inst),
                name=name,
                criticality=_severity_attr(elem, "criticality",
                                           allow_zero=True),
                core_id=(_int_attr(elem, "coreId", inst)
                         if "coreId" in elem.attrib else None),
                line=_line(elem),
            )
            if inst is None or inst[3]:
                (desc.modules if parent is None
                 else parent.children).append(decl)
        # a module's instruments are claimed before its submodules' ids
        first_child = len(stack)
        for child, where in _expand(elem, inst, declared):
            if child.tag in ("instrument", "dependency") and len(child):
                raise SchemaViolationError(
                    f"line {_line(child[0])}: unexpected element "
                    f"<{_name(child[0].tag)}> inside <{child.tag}>")
            if child.tag == "module":
                stack.append((child, where, decl))
            elif child.tag == "instrument" and decl is not None:
                _check_attrs(child, _INSTRUMENT_ATTRS)
                instrument = InstrumentDecl(
                    id=element_id(child, where),
                    kind=_int_attr(child, "kind"),
                    line=_line(child),
                )
                if where is None or where[3]:
                    decl.instruments.append(instrument)
            elif child.tag == "dependency" and decl is None:
                _check_attrs(child, _DEPENDENCY_ATTRS)
                desc.dependencies.append(DependencyDecl(
                    provider=_int_attr(child, "provider"),
                    dependent=_int_attr(child, "dependent"),
                    severity=_severity_attr(child, "severity",
                                            allow_zero=False),
                    line=_line(child),
                ))
            else:
                raise SchemaViolationError(
                    f"line {_line(child)}: unexpected element "
                    f"<{_name(child.tag)}> "
                    + ("inside <module>" if decl else "under <healthmap>"))
        stack[first_child:] = reversed(stack[first_child:])
        if inst is not None:
            offset = inst[0]
            reads[elem] = (
                decl.id - offset, elem.attrib["name"], decl.criticality,
                decl.core_id, "{i}" in elem.attrib.get("coreId", ""),
                decl.line,
                [(i.id - offset, i.kind, i.line) for i in decl.instruments],
                [sub for sub, _, _ in stack[first_child:]])

    if duplicates:
        raise DuplicateIdError(duplicates[0])
    for dep in desc.dependencies:
        for end, label in ((dep.provider, "provider"),
                           (dep.dependent, "dependent")):
            if ("module", end) not in seen:
                raise UnresolvedReferenceError(
                    f"line {dep.line}: dependency {label} {quote_int(end)} "
                    f"does not resolve to a module")
    return desc


# --------------------------------------------------------------------------
# compilation


def build_map(description: HmDescription) -> tuple[HealthMap, Sidecar]:
    """Materialize the description as an in-memory map plus name sidecar."""
    hm = HealthMap()
    sidecar = Sidecar()
    # (decl, parent id, parent's dotted name), popped in preorder
    stack = [(decl, None, "") for decl in reversed(description.modules)]
    while stack:
        decl, parent_id, prefix = stack.pop()
        dotted = f"{prefix}.{decl.name}" if prefix else decl.name
        other = sidecar.id_for_name(dotted)
        if other is not None:
            raise SchemaViolationError(
                f"line {decl.line}: duplicate module name "
                f"{quote_token(dotted)} "
                f"(also module id {other})")
        hm.add_module(decl.id, parent_id, decl.criticality)
        sidecar.add(decl.id, dotted, decl.core_id)
        for inst in decl.instruments:
            hm.add_diag_resource(inst.id, decl.id, inst.kind)
        stack += [(child, decl.id, dotted)
                  for child in reversed(decl.children)]
    for dep in description.dependencies:
        hm.add_dependency(dep.provider, dep.dependent, dep.severity)
    return hm, sidecar


def compile_description(description: HmDescription) -> tuple[bytes, Sidecar]:
    """Emit the binary image (no fault data) and the sidecar."""
    hm, sidecar = build_map(description)
    return codec.serialize(hm), sidecar


def compile_xml(xml_text: str) -> tuple[bytes, Sidecar]:
    return compile_description(parse_description(xml_text))
