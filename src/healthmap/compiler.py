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
placeholder "{i}" in name/coreId attributes is replaced with k. Module
names in the binary live only in the sidecar (one line per module:
"<id> <dotted-name> [core=<coreId>]").
"""

from __future__ import annotations

import copy
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
from .model import HealthMap, Severity

_MODULE_ATTRS = {"id", "name", "criticality", "coreId"}
_INSTRUMENT_ATTRS = {"id", "kind"}


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

    def iter_modules(self):
        stack = list(self.modules)
        while stack:
            decl = stack.pop(0)
            yield decl
            stack = decl.children + stack


class Sidecar:
    """Module id -> dotted name (and OS core id for processing cores)."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._ids: dict[str, int] = {}   # name -> first-inserted module id
        self._core_ids: dict[int, int] = {}

    def add(self, module_id: int, name: str,
            core_id: Optional[int] = None) -> None:
        renamed = self._names.get(module_id, name) != name
        self._names[module_id] = name
        if renamed:
            # the old name may now belong to a later id: rebuild the index
            self._ids = {}
            for mid, n in self._names.items():
                self._ids.setdefault(n, mid)
        else:
            self._ids.setdefault(name, module_id)
        if core_id is not None:
            self._core_ids[module_id] = core_id

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
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise SchemaViolationError(
                    f"sidecar line {lineno}: expected '<id> <name> "
                    f"[core=<n>]', got {line!r}")
            core_id = None
            if len(parts) == 3:
                if not parts[2].startswith("core="):
                    raise SchemaViolationError(
                        f"sidecar line {lineno}: bad field {parts[2]!r}")
                core_id = _sidecar_int(parts[2][5:], lineno, "core id")
            sc.add(_sidecar_int(parts[0], lineno, "module id"), parts[1],
                   core_id)
        return sc


def _sidecar_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise SchemaViolationError(
            f"sidecar line {lineno}: bad {what} {token!r}: not an "
            f"integer") from None


# --------------------------------------------------------------------------
# parsing


def _parse_with_lines(xml_text: str) -> ET.Element:
    """Parse via expat so every element carries its source line number."""
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()

    def start(tag, attrs):
        element = builder.start(tag, attrs)
        element.set("__line__", str(parser.CurrentLineNumber))

    parser.StartElementHandler = start
    parser.EndElementHandler = lambda tag: builder.end(tag)
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(xml_text, True)
    except expat.ExpatError as exc:
        raise XmlSyntaxError(
            f"XML syntax error: {expat.errors.messages[exc.code]} at "
            f"line {exc.lineno}, column {exc.offset}") from None
    return builder.close()


def _line(elem: ET.Element) -> Optional[int]:
    value = elem.attrib.get("__line__")
    return int(value) if value is not None else None


def _attrs(elem: ET.Element) -> dict[str, str]:
    return {k: v for k, v in elem.attrib.items() if k != "__line__"}


def _int_attr(elem: ET.Element, name: str, required: bool = True,
              default: Optional[int] = None) -> Optional[int]:
    raw = elem.attrib.get(name)
    if raw is None:
        if required:
            raise SchemaViolationError(
                f"line {_line(elem)}: <{elem.tag}> missing attribute "
                f"{name!r}")
        return default
    try:
        value = int(raw, 0)
    except ValueError:
        raise SchemaViolationError(
            f"line {_line(elem)}: attribute {name}={raw!r} is not an "
            f"integer") from None
    if value < 0:
        raise SchemaViolationError(
            f"line {_line(elem)}: attribute {name}={raw!r} must be >= 0")
    return value


def _severity_attr(elem: ET.Element, name: str,
                   allow_zero: bool) -> Severity:
    raw = elem.attrib.get(name)
    if raw is None:
        raise SchemaViolationError(
            f"line {_line(elem)}: <{elem.tag}> missing attribute {name!r}")
    try:
        value = Severity[raw]
    except KeyError:
        raise BadEnumValueError(
            f"line {_line(elem)}: bad {name} value {raw!r}") from None
    if value == Severity.ZERO and not allow_zero:
        raise BadEnumValueError(
            f"line {_line(elem)}: {name} must not be ZERO")
    return value


def expand_templates(root: ET.Element) -> ET.Element:
    """Materialize <template> elements in place; returns the same root."""
    claimed_module: dict[int, int] = {}      # id -> line of claiming template
    claimed_instrument: dict[int, int] = {}

    def offset_ids(elem: ET.Element, offset: int, index: int,
                   template_line: Optional[int]) -> None:
        if elem.tag not in ("module", "instrument"):
            raise SchemaViolationError(
                f"line {_line(elem)}: <{elem.tag}> not allowed inside a "
                f"template")
        base = _int_attr(elem, "id")
        new_id = base + offset
        claims = claimed_module if elem.tag == "module" else claimed_instrument
        if new_id in claims:
            raise IdRangeCollisionError(
                f"line {template_line}: {elem.tag} id {new_id} already "
                f"claimed by template at line {claims[new_id]}")
        claims[new_id] = template_line or 0
        elem.set("id", str(new_id))
        for attr in ("name", "coreId"):
            if attr in elem.attrib:
                elem.set(attr, elem.attrib[attr].replace("{i}", str(index)))
        for child in elem:
            offset_ids(child, offset, index, template_line)

    def walk(elem: ET.Element) -> None:
        for pos in range(len(elem) - 1, -1, -1):
            child = elem[pos]
            if child.tag != "template":
                walk(child)
                continue
            count = _int_attr(child, "count")
            base_id = _int_attr(child, "baseId")
            stride = _int_attr(child, "idStride")
            instances: list[ET.Element] = []
            for k in range(count):
                for sub in child:
                    clone = copy.deepcopy(sub)
                    offset_ids(clone, base_id + k * stride, k, _line(child))
                    instances.append(clone)
            elem.remove(child)
            for i, inst in enumerate(instances):
                elem.insert(pos + i, inst)

    walk(root)
    return root


def _build_module_decl(elem: ET.Element) -> ModuleDecl:
    unknown = set(_attrs(elem)) - _MODULE_ATTRS
    if unknown:
        raise SchemaViolationError(
            f"line {_line(elem)}: unknown module attributes {sorted(unknown)}")
    name = elem.attrib.get("name")
    if not name:
        raise SchemaViolationError(
            f"line {_line(elem)}: <module> missing attribute 'name'")
    decl = ModuleDecl(
        id=_int_attr(elem, "id"),
        name=name,
        criticality=_severity_attr(elem, "criticality", allow_zero=True),
        core_id=_int_attr(elem, "coreId", required=False),
        line=_line(elem),
    )
    for child in elem:
        if child.tag == "module":
            decl.children.append(_build_module_decl(child))
        elif child.tag == "instrument":
            unknown = set(_attrs(child)) - _INSTRUMENT_ATTRS
            if unknown:
                raise SchemaViolationError(
                    f"line {_line(child)}: unknown instrument attributes "
                    f"{sorted(unknown)}")
            decl.instruments.append(InstrumentDecl(
                id=_int_attr(child, "id"),
                kind=_int_attr(child, "kind"),
                line=_line(child),
            ))
        else:
            raise SchemaViolationError(
                f"line {_line(child)}: unexpected element <{child.tag}> "
                f"inside <module>")
    return decl


def parse_description(xml_text: str) -> HmDescription:
    """Parse, expand templates and validate the XML description."""
    root = _parse_with_lines(xml_text)
    if root.tag != "healthmap":
        raise SchemaViolationError(
            f"root element must be <healthmap>, got <{root.tag}>")
    version = root.attrib.get("version", "1")
    if version != "1":
        raise SchemaViolationError(f"unsupported description version "
                                   f"{version!r}")
    expand_templates(root)

    desc = HmDescription()
    for child in root:
        if child.tag == "module":
            desc.modules.append(_build_module_decl(child))
        elif child.tag == "dependency":
            desc.dependencies.append(DependencyDecl(
                provider=_int_attr(child, "provider"),
                dependent=_int_attr(child, "dependent"),
                severity=_severity_attr(child, "severity", allow_zero=False),
                line=_line(child),
            ))
        else:
            raise SchemaViolationError(
                f"line {_line(child)}: unexpected element <{child.tag}> "
                f"under <healthmap>")

    # id uniqueness with both locations reported
    module_lines: dict[int, Optional[int]] = {}
    instrument_lines: dict[int, Optional[int]] = {}
    for decl in desc.iter_modules():
        if decl.id in module_lines:
            raise DuplicateIdError(
                f"duplicate module id {decl.id} at lines "
                f"{module_lines[decl.id]} and {decl.line}")
        module_lines[decl.id] = decl.line
        for inst in decl.instruments:
            if inst.id in instrument_lines:
                raise DuplicateIdError(
                    f"duplicate instrument id {inst.id} at lines "
                    f"{instrument_lines[inst.id]} and {inst.line}")
            instrument_lines[inst.id] = inst.line
    for dep in desc.dependencies:
        for end, label in ((dep.provider, "provider"),
                           (dep.dependent, "dependent")):
            if end not in module_lines:
                raise UnresolvedReferenceError(
                    f"line {dep.line}: dependency {label} {end} does not "
                    f"resolve to a module")
    return desc


# --------------------------------------------------------------------------
# compilation


def build_map(description: HmDescription) -> tuple[HealthMap, Sidecar]:
    """Materialize the description as an in-memory map plus name sidecar."""
    hm = HealthMap()
    sidecar = Sidecar()
    names_seen: dict[str, int] = {}

    def add(decl: ModuleDecl, parent_id: Optional[int],
            prefix: str) -> None:
        dotted = f"{prefix}.{decl.name}" if prefix else decl.name
        if dotted in names_seen:
            raise SchemaViolationError(
                f"line {decl.line}: duplicate module name {dotted!r} "
                f"(also module id {names_seen[dotted]})")
        names_seen[dotted] = decl.id
        hm.add_module(decl.id, parent_id, decl.criticality)
        sidecar.add(decl.id, dotted, decl.core_id)
        for inst in decl.instruments:
            hm.add_diag_resource(inst.id, decl.id, inst.kind)
        for child in decl.children:
            add(child, decl.id, dotted)

    for decl in description.modules:
        add(decl, None, "")
    for dep in description.dependencies:
        hm.add_dependency(dep.provider, dep.dependent, dep.severity)
    return hm, sidecar


def compile_description(description: HmDescription) -> tuple[bytes, Sidecar]:
    """Emit the binary image (no fault data) and the sidecar."""
    hm, sidecar = build_map(description)
    return codec.serialize(hm), sidecar


def compile_xml(xml_text: str) -> tuple[bytes, Sidecar]:
    return compile_description(parse_description(xml_text))
