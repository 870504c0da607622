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
instruments and dependencies have no child elements. Module names in the
binary live only in the sidecar (one line per module:
"<id> <dotted-name> [core=<coreId>]").

`parse_description` expands templates during its one walk over an explicit
stack, and neither it nor `build_map` limits the nesting depth.
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
from .model import (U32_MAX, HealthMap, Severity, check_field, int_token,
                     text_lines)

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
            self._core_ids[module_id] = check_field(core_id, U32_MAX,
                                                    "core id")

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
                        f"expected '<id> <name> [core=<n>]', got {line!r}")
                core_id = None
                if len(parts) == 3:
                    if not parts[2].startswith("core="):
                        raise SchemaViolationError(f"bad field {parts[2]!r}")
                    core_id = int_token(parts[2][5:], "core id",
                                        SchemaViolationError, U32_MAX)
                sc.add(int_token(parts[0], "module id", SchemaViolationError,
                                 U32_MAX), parts[1], core_id)
            except SchemaViolationError as exc:
                raise SchemaViolationError(
                    f"sidecar line {lineno}: {exc}") from None
        return sc


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


def _line(elem: ET.Element) -> int:
    return int(elem.attrib["__line__"])


def _attr(elem: ET.Element, name: str, inst: Optional[tuple] = None) -> str:
    """A required attribute, "{i}" read as the template instance's index."""
    raw = elem.attrib.get(name)
    if raw is None:
        raise SchemaViolationError(
            f"line {_line(elem)}: <{elem.tag}> missing attribute {name!r}")
    return raw if inst is None else raw.replace("{i}", str(inst[1]))


def _int_attr(elem: ET.Element, name: str,
              inst: Optional[tuple] = None) -> int:
    raw = _attr(elem, name, inst)
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
    raw = _attr(elem, name)
    try:
        value = Severity[raw]
    except KeyError:
        raise BadEnumValueError(
            f"line {_line(elem)}: bad {name} value {raw!r}") from None
    if value == Severity.ZERO and not allow_zero:
        raise BadEnumValueError(f"line {_line(elem)}: {name} must not be ZERO")
    return value


def _check_attrs(elem: ET.Element, allowed: set[str]) -> None:
    unknown = set(elem.attrib) - allowed - {"__line__"}
    if unknown:
        raise SchemaViolationError(
            f"line {_line(elem)}: unknown {elem.tag} attributes "
            f"{sorted(unknown)}")


def _expand(parent: ET.Element, inst: Optional[tuple]):
    """The children of `parent` in document order, each with the template
    instance it belongs to, as (id offset, index, line of the <template>),
    or None; a <template> gives its children once per instance, k-major."""
    for child in parent:
        if child.tag != "template" or inst is not None:
            pairs = ((child, inst),)
        else:
            count, base_id, stride = (_int_attr(child, name) for name in
                                      ("count", "baseId", "idStride"))
            line = _line(child)
            pairs = ((sub, (base_id + k * stride, k, line))
                     for k in range(count) for sub in child)
        for elem, where in pairs:
            if where is not None and elem.tag not in ("module", "instrument"):
                raise SchemaViolationError(
                    f"line {_line(elem)}: <{elem.tag}> not allowed inside "
                    f"a template")
            yield elem, where


def parse_description(xml_text: str) -> HmDescription:
    """Parse, expand templates and check the XML description in one walk."""
    root = _parse_with_lines(xml_text)
    if root.tag != "healthmap":
        raise SchemaViolationError(
            f"root element must be <healthmap>, got <{root.tag}>")
    version = root.attrib.get("version", "1")
    if version != "1":
        raise SchemaViolationError(f"unsupported description version "
                                   f"{version!r}")
    # (tag, id) -> line of its element / of its template; an overlap of
    # template ranges is raised at once, a duplicate id after the walk
    seen: dict[tuple[str, int], int] = {}
    claimed: dict[tuple[str, int], int] = {}
    duplicates: list[str] = []

    def element_id(elem: ET.Element, inst: Optional[tuple]) -> int:
        value = _int_attr(elem, "id") + (inst[0] if inst else 0)
        key = (elem.tag, value)
        if inst is not None:
            if key in claimed:
                # the earlier template first, whichever claimed first
                first, second = sorted((claimed[key], inst[2]))
                raise IdRangeCollisionError(
                    f"line {first}: {elem.tag} id {value} already claimed "
                    f"by template at line {second}")
            claimed[key] = inst[2]
        if key in seen:
            duplicates.append(f"duplicate {elem.tag} id {value} at lines "
                              f"{seen[key]} and {_line(elem)}")
        seen.setdefault(key, _line(elem))
        return value

    desc = HmDescription()
    # (element, its template instance, its decl's parent or None); the root
    # comes first, the children of each module in document order
    stack: list[tuple] = [(root, None, None)]
    while stack:
        elem, inst, parent = stack.pop()
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
            (desc.modules if parent is None else parent.children).append(decl)
        # a module's instruments are claimed before its submodules' ids
        first_child = len(stack)
        for child, where in _expand(elem, inst):
            if child.tag in ("instrument", "dependency") and len(child):
                raise SchemaViolationError(
                    f"line {_line(child[0])}: unexpected element "
                    f"<{child[0].tag}> inside <{child.tag}>")
            if child.tag == "module":
                stack.append((child, where, decl))
            elif child.tag == "instrument" and decl is not None:
                _check_attrs(child, _INSTRUMENT_ATTRS)
                decl.instruments.append(InstrumentDecl(
                    id=element_id(child, where),
                    kind=_int_attr(child, "kind"),
                    line=_line(child),
                ))
            elif child.tag == "dependency" and decl is None:
                desc.dependencies.append(DependencyDecl(
                    provider=_int_attr(child, "provider"),
                    dependent=_int_attr(child, "dependent"),
                    severity=_severity_attr(child, "severity",
                                            allow_zero=False),
                    line=_line(child),
                ))
            else:
                raise SchemaViolationError(
                    f"line {_line(child)}: unexpected element <{child.tag}> "
                    + ("inside <module>" if decl else "under <healthmap>"))
        stack[first_child:] = reversed(stack[first_child:])

    if duplicates:
        raise DuplicateIdError(duplicates[0])
    for dep in desc.dependencies:
        for end, label in ((dep.provider, "provider"),
                           (dep.dependent, "dependent")):
            if ("module", end) not in seen:
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
    # (decl, parent id, parent's dotted name), popped in preorder
    stack = [(decl, None, "") for decl in reversed(description.modules)]
    while stack:
        decl, parent_id, prefix = stack.pop()
        dotted = f"{prefix}.{decl.name}" if prefix else decl.name
        other = sidecar.id_for_name(dotted)
        if other is not None:
            raise SchemaViolationError(
                f"line {decl.line}: duplicate module name {dotted!r} "
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
