"""Textual IR parser for the MLIR-generic syntax emitted by the printer.

Accepts the generic operation form::

    %0 = "arith.addi"(%a, %b) {attrs} : (i64, i64) -> (i64)

including nested regions, blocks with arguments, successor lists and the
full type grammar (``i32``, ``f32``, ``index``, ``memref<...>``, function
types and ``!``-prefixed dialect types resolved through the dialect type
parser registry in :mod:`repro.dialects`).

Together with :mod:`repro.ir.printer` this gives a verified serialization
layer: for any module ``m`` built programmatically,
``print(parse(print(m)))`` reproduces ``print(m)`` exactly.  The parser is
whitespace-insensitive and supports ``//`` line comments so textual test
cases can be annotated.

Parsing is linear in the input.  The cursor always rests on the start of
the next token: each token is matched by one compiled regex that also
swallows the whitespace and comments after it, so lookahead is a plain
``str.startswith``.  Line/column positions come from a line-start table
built once per parse and searched with :func:`bisect.bisect_right`.

Operation classes are resolved through the operation registry
(:func:`repro.ir.operations.lookup_op_class`); parsing an op name that is
not registered is an error unless ``allow_unregistered`` is set.
"""

from __future__ import annotations

import difflib
import re
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DenseElementsAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from .location import UNKNOWN, Location
from .operations import (
    Block,
    Operation,
    Region,
    lookup_op_class,
    registered_operations,
)
from .traits import Trait, has_trait
from .types import (
    DYNAMIC,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    NoneType,
    Type,
    VectorType,
    is_float,
)
from .values import Value


class ParseError(Exception):
    """Raised on malformed textual IR, with 1-based line/column info."""

    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        if line is not None:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


#: Whitespace and ``//`` line comments: what may follow any token.
_WS = r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
_WS_RE = re.compile(_WS)


def _token(pattern: str, flags: int = 0) -> "re.Pattern[str]":
    """A token regex: group 1 is the token's value, and the match runs on
    over the whitespace after it, so ``match.end()`` is the next token."""
    return re.compile(pattern + _WS, flags)


_IDENT_RE = _token(r"([A-Za-z_$][A-Za-z0-9_$.]*)")
_VALUE_ID_RE = _token(r"%([A-Za-z0-9_$.]+)")
_NUMBER_RE = _token(r"(-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|inf|nan))")
_SUCCESSOR_RE = _token(r"\^bb(\d+)")
_DIM_RE = _token(r"(\?|\d+)x")
_TYPE_LIST_RE = _token(r"\(([^()]*)\)")
_STRING_RE = _token(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_STRING_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
#: The dialect namespace of a ``!`` type: "sycl" in "sycl_buffer_1_...",
#: "llvm" in "llvm.ptr<...>".
_DIALECT_NAME_RE = re.compile(r"[A-Za-z$][A-Za-z0-9$]*")
#: Identifier characters and nested ``!`` between ``<...>`` groups of a
#: dialect type's raw spelling.
_DIALECT_RUN_RE = re.compile(r"[A-Za-z0-9_$.!]*")
_ANGLE_RE = re.compile(r"[<>]")
_INTEGER_TYPE_RE = re.compile(r"i(\d+)")
_FLOAT_TYPE_RE = re.compile(r"f(\d+)")

#: Builtin scalar types interned by spelling, so every ``i64`` of a module
#: is one object; other widths (``i7``) are built on each mention.
_BUILTIN_TYPES: Dict[str, Type] = {
    "index": IndexType(), "none": NoneType(),
    **{f"i{w}": IntegerType(w) for w in (1, 8, 16, 32, 64)},
    **{f"f{w}": FloatType(w) for w in (16, 32, 64)},
}


def _builtin_type(spelling: str) -> Optional[Type]:
    """The builtin scalar type spelled ``spelling``, or ``None``."""
    type_ = _BUILTIN_TYPES.get(spelling)
    if type_ is not None:
        return type_
    m = _INTEGER_TYPE_RE.fullmatch(spelling)
    if m is not None:
        return IntegerType(int(m.group(1)))
    m = _FLOAT_TYPE_RE.fullmatch(spelling)
    if m is not None:
        return FloatType(int(m.group(1)))
    return None


def _line_starts(text: str) -> List[int]:
    """Offset of the first character of every line of ``text``."""
    return list(accumulate((len(line) + 1 for line in text.split("\n")[:-1]),
                           initial=0))


def _keepable_hint(name: str) -> Optional[str]:
    """The parsed SSA name as a ``name_hint``, or ``None`` for ``%0``-style
    purely numeric names.  MLIR never preserves numeric SSA names — the
    printer renumbers anonymous values contiguously — and baking a parsed
    ``%7`` in as a permanent hint would freeze stale numbering across a
    parse/optimize/print round trip (optimizations that erase values
    would leave gaps serial compilation does not produce)."""
    return None if name.isdigit() else name


class _Scope:
    """One SSA name scope; ``isolated`` scopes stop outward name lookup."""

    def __init__(self, isolated: bool):
        self.isolated = isolated
        self.values: Dict[str, Value] = {}
        #: Forward references (uses before the definition, MLIR-style):
        #: ``name -> (placeholder value, position of the first use)``.
        #: Resolved when the scope later defines the name; still-unresolved
        #: entries are reported when the scope closes.  Dominance of
        #: resolved uses is deliberately NOT the parser's job — the
        #: verifier and ``repro-lint`` diagnose it on the parsed IR.
        self.forward: Dict[str, Tuple[Value, int]] = {}


class Parser:
    """Recursive-descent parser over the printed generic syntax.

    ``pos`` is always the start of the next token (whitespace and
    comments already skipped); ``_end`` is the end of the last token
    consumed.  Errors about what was just read (a bad signature, an
    unknown type or op name) are reported at ``_end``, errors about
    what comes next at ``pos``.
    """

    def __init__(self, text: str, allow_unregistered: bool = False,
                 filename: str = "<input>"):
        self.text = text
        self.pos = _WS_RE.match(text).end()
        self._end = 0
        self.allow_unregistered = allow_unregistered
        self.filename = filename
        self._scopes: List[_Scope] = [_Scope(isolated=True)]
        self._lines: Optional[List[int]] = None
        self._type_lists: Dict[str, Tuple[Type, ...]] = {}

    # ------------------------------------------------------------------
    # Low-level scanning
    # ------------------------------------------------------------------
    def _advance(self, end: int) -> None:
        """Move past a token ending at ``end`` and the whitespace after."""
        self._end = end
        self.pos = _WS_RE.match(self.text, end).end()

    def _at_end(self) -> bool:
        return self.pos >= len(self.text)

    def _peek(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def _consume(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self._advance(self.pos + len(literal))
            return True
        return False

    def _expect(self, literal: str, context: str = "") -> None:
        if not self._consume(literal):
            where = f" {context}" if context else ""
            found = self.text[self.pos:self.pos + 12] or "<end of input>"
            self.error(f"expected {literal!r}{where}, found {found!r}")

    def _match(self, pattern: "re.Pattern[str]") -> Optional[str]:
        """Consume a :func:`_token` pattern; its group 1, or ``None``."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self._end = m.end(1)
        self.pos = m.end()
        return m.group(1)

    def _line_col(self, pos: int) -> Tuple[int, int]:
        """1-based ``(line, column)`` of character ``pos``."""
        if self._lines is None:
            self._lines = _line_starts(self.text)
        line = bisect_right(self._lines, pos)
        return line, pos - self._lines[line - 1] + 1

    def error(self, message: str, pos: Optional[int] = None) -> None:
        """Raise a :class:`ParseError` located at ``pos`` (default: the
        next token)."""
        line, column = self._line_col(self.pos if pos is None else pos)
        raise ParseError(message, line, column)

    def _location_at(self, pos: int) -> Location:
        """Source location (1-based line/col) of character ``pos``."""
        line, column = self._line_col(pos)
        return Location(self.filename, line, column)

    # ------------------------------------------------------------------
    # SSA value scoping
    # ------------------------------------------------------------------
    def _define_value(self, name: str, value: Value) -> None:
        scope = self._scopes[-1]
        if name in scope.values:
            self.error(f"redefinition of value %{name}", self._end)
        scope.values[name] = value
        pending = scope.forward.pop(name, None)
        if pending is not None:
            placeholder, use_pos = pending
            if placeholder.type != value.type:
                self.error(
                    f"type mismatch for forward-referenced value %{name}: "
                    f"used as {placeholder.type} but defined as {value.type}",
                    use_pos)
            placeholder.replace_all_uses_with(value)

    def _lookup_value(self, name: str, declared: Type,
                      use_pos: int) -> Value:
        for scope in reversed(self._scopes):
            if name in scope.values:
                return scope.values[name]
            if scope.isolated:
                break
        # A use before the definition: hand out a typed placeholder that a
        # later definition in this scope replaces (the mlir-opt behaviour,
        # which keeps dominance violations *parseable* so the verifier and
        # the lint rules can diagnose them on real IR).
        scope = self._scopes[-1]
        if name not in scope.forward:
            scope.forward[name] = (
                Value(declared, name_hint=_keepable_hint(name)), use_pos)
        return scope.forward[name][0]

    def _close_scope(self) -> None:
        scope = self._scopes.pop()
        if scope.forward:
            name, (_, use_pos) = next(iter(scope.forward.items()))
            self.error(f"use of undefined value %{name}", use_pos)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def parse_operation(
            self,
            successor_sink: Optional[List[Tuple[Operation, List[int]]]] = None,
    ) -> Operation:
        op_start = self.pos
        result_names = self._parse_result_names()
        op_name = self._parse_string_literal("operation name")
        operand_names = self._parse_operand_names()

        # Upstream-MLIR generic order (the `--emit=mlir` exporter):
        # successor list and region list come directly after the operand
        # list, with the attribute dictionary after the regions.  The
        # classic order printed by repro.ir.printer puts both after the
        # signature instead; a '[' or '(' here is unambiguous because
        # the classic order always continues with '{' or ':'.
        successor_indices: Optional[List[int]] = None
        if self._peek("["):
            successor_indices = self._parse_successor_indices()
        early_regions: Optional[List[Region]] = None
        if self._peek("("):
            early_regions = self._parse_detached_regions(op_name)

        attributes = self._parse_attr_dict() if self._peek("{") else {}
        self._expect(":", "before the operation signature")
        in_types = self._parse_paren_type_list()
        self._expect("->", "in the operation signature")
        out_types = self._parse_paren_type_list()

        if len(operand_names) != len(in_types):
            self.error(
                f"'{op_name}' has {len(operand_names)} operands but its "
                f"signature lists {len(in_types)} operand types", self._end)
        operands = []
        for (name, use_pos), declared in zip(operand_names, in_types):
            value = self._lookup_value(name, declared, use_pos)
            if value.type != declared:
                self.error(
                    f"type mismatch for operand %{name} of '{op_name}': "
                    f"value has type {value.type} but the signature "
                    f"declares {declared}", self._end)
            operands.append(value)
        if len(result_names) != len(out_types):
            self.error(
                f"'{op_name}' binds {len(result_names)} results but its "
                f"signature lists {len(out_types)} result types", self._end)

        op = self._create_operation(op_name, operands, out_types, attributes)
        if early_regions is not None:
            for region in early_regions:
                region.parent = op
                op.regions.append(region)
        for res, name in zip(op.results, result_names):
            res.name_hint = _keepable_hint(name)
            self._define_value(name, res)

        if successor_indices is None and self._peek("["):
            successor_indices = self._parse_successor_indices()
        if successor_indices is not None:
            if successor_sink is None:
                self.error(
                    f"'{op_name}' lists successors outside of a region",
                    self._end)
            successor_sink.append((op, successor_indices))

        if early_regions is None and self._peek("("):
            self._parse_region_list(op)

        # Trailing `loc(...)` (printed under print_locations) wins over the
        # textual position the op was parsed at.
        explicit = self._parse_location_trailer()
        op.location = explicit if explicit is not None \
            else self._location_at(op_start)
        return op

    def _parse_result_names(self) -> List[str]:
        names: List[str] = []
        if not self._peek("%"):
            return names
        while True:
            name = self._match(_VALUE_ID_RE)
            if name is None:
                self.error("expected a result name after '%'")
            names.append(name)
            if not self._consume(","):
                break
        self._expect("=", "after the operation result list")
        return names

    def _parse_string_literal(self, what: str) -> str:
        m = _STRING_RE.match(self.text, self.pos)
        if m is None:
            if self._peek('"'):
                self.error(f"unterminated string literal in {what}",
                           self.pos + 1)
            found = self.text[self.pos:self.pos + 12] or "<end of input>"
            self.error(f"expected {what} in double quotes, found {found!r}")
        self._end = m.end(1) + 1
        self.pos = m.end()
        body = m.group(1)
        if "\\" in body:
            body = _ESCAPE_RE.sub(
                lambda e: _STRING_ESCAPES.get(e.group(1), e.group(1)), body)
        return body

    def _parse_operand_names(self) -> List[Tuple[str, int]]:
        """``(name, position)`` per operand; positions locate use errors."""
        self._expect("(", "before the operand list")
        names: List[Tuple[str, int]] = []
        if not self._consume(")"):
            while True:
                use_pos = self.pos
                name = self._match(_VALUE_ID_RE)
                if name is None:
                    self.error("expected an operand name ('%value')")
                names.append((name, use_pos))
                if not self._consume(","):
                    break
            self._expect(")", "after the operand list")
        return names

    def _parse_successor_indices(self) -> List[int]:
        self._expect("[")
        indices: List[int] = []
        while True:
            label = self._match(_SUCCESSOR_RE)
            if label is None:
                self.error("expected a successor label ('^bbN')")
            indices.append(int(label))
            if not self._consume(","):
                break
        self._expect("]", "after the successor list")
        return indices

    def _parse_location_trailer(self) -> Optional[Location]:
        """Parse an optional trailing ``loc("file":line:col)`` clause."""
        if not self._consume("loc("):
            return None
        if self._consume("unknown"):
            self._expect(")", "after 'loc(unknown'")
            return UNKNOWN
        filename = self._parse_string_literal("location filename")
        self._expect(":", "after the location filename")
        line = self._match(_NUMBER_RE)
        if line is None:
            self.error("expected a line number in loc(...)")
        self._expect(":", "after the location line number")
        column = self._match(_NUMBER_RE)
        if column is None:
            self.error("expected a column number in loc(...)")
        self._expect(")", "after the location")
        return Location(filename, int(line), int(column))

    def _create_operation(self, name: str, operands: Sequence[Value],
                          result_types: Sequence[Type],
                          attributes: Dict[str, Attribute]) -> Operation:
        op_class = lookup_op_class(name)
        if op_class is None:
            if self.allow_unregistered:
                op = Operation(operands=operands, result_types=result_types,
                               attributes=attributes)
                op.OPERATION_NAME = name
                return op
            close = difflib.get_close_matches(name, registered_operations(), 1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            self.error(f"unknown operation {name!r}{hint}", self._end)
        op = op_class.__new__(op_class)
        Operation.__init__(op, operands=operands, result_types=result_types,
                           attributes=attributes)
        return op

    # ------------------------------------------------------------------
    # Regions and blocks
    # ------------------------------------------------------------------
    def _parse_region_list(self, op: Operation) -> None:
        self._expect("(")
        while self._peek("{"):
            region = Region(op)
            op.regions.append(region)
            self._parse_region_body(
                region, has_trait(op, Trait.ISOLATED_FROM_ABOVE), op.name)
        self._expect(")", "after the region list")

    def _parse_detached_regions(self, op_name: str) -> List[Region]:
        """Region list parsed before its operation exists (upstream order).

        The regions are attached to the operation once the signature has
        been read and the operation created; isolation for SSA scoping
        comes from the registered operation class, since there is no
        instance to ask yet.
        """
        op_class = lookup_op_class(op_name)
        isolated = op_class is not None and \
            has_trait(op_class, Trait.ISOLATED_FROM_ABOVE)
        self._expect("(")
        regions: List[Region] = []
        while self._peek("{"):
            region = Region()
            regions.append(region)
            self._parse_region_body(region, isolated, op_name)
        self._expect(")", "after the region list")
        return regions

    def _parse_region_body(self, region: Region, isolated: bool,
                           op_name: str) -> None:
        self._expect("{")
        self._scopes.append(_Scope(isolated))
        label_map: Dict[int, Block] = {}
        fixups: List[Tuple[Operation, List[int]]] = []
        current: Optional[Block] = None
        while not self._peek("}"):
            if self._at_end():
                self.error(
                    f"unbalanced region in '{op_name}': missing '}}' before "
                    "end of input")
            if self._peek("^"):
                label, block = self._parse_block_header()
                if label in label_map:
                    self.error(f"duplicate block label ^bb{label}", self._end)
                region.add_block(block)
                label_map[label] = block
                current = block
            else:
                if current is None:
                    current = region.add_block(Block())
                    label_map.setdefault(0, current)
                current.append(self.parse_operation(fixups))
        self._expect("}")
        if not region.blocks:
            # An empty region body stands for one empty block (builders always
            # materialize entry blocks, and `region.front` relies on it).
            region.add_block(Block())
        for branch, indices in fixups:
            successors = []
            for index in indices:
                target = label_map.get(index)
                if target is None:
                    self.error(
                        f"'{branch.name}' references undefined block "
                        f"^bb{index}", self._end)
                successors.append(target)
            branch.successors = successors
        self._close_scope()

    def _parse_block_header(self) -> Tuple[int, Block]:
        label = self._match(_SUCCESSOR_RE)
        if label is None:
            self.error("expected a block label ('^bbN')")
        block = Block()
        if self._consume("("):
            if not self._consume(")"):
                while True:
                    name = self._match(_VALUE_ID_RE)
                    if name is None:
                        self.error("expected a block argument name")
                    self._expect(":", "after the block argument name")
                    arg = block.add_argument(self.parse_type(),
                                             _keepable_hint(name))
                    self._define_value(name, arg)
                    if not self._consume(","):
                        break
                self._expect(")", "after the block argument list")
        self._expect(":", "after the block label")
        return int(label), block

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------
    def _parse_paren_type_list(self) -> Tuple[Type, ...]:
        # Signatures repeat ("(i64, i64)"), so a paren-free list is
        # memoized by its spelling.  An entry is kept only if parsing
        # ended at the first ')' — the span the lookup regex matches.
        m = _TYPE_LIST_RE.match(self.text, self.pos)
        if m is not None:
            cached = self._type_lists.get(m.group(1))
            if cached is not None:
                self._end = m.end(1) + 1
                self.pos = m.end()
                return cached
        self._expect("(", "before a type list")
        types: List[Type] = []
        if not self._consume(")"):
            while True:
                types.append(self.parse_type())
                if not self._consume(","):
                    break
            self._expect(")", "after a type list")
        result = tuple(types)
        if m is not None and self._end == m.end(1) + 1:
            self._type_lists[m.group(1)] = result
        return result

    def parse_type(self) -> Type:
        if self._peek("("):
            inputs = self._parse_paren_type_list()
            self._expect("->", "in a function type")
            results = self._parse_paren_type_list()
            return FunctionType(inputs, results)
        if self._peek("!"):
            return self._parse_dialect_type()
        ident = self._match(_IDENT_RE)
        if ident is None:
            found = self.text[self.pos:self.pos + 12] or "<end of input>"
            self.error(f"expected a type, found {found!r}")
        if ident == "memref":
            return self._parse_memref_body()
        if ident == "vector":
            return self._parse_vector_body()
        type_ = _builtin_type(ident)
        if type_ is None:
            self.error(f"unknown type {ident!r}", self._end)
        return type_

    def _parse_shape(self) -> Tuple[int, ...]:
        shape: List[int] = []
        while True:
            dim = self._match(_DIM_RE)
            if dim is None:
                return tuple(shape)
            self._end += 1  # the 'x' after the extent
            shape.append(DYNAMIC if dim == "?" else int(dim))

    def _parse_memref_body(self) -> MemRefType:
        self._expect("<", "after 'memref'")
        shape = self._parse_shape()
        element = self.parse_type()
        memory_space = "global"
        if self._consume(","):
            space = self._match(_IDENT_RE)
            if space is None:
                self.error("expected a memory space name in memref type")
            memory_space = space
        self._expect(">", "after the memref element type")
        return MemRefType(shape, element, memory_space)

    def _parse_vector_body(self) -> VectorType:
        self._expect("<", "after 'vector'")
        shape = self._parse_shape()
        element = self.parse_type()
        self._expect(">", "after the vector element type")
        return VectorType(shape, element)

    def _parse_dialect_type(self) -> Type:
        self._expect("!")
        start = pos = self.pos
        text = self.text
        name = _DIALECT_NAME_RE.match(text, start)
        if name is None:
            self.error("expected a dialect type name after '!'")
        # Take the full raw spelling: identifier characters interleaved with
        # balanced <...> groups (e.g. `sycl_accessor_1_memref<4xf32>_read`)
        # and embedded `!` from nested dialect-type elements
        # (`sycl_buffer_1_!sycl_id_2`).
        while True:
            pos = _DIALECT_RUN_RE.match(text, pos).end()
            if not text.startswith("<", pos):
                break
            pos = self._balanced_angle_end(pos)
        raw = text[start:pos]
        self._advance(pos)
        dialect = name.group(0)
        from ..dialects import lookup_type_parser

        type_parser = lookup_type_parser(dialect)
        if type_parser is None:
            self.error(
                f"no type parser registered for dialect {dialect!r} "
                f"(while parsing '!{raw}')", self._end)
        result = type_parser(raw, parse_type)
        if result is None:
            self.error(f"dialect {dialect!r} cannot parse type '!{raw}'",
                       self._end)
        return result

    def _balanced_angle_end(self, start: int) -> int:
        """End of the balanced ``<...>`` group opening at ``start``."""
        depth = 0
        for m in _ANGLE_RE.finditer(self.text, start):
            depth += 1 if m.group() == "<" else -1
            if depth == 0:
                return m.end()
        self.error("unbalanced '<...>' in dialect type", start)
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------
    def _parse_attr_dict(self) -> Dict[str, Attribute]:
        self._expect("{")
        attrs: Dict[str, Attribute] = {}
        if not self._consume("}"):
            while True:
                key = self._match(_IDENT_RE)
                if key is None:
                    self.error("expected an attribute name")
                self._expect("=", "after the attribute name")
                attrs[key] = self.parse_attribute()
                if not self._consume(","):
                    break
            self._expect("}", "after the attribute dictionary")
        return attrs

    def parse_attribute(self) -> Attribute:
        if self._consume("true"):
            return BoolAttr(True)
        if self._consume("false"):
            return BoolAttr(False)
        if self._consume("unit"):
            return UnitAttr()
        if self._peek('"'):
            return StringAttr(self._parse_string_literal("string attribute"))
        if self._peek("@"):
            return self._parse_symbol_ref()
        if self._peek("["):
            return self._parse_array_attr()
        if self._consume("dense"):
            return self._parse_dense_attr()
        if self._peek("{"):
            return DictAttr(tuple(self._parse_attr_dict().items()))
        number = self._match(_NUMBER_RE)
        if number is not None:
            self._expect(":", "after a numeric attribute value")
            type_ = self.parse_type()
            if is_float(type_):
                return FloatAttr(float(number), type_)
            try:
                return IntegerAttr(int(number), type_)
            except ValueError:
                self.error(f"invalid integer literal {number!r} for "
                           f"type {type_}", self._end)
        return TypeAttr(self.parse_type())

    def _parse_symbol_name(self) -> Optional[str]:
        """A bare identifier or a quoted name (``@"6vecadd..."``, which
        the printer uses for any name that is not a bare identifier)."""
        if self._peek('"'):
            return self._parse_string_literal("symbol name")
        return self._match(_IDENT_RE)

    def _parse_symbol_ref(self) -> SymbolRefAttr:
        self._expect("@")
        root = self._parse_symbol_name()
        if root is None:
            self.error("expected a symbol name after '@'")
        nested: List[str] = []
        while self._consume("::"):
            self._expect("@", "in a nested symbol reference")
            name = self._parse_symbol_name()
            if name is None:
                self.error("expected a nested symbol name after '::@'")
            nested.append(name)
        return SymbolRefAttr(root, tuple(nested))

    def _parse_array_attr(self) -> ArrayAttr:
        self._expect("[")
        elements: List[Attribute] = []
        if not self._consume("]"):
            while True:
                elements.append(self.parse_attribute())
                if not self._consume(","):
                    break
            self._expect("]", "after the array attribute")
        return ArrayAttr(tuple(elements))

    def _parse_dense_attr(self) -> DenseElementsAttr:
        self._expect("<", "after 'dense'")
        self._expect("[", "in a dense attribute")
        values: List[object] = []
        if not self._consume("]"):
            while True:
                if self._peek("..."):
                    self.error(
                        "dense attribute contains a truncation marker "
                        "('...'); the data cannot be reconstructed")
                number = self._match(_NUMBER_RE)
                if number is None:
                    self.error("expected a number in dense attribute")
                if any(c in number for c in ".eE") or \
                        number.lstrip("-") in ("inf", "nan"):
                    values.append(float(number))
                else:
                    values.append(int(number))
                if not self._consume(","):
                    break
            self._expect("]", "after the dense attribute values")
        self._expect(":", "before the dense attribute shape")
        shape = self._parse_shape()
        element_type = self.parse_type()
        self._expect(">", "after the dense attribute")
        return DenseElementsAttr(tuple(values), shape, element_type)


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------

def parse_op(text: str, allow_unregistered: bool = False,
             filename: str = "<input>") -> Operation:
    """Parse a single top-level operation; the whole input must be used."""
    parser = Parser(text, allow_unregistered=allow_unregistered,
                    filename=filename)
    if parser._at_end():
        parser.error("empty input: expected an operation")
    op = parser.parse_operation()
    if not parser._at_end():
        parser.error("unexpected trailing input after the top-level operation")
    parser._close_scope()
    return op


def parse_module(text: str, allow_unregistered: bool = False,
                 filename: str = "<input>") -> Operation:
    """Parse textual IR holding one top-level op (typically a module)."""
    return parse_op(text, allow_unregistered=allow_unregistered,
                    filename=filename)


def parse_type(text: str) -> Type:
    """Parse a standalone type from ``text`` (used by dialect type hooks)."""
    parser = Parser(text)
    type_ = parser.parse_type()
    if not parser._at_end():
        parser.error("unexpected trailing input after the type")
    return type_


def parse_attribute(text: str) -> Attribute:
    """Parse a standalone attribute value from ``text``."""
    parser = Parser(text)
    attr = parser.parse_attribute()
    if not parser._at_end():
        parser.error("unexpected trailing input after the attribute")
    return attr
