"""The parser's positions, its cost per op, and symbol-name quoting.

Three properties of the linear parser:

* **Positions.**  Every op's parsed ``Location`` and every injected
  ``ParseError``'s ``line:column`` equal a brute-force reference
  (``text[:pos].count("\\n")``) at the known character position, under
  ``//`` comments, tab indentation, CRLF line endings and a last line
  with no newline.  The reference does not use the parser.
* **Scaling.**  Parse cost per op is flat: µs/op on a ~6,000-op module
  stays within 1.5x of µs/op on a ~750-op module (best of five each).
* **Symbol names.**  A name that is not a bare identifier (a
  DPC++-mangled kernel such as ``6vecaddEEvNS0_5rangeILi1EE``) prints as
  ``@"..."`` and parses back, at the root and nested.
"""

import gc
import time

import pytest

from benchmarks.generate import GeneratorConfig, count_ops, generate_module
from repro.ir import (
    ParseError,
    Printer,
    SymbolRefAttr,
    parse_attribute,
    parse_module,
)

from .helpers import (
    build_gemm_module,
    build_listing1_function,
    build_listing2_function,
    build_listing3_function,
    wrap_in_module,
)


def _modules():
    modules = {
        "listing1": wrap_in_module(build_listing1_function()[0]),
        "listing2": wrap_in_module(build_listing2_function()[0]),
        "listing3": wrap_in_module(build_listing3_function()[0]),
        "gemm": build_gemm_module()[0],
        "generated": generate_module(GeneratorConfig(
            num_ops=400, num_kernels=2, nesting_depth=2, seed=3)),
    }
    return {name: Printer().print_module(m) for name, m in modules.items()}


MODULE_TEXTS = _modules()


def _reference(text, pos):
    """Brute-force 1-based ``(line, column)`` of character ``pos``."""
    line = text[:pos].count("\n") + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, column


# -- text variants -----------------------------------------------------------
# Each takes printed IR (one op or block header or '})' per line) and
# returns the same IR with a different layout.

def _plain(text):
    return text


def _comments(text):
    lines = ["// leading comment", ""]
    for index, line in enumerate(text.split("\n")):
        if index % 3 == 1:
            lines.append("  // a comment line // with slashes")
        lines.append(line + ("  // trailing note" if index % 4 == 2 else ""))
    return "\n".join(lines)


def _tabs(text):
    out = []
    for line in text.split("\n"):
        stripped = line.lstrip(" ")
        out.append("\t" * (len(line) - len(stripped)) + stripped)
    return "\n".join(out)


def _crlf(text):
    return text.replace("\n", "\r\n") + "\r\n"


def _no_final_newline(text):
    return _comments(text).rstrip("\n")


VARIANTS = {f.__name__.strip("_"): f
            for f in (_plain, _comments, _tabs, _crlf, _no_final_newline)}


def _op_starts(text):
    """Character position of every op, in textual (= pre-order) order:
    the first non-blank character of each line that starts an op."""
    starts = []
    offset = 0
    for line in text.split("\n"):
        body = line.lstrip(" \t")
        if body.startswith(("%", '"')):
            starts.append(offset + len(line) - len(body))
        offset += len(line) + 1
    return starts


def _preorder(op):
    yield op
    for region in op.regions:
        for block in region.blocks:
            for child in block.operations:
                yield from _preorder(child)


class TestLocationOracle:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(MODULE_TEXTS))
    def test_every_op_location_matches_reference(self, name, variant):
        text = VARIANTS[variant](MODULE_TEXTS[name])
        module = parse_module(text, filename="m.mlir")
        ops = list(_preorder(module))
        starts = _op_starts(text)
        assert len(ops) == len(starts)
        for op, pos in zip(ops, starts):
            loc = op.location
            assert loc.filename == "m.mlir"
            assert (loc.line, loc.column) == _reference(text, pos), \
                f"{op.name} at character {pos}"


def _error_at(text, pos):
    with pytest.raises(ParseError) as info:
        parse_module(text)
    error = info.value
    assert (error.line, error.column) == _reference(text, pos), str(error)
    assert str(error).startswith(f"line {error.line}:{error.column}: ")
    return str(error)


class TestErrorPositions:
    """Errors injected at known characters are reported exactly there."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(MODULE_TEXTS))
    def test_garbage_before_an_op(self, name, variant):
        text = VARIANTS[variant](MODULE_TEXTS[name])
        starts = _op_starts(text)
        for pos in (starts[1], starts[len(starts) // 2], starts[-1]):
            bad = text[:pos] + "?" + text[pos:]
            message = _error_at(bad, pos)
            assert "expected operation name in double quotes" in message

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", sorted(MODULE_TEXTS))
    def test_undefined_operand_is_located_at_its_use(self, name, variant):
        text = VARIANTS[variant](MODULE_TEXTS[name])
        # The last operand use in the text: rename it to a name that is
        # never defined; the error points at the renamed use.
        pos = text.rfind("(%") + 1
        end = pos + 1
        while text[end] not in ",)":
            end += 1
        bad = text[:pos] + "%never_defined" + text[end:]
        message = _error_at(bad, pos)
        assert "use of undefined value %never_defined" in message

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_unknown_op_is_located_after_its_signature(self, variant):
        text = VARIANTS[variant](MODULE_TEXTS["listing1"])
        pos = text.index('"memref.load"')
        bad = text[:pos] + '"memref.lod"' + text[pos + 13:]
        # Reported where the signature ends: the ')' closing the results.
        sig_end = bad.index(") -> (", pos)
        sig_end = bad.index(")", sig_end + 1) + 1
        message = _error_at(bad, sig_end)
        assert "unknown operation 'memref.lod'" in message
        assert "did you mean 'memref.load'?" in message

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_unterminated_string_points_inside_it(self, variant):
        text = VARIANTS[variant](MODULE_TEXTS["listing2"])
        pos = _op_starts(text)[-1]
        bad = text[:pos] + '"func.oops'
        message = _error_at(bad, pos + 1)
        assert "unterminated string literal in operation name" in message

    def test_end_of_input_is_located_past_the_last_character(self):
        text = MODULE_TEXTS["listing3"]
        bad = text[:text.rindex("}")].rstrip("\n")
        message = _error_at(bad, len(bad))
        assert "missing '}' before end of input" in message

    def test_forward_reference_type_mismatch_points_at_the_use(self):
        text = (
            '"builtin.module"() : () -> () ({\n'
            '  "func.func"() {function_type = () -> (), '
            'sym_name = "f"} : () -> () ({\n'
            '    %a = "arith.addi"(%b, %b) : (i64, i64) -> (i64)\n'
            '    %b = "arith.constant"() {value = 1 : i32} : () -> (i32)\n'
            '    "func.return"() : () -> ()\n'
            '  })\n'
            '})')
        message = _error_at(text, text.index("%b"))
        assert "type mismatch for forward-referenced value %b" in message


class TestScaling:
    def test_cost_per_op_is_flat_across_sizes(self):
        texts = {}
        for num_ops in (750, 6000):
            module = generate_module(GeneratorConfig(
                num_ops=num_ops, num_kernels=4, nesting_depth=2, seed=7))
            texts[num_ops] = (Printer().print_module(module),
                              count_ops(module))
        # Best of five CPU-time runs per size, the sizes interleaved so
        # a slow spell on the host hits both alike.  The objects the test
        # session already holds are frozen out of the cyclic GC: a full
        # collection would walk them all, a cost of the session's heap
        # rather than of the parser.
        best = dict.fromkeys(texts, float("inf"))
        gc.collect()
        gc.freeze()
        try:
            for _ in range(5):
                for num_ops, (text, _) in texts.items():
                    start = time.process_time()
                    parse_module(text)
                    best[num_ops] = min(best[num_ops],
                                        time.process_time() - start)
        finally:
            gc.unfreeze()
        small, large = (best[n] / texts[n][1] * 1e6 for n in (750, 6000))
        assert large <= 1.5 * small, \
            f"{large:.1f} us/op at 6000 ops vs {small:.1f} at 750"


class TestSymbolNames:
    @pytest.mark.parametrize("ref, printed", [
        (SymbolRefAttr("main"), "@main"),
        (SymbolRefAttr("kernels", ("gemm",)), "@kernels::@gemm"),
        (SymbolRefAttr("kernels", ("6vecaddEEvNS0_5rangeILi1EE",)),
         '@kernels::@"6vecaddEEvNS0_5rangeILi1EE"'),
        (SymbolRefAttr("1st", ("a::b", 'q"t', "")),
         '@"1st"::@"a::b"::@"q\\"t"::@""'),
        (SymbolRefAttr("$x"), '@"$x"'),
    ])
    def test_print_and_parse_back(self, ref, printed):
        assert str(ref) == printed
        assert parse_attribute(printed) == ref

    def test_bad_nested_name_is_still_an_error(self):
        with pytest.raises(ParseError,
                           match="expected a nested symbol name after"):
            parse_attribute("@kernels::@6vecadd")
