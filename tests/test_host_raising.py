"""Host raising on the kernel names DPC++ actually emits.

``handler::parallel_for<K>`` reaches the compiler Itanium-mangled, e.g.
``_ZN4sycl3_V17handler12parallel_forI4gemmEEvNS0_8nd_rangeILi2EEE``:
the kernel name is length-prefixed and followed by more template
arguments.  Reading past the prefix loses the launch, and with it
host-device propagation and loop internalization on host-launched
kernels.
"""

import pytest

from repro.dialects.sycl import SYCLHostScheduleKernelOp
from repro.transforms import CompileReport, build_named_pipeline
from repro.transforms.host_raising import extract_kernel_name

MANGLED_ND = "_ZN4sycl3_V17handler12parallel_forI{k}EEvNS0_8nd_rangeILi2EEE"
MANGLED_RANGE = "_ZN4sycl3_V17handler12parallel_forI{k}EEvNS0_5rangeILi1EEE"


@pytest.mark.parametrize("callee,expected", [
    (MANGLED_ND.format(k="4gemm"), "gemm"),
    (MANGLED_RANGE.format(k="6vecadd"), "vecadd"),
    (MANGLED_ND.format(k="11my_kernel_2"), "my_kernel_2"),
    ("sycl_handler_parallel_forIgemmE", "gemm"),
    ("sycl::handler::parallel_forIvec_add2E", "vec_add2"),
])
def test_kernel_name_spellings(callee, expected):
    assert extract_kernel_name(callee) == expected


@pytest.mark.parametrize("callee", [
    "parallel_forI10gemmE",   # the prefix overruns the name
    "parallel_forI4g-mmE",    # not an identifier
    "sycl_handler_parallel_for",
])
def test_malformed_names_are_rejected(callee):
    assert extract_kernel_name(callee) is None


def _host_gemm():
    """kernel-exec's host+device GEMM 16 (4x4 work-groups), launched
    through the mangled ``handler::parallel_for<gemm>``."""
    from perfbench.inputs import _host_gemm

    return _host_gemm(16, 4)


def test_mangled_launch_is_raised_to_the_right_kernel():
    module = _host_gemm()
    build_named_pipeline("sycl-mlir").run(module)
    launches = [op for op in module.walk()
                if isinstance(op, SYCLHostScheduleKernelOp)]
    assert len(launches) == 1
    assert launches[0].kernel_symbol.nested == ("gemm",)


def test_host_launched_gemm_is_internalized():
    """With the launch found, the host's nd_range reaches the kernel and
    loop internalization tiles it through local memory."""
    report = CompileReport()
    module = _host_gemm()
    build_named_pipeline("sycl-mlir").run(module, report=report)
    stats = {(stat.pass_name, stat.name): stat.value
             for stat in report.statistics}
    assert stats.get(("loop-internalization", "loops_internalized"), 0) > 0
    kernel = module.lookup_symbol("gemm")
    assert any(op.name == "sycl.group_barrier" for op in kernel.walk())
