"""Plan and shard containers fail closed when corrupted.

A saved checkpoint plan or shard-result file that was truncated, had a
bit flipped anywhere — magic line, JSON header or pickle payload — was
written in another container format, or carries a magic or header line
past the reader's cap must raise a typed error (``ContainerError`` or
``PlanError``), never an arbitrary unpickling exception, and must never
load silently.  The files are written by the
real writers (`save_plan`, `write_shard_result`); flip positions and
truncation lengths are seeded.
"""

import random
import time

import pytest

from repro.distributed import (
    read_shard_header,
    read_shard_result,
    run_shard,
    write_shard_result,
)
from repro.drivers import assemble_c_program
from repro.engine.state import CampaignRequest
from repro.hw import standard_pc
from repro.kernel.checkpoint import (
    PlanError,
    load_plan,
    read_plan_header,
    record_plan,
    save_plan,
)
from repro.kernel.kernel import DEFAULT_STEP_BUDGET
from repro.minic.program import compile_program
from repro.serialize import (
    CONTAINER_FORMAT,
    MAX_PREAMBLE_LINE,
    ContainerError,
)

TYPED_ERRORS = (ContainerError, PlanError)

#: Random cases per corruption class and container kind.
CASES = 100


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """``kind -> (intact bytes, loader)`` for a plan and a shard file."""
    root = tmp_path_factory.mktemp("containers")
    files, registry = assemble_c_program()
    plan = record_plan(
        compile_program(files, registry),
        standard_pc(with_busmouse=False),
        DEFAULT_STEP_BUDGET,
    )
    plan_path = root / "plan.ckpt"
    save_plan(plan, plan_path, files[0].text, files[0].name)
    shard = run_shard(
        CampaignRequest(
            driver="c", fraction=0.005, seed=3, boot_checkpoint=False
        ),
        0,
        2,
    )
    shard_path = root / "s.shard"
    write_shard_result(shard, shard_path)
    return {
        "plan": (plan_path.read_bytes(), load_plan),
        "shard": (shard_path.read_bytes(), read_shard_result),
    }


def _sections(data: bytes) -> dict[str, range]:
    magic_end = data.index(b"\n") + 1
    header_end = data.index(b"\n", magic_end) + 1
    return {
        "magic": range(0, magic_end),
        "header": range(magic_end, header_end),
        "payload": range(header_end, len(data)),
    }


def _assert_refused(tmp_path, loader, data: bytes, label: str) -> None:
    path = tmp_path / "corrupt.bin"
    path.write_bytes(data)
    try:
        loaded = loader(path)
    except TYPED_ERRORS:
        return
    except Exception as error:  # noqa: BLE001 - the failure under test
        pytest.fail(f"{label}: untyped {type(error).__name__}: {error}")
    pytest.fail(f"{label}: loaded without error ({type(loaded).__name__})")


@pytest.mark.parametrize("kind", ["plan", "shard"])
def test_intact_container_loads(tmp_path, containers, kind):
    data, loader = containers[kind]
    path = tmp_path / "intact.bin"
    path.write_bytes(data)
    assert loader(path) is not None


@pytest.mark.parametrize("kind", ["plan", "shard"])
def test_truncation_is_refused(tmp_path, containers, kind):
    data, loader = containers[kind]
    sections = _sections(data)
    rng = random.Random(f"truncate:{kind}")
    lengths = {0, 1, sections["header"].start, sections["payload"].start}
    lengths |= {len(data) - 1, len(data) - 2}
    lengths |= {rng.randrange(len(data)) for _ in range(CASES)}
    for length in sorted(lengths):
        _assert_refused(tmp_path, loader, data[:length], f"{kind}[:{length}]")


@pytest.mark.parametrize("section", ["magic", "header", "payload"])
@pytest.mark.parametrize("kind", ["plan", "shard"])
def test_bit_flip_is_refused(tmp_path, containers, kind, section):
    data, loader = containers[kind]
    positions = _sections(data)[section]
    rng = random.Random(f"flip:{kind}:{section}")
    flips = {(rng.choice(positions), rng.randrange(8)) for _ in range(CASES)}
    for offset, bit in sorted(flips):
        corrupt = bytearray(data)
        corrupt[offset] ^= 1 << bit
        _assert_refused(
            tmp_path, loader, bytes(corrupt), f"{kind} {section} byte {offset} bit {bit}"
        )


@pytest.mark.parametrize("fmt", [CONTAINER_FORMAT - 1, CONTAINER_FORMAT + 1])
@pytest.mark.parametrize("kind", ["plan", "shard"])
def test_other_container_format_is_refused(tmp_path, containers, kind, fmt):
    data, loader = containers[kind]
    magic, rest = data.split(b"\n", 1)
    fields = magic.split(b" ")
    fields[1] = str(fmt).encode()
    path = tmp_path / "other-format.bin"
    path.write_bytes(b" ".join(fields) + b"\n" + rest)
    with pytest.raises(ContainerError, match=f"unsupported container format {fmt}"):
        loader(path)


@pytest.mark.parametrize("section", ["magic", "header"])
@pytest.mark.parametrize("kind", ["plan", "shard"])
def test_oversized_preamble_line_is_refused(
    tmp_path, containers, kind, section
):
    """A magic or header line that runs past the cap is refused unread."""
    data, loader = containers[kind]
    magic, header, payload = data.split(b"\n", 2)
    padding = b" " * (MAX_PREAMBLE_LINE + 1)
    if section == "magic":
        magic += padding
    else:
        header += padding
    path = tmp_path / "oversized.bin"
    path.write_bytes(b"\n".join((magic, header, payload)))
    header_reader = read_plan_header if kind == "plan" else read_shard_header
    for reader in (header_reader, loader):
        with pytest.raises(ContainerError, match="longer than"):
            reader(path)


def test_sparse_gigabyte_without_newline_is_refused_quickly(tmp_path):
    path = tmp_path / "huge.bin"
    with open(path, "wb") as handle:
        handle.truncate(1 << 30)
    start = time.perf_counter()
    with pytest.raises(ContainerError):
        read_shard_header(path)
    assert time.perf_counter() - start < 1.0
