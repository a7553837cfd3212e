"""A block filesystem with a garbage collector, on a mercurial core.

Reproduces two §2 anecdotes:

- "Corruption affecting garbage collection, in a storage system,
  causing live data to be lost": the mark phase of :meth:`MiniFs.gc`
  reads every inode's block pointers *through the core*; a corrupted
  pointer read leaves a live block unmarked and the sweep frees it —
  permanent data loss, discovered only on a later read (the
  wrong-answer-detected-too-late symptom class);
- "bad metadata can cause the loss of an entire file system": inode
  pointer words themselves live in a metadata region whose updates run
  through the core.

Files carry end-to-end content checksums (computed host-side at write
time, the way a client library would before handing bytes to the
filesystem), so reads can always *detect* loss — they just cannot
recover it, which is the paper's point about blast radius.
"""

from __future__ import annotations

import dataclasses

from repro.silicon.units import Op
from repro.workloads.base import CoreLike, WorkloadResult, digest_bytes

BLOCK_BYTES = 64


class FsError(Exception):
    """Filesystem-level failure (bad pointer, missing block)."""


@dataclasses.dataclass
class Inode:
    """One file's metadata: name, size, block pointers, checksum."""

    name: str
    size: int
    block_pointers: list[int]
    content_checksum: int


class MiniFs:
    """Flat-namespace filesystem: blocks + inodes + mark/sweep GC."""

    def __init__(self, core: CoreLike, n_blocks: int = 512):
        if n_blocks <= 0:
            raise ValueError("need at least one block")
        self.core = core
        self.blocks: list[bytes | None] = [None] * n_blocks
        self.free: list[int] = list(range(n_blocks - 1, -1, -1))
        self.inodes: dict[str, Inode] = {}
        self.lost_blocks = 0  # ground truth: live blocks freed by GC

    # -- write/read -----------------------------------------------------

    def write_file(self, name: str, data: bytes) -> None:
        """Create or replace a file."""
        if name in self.inodes:
            self.delete(name)
        n_needed = max(1, (len(data) + BLOCK_BYTES - 1) // BLOCK_BYTES)
        if len(self.free) < n_needed:
            raise FsError("out of space")
        pointers: list[int] = []
        for index in range(n_needed):
            block_no = self.free.pop()
            chunk = data[index * BLOCK_BYTES:(index + 1) * BLOCK_BYTES]
            self.blocks[block_no] = chunk
            # The pointer word is written through the core: a store-path
            # defect corrupts the durable metadata itself.
            pointers.append(self.core.execute(Op.STORE, block_no))
        self.inodes[name] = Inode(
            name=name,
            size=len(data),
            block_pointers=pointers,
            content_checksum=digest_bytes(data),
        )

    def read_file(self, name: str) -> bytes:
        """Read and end-to-end-verify a file.

        Raises:
            FsError: unknown name, dangling/corrupt pointer, freed
                block, or checksum mismatch (detected data loss).
        """
        inode = self.inodes.get(name)
        if inode is None:
            raise FsError(f"no such file {name!r}")
        data = bytearray()
        for pointer in inode.block_pointers:
            block_no = self.core.execute(Op.LOAD, pointer)
            if not 0 <= block_no < len(self.blocks):
                raise FsError(f"pointer {block_no} out of range in {name!r}")
            block = self.blocks[block_no]
            if block is None:
                raise FsError(f"block {block_no} of {name!r} is not allocated")
            data.extend(block)
        content = bytes(data[:inode.size])
        if digest_bytes(content) != inode.content_checksum:
            raise FsError(f"checksum mismatch reading {name!r}")
        return content

    def delete(self, name: str) -> None:
        """Remove a file and free its blocks (no-op if absent)."""
        inode = self.inodes.pop(name, None)
        if inode is None:
            return
        for pointer in inode.block_pointers:
            if 0 <= pointer < len(self.blocks) and self.blocks[pointer] is not None:
                self.blocks[pointer] = None
                self.free.append(pointer)

    # -- garbage collection ----------------------------------------------

    def gc(self) -> int:
        """Mark-and-sweep unreferenced blocks; returns blocks freed.

        The mark phase reads every pointer through the core.  A
        corrupted pointer read marks the *wrong* block: the genuinely
        live block stays unmarked and is swept — silent loss of live
        data, recorded in ``lost_blocks`` as ground truth.
        """
        marked = [False] * len(self.blocks)
        for inode in self.inodes.values():
            for pointer in inode.block_pointers:
                observed = self.core.execute(Op.LOAD, pointer)
                if 0 <= observed < len(self.blocks):
                    marked[observed] = True
        freed = 0
        live_pointers = {
            pointer
            for inode in self.inodes.values()
            for pointer in inode.block_pointers
        }
        for block_no, is_marked in enumerate(marked):
            if is_marked or self.blocks[block_no] is None:
                continue
            if block_no in live_pointers:
                self.lost_blocks += 1  # ground truth: this was live data
            self.blocks[block_no] = None
            self.free.append(block_no)
            freed += 1
        return freed

    # -- fsck --------------------------------------------------------------

    def fsck(self) -> list[str]:
        """Offline consistency check; returns human-readable problems."""
        problems: list[str] = []
        seen: dict[int, str] = {}
        for inode in self.inodes.values():
            for pointer in inode.block_pointers:
                if not 0 <= pointer < len(self.blocks):
                    problems.append(f"{inode.name}: pointer {pointer} out of range")
                    continue
                if self.blocks[pointer] is None:
                    problems.append(f"{inode.name}: dangling pointer {pointer}")
                if pointer in seen:
                    problems.append(
                        f"{inode.name}: block {pointer} double-referenced "
                        f"(also {seen[pointer]})"
                    )
                seen[pointer] = inode.name
        return problems


#: delete/rewrite rounds :func:`filesystem_workload` runs before reading
CHURN_ROUNDS = 3


def filesystem_workload(
    core: CoreLike, files: dict[str, bytes]
) -> WorkloadResult:
    """Write files, churn + GC, then read everything back and verify.

    :data:`CHURN_ROUNDS` delete/rewrite rounds create real garbage so
    the GC has work to do; data loss shows up as read-time checksum
    failures.

    Raises:
        ValueError: ``files`` is empty (the churn rounds need a victim).
    """
    if not files:
        raise ValueError("files must name at least one file")
    fs = MiniFs(core)
    try:
        for name, data in files.items():
            fs.write_file(name, data)
        names = list(files)
        for round_index in range(CHURN_ROUNDS):
            victim = names[round_index % len(names)]
            fs.write_file(victim, files[victim] + b"!" * (round_index + 1))
            fs.gc()
        failures = 0
        contents: list[bytes] = []
        for position, name in enumerate(names):
            rewritten = position < CHURN_ROUNDS
            try:
                content = fs.read_file(name)
                contents.append(content)
                if not rewritten and content != files[name]:
                    failures += 1
            except FsError:
                failures += 1
        return WorkloadResult(
            name="filesystem",
            output_digest=digest_bytes(b"|".join(contents)),
            app_detected=failures > 0,
            detail=f"{failures} read failures, {fs.lost_blocks} blocks lost",
            units=len(files),
        )
    except FsError as exc:
        return WorkloadResult(
            name="filesystem",
            output_digest=0,
            crashed=True,
            detail=str(exc),
            units=len(files),
        )
