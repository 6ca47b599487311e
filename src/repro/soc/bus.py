"""Memory map, RAM, and the shared data bus of the SoC (paper Sec. IV-A).

The paper's SoC has a single data bus connecting the Ibex core to RAM and
to the PASTA peripheral (as a slave); the peripheral additionally masters a
second bus with direct read access to RAM for fetching plaintext blocks.
The single core-side bus is what serializes block processing — the core
cannot configure the next block while it is draining the previous one.

Addresses are 32-bit; devices register half-open ranges ``[base, end)``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import SimulationError, TrapError


class Device:
    """A bus slave. Subclasses implement word-granular access."""

    def __init__(self, base: int, size: int, name: str):
        if base % 4 or size % 4:
            raise SimulationError(f"device {name}: base/size must be word-aligned")
        self.base = base
        self.size = size
        self.name = name

    def contains(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    def read32(self, offset: int) -> int:
        raise NotImplementedError

    def write32(self, offset: int, value: int) -> None:
        raise NotImplementedError

    def tick(self, cycles: int) -> None:
        """Advance device-internal time (called with the global cycle count)."""


class Ram(Device):
    """Flat byte-addressable RAM supporting sub-word access."""

    def __init__(self, base: int, size: int, name: str = "ram"):
        super().__init__(base, size, name)
        self.data = bytearray(size)

    def load(self, offset: int, image: bytes) -> None:
        if offset + len(image) > self.size:
            raise SimulationError(f"image of {len(image)} bytes overflows RAM")
        self.data[offset : offset + len(image)] = image

    def read32(self, offset: int) -> int:
        return int.from_bytes(self.data[offset : offset + 4], "little")

    def write32(self, offset: int, value: int) -> None:
        self.data[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    def read8(self, offset: int) -> int:
        return self.data[offset]

    def write8(self, offset: int, value: int) -> None:
        self.data[offset] = value & 0xFF

    def read16(self, offset: int) -> int:
        return int.from_bytes(self.data[offset : offset + 2], "little")

    def write16(self, offset: int, value: int) -> None:
        self.data[offset : offset + 2] = (value & 0xFFFF).to_bytes(2, "little")


class Bus:
    """The core-side data bus: routes accesses, charges access latency."""

    #: Extra cycles per data-bus access beyond the core's execute cycle.
    ACCESS_LATENCY = 1

    def __init__(self):
        self.devices: List[Device] = []

    def attach(self, device: Device) -> None:
        for existing in self.devices:
            overlap = not (
                device.base + device.size <= existing.base
                or existing.base + existing.size <= device.base
            )
            if overlap:
                raise SimulationError(f"{device.name} overlaps {existing.name}")
        self.devices.append(device)

    def _find(self, address: int) -> Tuple[Device, int]:
        for device in self.devices:
            if device.contains(address):
                return device, address - device.base
        raise TrapError(f"bus error: no device at {address:#010x}")

    # Word access works on any device; byte/half only on RAM.

    def read32(self, address: int) -> int:
        if address % 4:
            raise TrapError(f"misaligned 32-bit read at {address:#010x}")
        device, offset = self._find(address)
        return device.read32(offset)

    def write32(self, address: int, value: int) -> None:
        if address % 4:
            raise TrapError(f"misaligned 32-bit write at {address:#010x}")
        device, offset = self._find(address)
        device.write32(offset, value)

    def _ram_at(self, address: int) -> Tuple[Ram, int]:
        device, offset = self._find(address)
        if not isinstance(device, Ram):
            raise TrapError(f"sub-word access to non-RAM device at {address:#010x}")
        return device, offset

    def read8(self, address: int) -> int:
        ram, offset = self._ram_at(address)
        return ram.read8(offset)

    def write8(self, address: int, value: int) -> None:
        ram, offset = self._ram_at(address)
        ram.write8(offset, value)

    def read16(self, address: int) -> int:
        if address % 2:
            raise TrapError(f"misaligned 16-bit read at {address:#010x}")
        ram, offset = self._ram_at(address)
        return ram.read16(offset)

    def write16(self, address: int, value: int) -> None:
        if address % 2:
            raise TrapError(f"misaligned 16-bit write at {address:#010x}")
        ram, offset = self._ram_at(address)
        ram.write16(offset, value)

    def tick(self, cycles: int) -> None:
        for device in self.devices:
            device.tick(cycles)
