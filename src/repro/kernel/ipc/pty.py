"""Pseudoterminals.

A pty is a master/slave device pair with line discipline state.
Restoring one must recreate the virtual device in the device
filesystem, which takes devfs locks — the reason Table 4's restore
cost (30.2 µs) dwarfs its checkpoint cost (3.1 µs).
"""

from __future__ import annotations

from typing import Dict

from ...errors import WouldBlock
from ...units import KiB
from ..kobject import KObject

PTY_BUFFER = 8 * KiB

#: Default termios-like settings.
DEFAULT_TERMIOS = {
    "echo": True,
    "icanon": True,
    "isig": True,
    "rows": 24,
    "cols": 80,
}


class Pty(KObject):
    """A pseudoterminal pair (one object; two device endpoints)."""

    obj_type = "pty"

    def __init__(self, kernel, unit: int):
        super().__init__(kernel)
        self.unit = unit
        self.name = f"pts/{unit}"
        self.termios: Dict[str, object] = dict(DEFAULT_TERMIOS)
        self._to_slave = bytearray()   # master writes -> slave reads
        self._to_master = bytearray()  # slave writes -> master reads
        self.session_sid = None        # controlling session, if any

    def master_write(self, data: bytes) -> int:
        """Input from the terminal side (echoed when icanon)."""
        space = PTY_BUFFER - len(self._to_slave)
        if space <= 0:
            raise WouldBlock("pty input buffer full")
        accepted = data[:space]
        self._to_slave += accepted
        if self.termios["echo"]:
            self._to_master += accepted
        self.mark_dirty()
        return len(accepted)

    def slave_read(self, nbytes: int) -> bytes:
        """The application reads its input."""
        out = bytes(self._to_slave[:nbytes])
        del self._to_slave[:nbytes]
        if out:
            self.mark_dirty()
        return out

    def master_read(self, nbytes: int) -> bytes:
        """The terminal side drains output."""
        out = bytes(self._to_master[:nbytes])
        del self._to_master[:nbytes]
        if out:
            self.mark_dirty()
        return out

    def set_winsize(self, rows: int, cols: int) -> None:
        """TIOCSWINSZ: update the window dimensions."""
        self.termios["rows"] = rows
        self.termios["cols"] = cols
        self.mark_dirty()

    def __repr__(self) -> str:
        return f"Pty({self.name})"
