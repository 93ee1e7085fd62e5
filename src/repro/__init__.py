"""Aurora single level store — a faithful simulated reproduction.

Reproduction of *The Aurora Single Level Store Operating System*
(Tsalapatis, Hancock, Barnes, Mashtizadeh — SOSP 2021) as a
deterministic discrete-time simulation: a FreeBSD-like kernel
substrate, the Aurora SLS orchestrator with system shadowing, a COW
object store, the Aurora file system, and the paper's full evaluation
(CRIU and Redis-RDB baselines, Memcached, RocksDB, FileBench).

Quickstart::

    from repro import Machine, load_aurora

    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc)
    ...                      # run the app; Aurora checkpoints at 100 Hz
    machine.crash()          # power failure
    machine.boot()
    sls = load_aurora(machine)
    proc = sls.restore(group.group_id)   # picks up where it left off

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from .machine import Machine
from .errors import ReproError, KernelError, SLSError, StoreError
from .units import KiB, MiB, GiB, PAGE_SIZE, USEC, MSEC, SEC

__version__ = "1.0.0"

__all__ = [
    "Machine",
    "load_aurora",
    "AuroraAPI",
    "ReproError",
    "KernelError",
    "SLSError",
    "StoreError",
    "KiB", "MiB", "GiB", "PAGE_SIZE", "USEC", "MSEC", "SEC",
    "__version__",
]


def __getattr__(name):
    if name == "AuroraAPI":
        from .core.api import AuroraAPI

        return AuroraAPI
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def load_aurora(machine):
    """Load the Aurora modules on a booted machine.

    Formats the object store on first use, or recovers it (finding the
    last complete checkpoint of every consistency group) if the array
    already holds one.  Returns the SLS orchestrator.
    """
    from .core.orchestrator import load_aurora as _load

    return _load(machine)
