"""Every durable write in ``src/repro`` goes through ``repro.util.durable``.

An AST scan for calls to ``os.fsync``, ``os.replace``, ``os.rename`` and
``os.link``: outside ``util/durable.py`` each one must sit in a function
on the allowlist below, which names the few I/O sites that are
deliberately not a write-tmp/fsync/publish commit.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
DURABLE = SRC / "util" / "durable.py"
SYSCALLS = {"fsync", "replace", "rename", "link"}

#: (module, qualified function) -> why it stays plain I/O
ALLOWED = {
    ("repro.chaos.schedule", "ChaosSchedule._log"): (
        "the chaos fire log; routing it through durable would recurse into the chaos layer"
    ),
    ("repro.chaos.schedule", "ChaosSchedule._tear"): (
        "fabricates a torn write on purpose; same recursion rule as _log"
    ),
    ("repro.guard.doctor", "check_queue"): (
        "a filesystem probe that checks os.replace itself works"
    ),
    ("repro.core.checkpoint", "repair_tail"): (
        "in-place truncate of a torn tail: there is no new content to stage"
    ),
    ("repro.dist.queue", "WorkQueue._create_lease"): (
        "the O_EXCL create is the lease arbitration; its fsync makes the claim durable"
    ),
    ("repro.dist.queue", "WorkQueue.commit_result"): (
        "publishes durable.staged scratch by first-commit-wins os.link (os.replace without links)"
    ),
    ("repro.dist.queue", "WorkQueue.try_claim"): (
        "the rename-away of an expired lease: exactly one reclaimer wins"
    ),
    ("repro.service.store", "RunRecordStore._quarantine"): (
        "moves a damaged entry aside; no bytes are written"
    ),
    ("repro.dist.queue", "WorkQueue._quarantine_slot"): (
        "moves a pool slot that failed its digest aside; no bytes are written"
    ),
}


class _Calls(ast.NodeVisitor):
    """Collect ``(qualified function, syscall, line)`` for each ``os.X`` call."""

    def __init__(self) -> None:
        self.scope: list[str] = []
        self.found: list[tuple[str, str, int]] = []

    def _nested(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr in SYSCALLS
            and isinstance(f.value, ast.Name)
            and f.value.id == "os"
        ):
            self.found.append((".".join(self.scope) or "<module>", f.attr, node.lineno))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # `from os import replace` would hide a call from the scan above
        if node.module == "os":
            for alias in node.names:
                if alias.name in SYSCALLS:
                    self.found.append(("<import>", alias.name, node.lineno))


def _scan() -> dict[tuple[str, str], list[str]]:
    sites: dict[tuple[str, str], list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == DURABLE:
            continue
        rel = path.relative_to(SRC.parent).with_suffix("")
        module = ".".join(rel.parts).removesuffix(".__init__")
        calls = _Calls()
        calls.visit(ast.parse(path.read_text(), filename=str(path)))
        for func, name, line in calls.found:
            sites.setdefault((module, func), []).append(f"os.{name} at {path.name}:{line}")
    return sites


def test_durable_writes_go_through_the_durable_module():
    stray = {k: v for k, v in _scan().items() if k not in ALLOWED}
    assert not stray, (
        "hand-written fsync/rename/link outside repro.util.durable; use "
        f"durable.write_atomic/staged or allowlist it with a reason: {stray}"
    )


def test_allowlist_has_no_stale_entries():
    assert set(ALLOWED) <= set(_scan()), (
        f"allowlisted sites that no longer call os.*: {set(ALLOWED) - set(_scan())}"
    )


def test_the_scan_sees_the_durable_module_itself():
    """Guard against a scan that silently matches nothing."""
    calls = _Calls()
    calls.visit(ast.parse(DURABLE.read_text()))
    assert {name for _, name, _ in calls.found} >= {"fsync", "replace"}
