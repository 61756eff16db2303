"""Source-level conventions the runtimes must keep.

Deadlines and durations use ``time.monotonic()`` / ``time.perf_counter``
everywhere — a wall clock stepped by NTP mid-run would corrupt timeouts
and span durations.  ``time.time()`` is allowed only to *record* wall
time (log stamps, diagnostics records, the tracer's alignment origin),
and every such line must say so with a ``wall`` marker so this lint can
tell intent from accident.

A rank's per-step functions do no file-system work: every open, create
or re-read there costs a syscall round trip on each step.
"""

import ast
import importlib
import re
from pathlib import Path

from repro.distrib.settings import BACKENDS, POLICIES, TRANSPORTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: packages whose hot paths and protocols must stay monotonic
MONOTONIC_PACKAGES = ("core", "net", "distrib", "serve")


def _py_files():
    for pkg in MONOTONIC_PACKAGES:
        yield from (SRC / pkg).rglob("*.py")


def test_no_bare_wall_clock_in_runtimes():
    """Every ``time.time()`` in core/net/distrib/serve carries a wall
    marker."""
    offenders = []
    for path in _py_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "time.time()" in line and "wall" not in line:
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: "
                                 f"{line.strip()}")
    assert not offenders, (
        "bare time.time() in a runtime package — use time.monotonic() "
        "for deadlines, or mark the line as a wall-clock record "
        "(wall_time field / '# wall stamp'):\n" + "\n".join(offenders)
    )


def test_no_datetime_now_in_runtimes():
    """``datetime.now()`` is the same wall clock in disguise."""
    pattern = re.compile(r"datetime\.(?:datetime\.)?now\(")
    offenders = []
    for path in _py_files():
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line) and "wall" not in line:
                offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "datetime.now() in a runtime package:\n" + "\n".join(offenders)
    )


#: the per-step functions of a rank, as ``(module, class, method)``
STEP_PATH = (
    ("distrib/worker.py", "Worker", "_step_once"),
    ("distrib/worker.py", "Worker", "_heartbeat"),
    ("distrib/worker.py", "Worker", "_write_partials"),
    ("net/transport.py", "SocketExchanger", "_sweep"),
)
#: calls that create, open or re-read files
FILE_CALLS = {"open", "os.open", "write_text", "read_text", "mkdir"}


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id == "os":
            return f"os.{func.attr}"
        return func.attr
    return ""


def _method(path: Path, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{path.relative_to(SRC)}: no {cls}.{name}")


def test_no_file_system_work_on_the_step_path():
    """A rank's step opens and creates no file: the heartbeat is a
    store into a record mapped once, never an open/create per step."""
    offenders = []
    for rel, cls, name in STEP_PATH:
        path = SRC / rel
        for node in ast.walk(_method(path, cls, name)):
            if isinstance(node, ast.Call) and _call_name(node) in FILE_CALLS:
                offenders.append(f"{rel}:{node.lineno}: {cls}.{name} calls "
                                 f"{_call_name(node)}()")
    assert not offenders, (
        "file-system call on the per-step path:\n" + "\n".join(offenders)
    )


#: the channel sets a rank's ghost exchanger drives
CHANNEL_SETS = (
    ("net/channels.py", "ChannelSet"),
    ("net/udp.py", "UdpChannelSet"),
    ("net/local.py", "LocalChannelSet"),
)


def _param_names(fn: ast.FunctionDef) -> tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg is not None:
        names.append("*" + args.vararg.arg)
    if args.kwarg is not None:
        names.append("**" + args.kwarg.arg)
    return tuple(names)


def test_channel_sets_share_one_data_plane_signature():
    """The channel sets are interchangeable under the exchangers:
    ``send_data``/``recv_data`` take the same parameter names
    everywhere, so no transport-only knob can hide behind a parameter
    the others lack or a ``**kwargs`` that swallows it."""
    for name in ("send_data", "recv_data"):
        sigs = {
            cls: _param_names(_method(SRC / rel, cls, name))
            for rel, cls in CHANNEL_SETS
        }
        assert len(set(sigs.values())) == 1, (
            f"channel sets disagree on {name} parameters: {sigs}"
        )


#: in-process runner construction: only ``ProblemSpec.build_simulation``
RUNNER_CALLS = {"Simulation", "ThreadedSimulation", "build_converters"}
#: the one exception: a rank worker converts its own seam edges
RUNNER_CALL_EXCEPTIONS = {("distrib/worker.py", "build_converters")}


def test_one_spec_to_runner_path():
    """A spec becomes an in-process runner in one place: no module but
    the builder constructs a runner or the hybrid seam converters, so a
    new spec option reaches every in-process run through one path."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "distrib/spec.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if (name in RUNNER_CALLS
                    and (rel, name) not in RUNNER_CALL_EXCEPTIONS):
                offenders.append(f"{rel}:{node.lineno}: {name}()")
    assert not offenders, (
        "in-process runner built outside ProblemSpec.build_simulation:\n"
        + "\n".join(offenders)
    )


#: the modules that own the support table and the re-cut rule
SUPPORT_OWNERS = {"distrib/settings.py", "balance/recut.py"}
#: the table's columns: a membership test against one of them
#: elsewhere is a second copy of the rule
SUPPORT_TABLES = re.compile(r"BACKENDS|TRANSPORTS|POLICIES|SERVED")
#: ... and so is a literal tuple, list or set spelling two or more
#: names of one column
SUPPORT_NAMES = (BACKENDS, TRANSPORTS, POLICIES)


def _names(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _names_a_column(node: ast.AST) -> bool:
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return False
    strings = {e.value for e in node.elts
               if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return any(len(strings & set(col)) >= 2 for col in SUPPORT_NAMES)


def test_one_support_check():
    """Whether a run can go ahead is decided in one place,
    ``distrib.settings.check_supported``: no other module tests a
    backend, transport or policy for membership in the table, spells
    out a column of it, or asks ``check_rebalanceable`` itself."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in SUPPORT_OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn))
                and SUPPORT_TABLES.search(_names(right))
                for op, right in zip(node.ops, node.comparators)
            ):
                offenders.append(f"{rel}:{node.lineno}: membership test")
            elif _names_a_column(node):
                offenders.append(f"{rel}:{node.lineno}: literal table")
            elif (isinstance(node, ast.Call)
                    and _call_name(node) == "check_rebalanceable"):
                offenders.append(f"{rel}:{node.lineno}: check_rebalanceable()")
    assert not offenders, (
        "support rule outside distrib.settings.check_supported:\n"
        + "\n".join(offenders)
    )


#: the ghost-fill primitives only ``core.exchange.fill_ghost`` calls
GHOST_FILL_CALLS = {"_replicate_edge", "convert"}


def test_one_ghost_fill():
    """Every transport fills a face through ``fill_ghost``: no module
    but ``core/exchange.py`` replicates an edge or runs a seam
    converter itself, so the in-process and socket fills cannot drift
    apart again."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == "core/exchange.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and _call_name(node) in GHOST_FILL_CALLS):
                offenders.append(f"{rel}:{node.lineno}: "
                                 f"{_call_name(node)}()")
    assert not offenders, (
        "ghost strip filled outside core.exchange.fill_ghost:\n"
        + "\n".join(offenders)
    )


#: the prose docs the doc-truth lint reads (``bench/README.md`` is the
#: benchmark's own)
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md", "docs/*.md")
#: inline code spans and fenced blocks
CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.S)
#: ``path.py`` with an optional ``:line`` or ``:first-last``
PY_REF = re.compile(r"([\w./-]*\w\.py)(?::(\d+)(?:-(\d+))?)?\b")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
#: ``repro <command> ...`` up to the end of its shell command
CLI_CALL = re.compile(
    r"(?:\brepro|-m repro\.tools)[ \t]+([a-z][\w-]*)([^|;&#\n]*)")
CLI_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, then getattr the
    rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_docs_name_live_code():
    """Every ``*.py`` path a doc names in code resolves to a repo file
    by suffix, every ``path.py:N`` has an N-th line, every dotted
    ``repro.`` name imports, and every ``--flag`` after ``repro
    <command>`` is an option of that command: a rename or deletion
    fails here until the docs follow it."""
    from repro.tools.cli import _parser

    commands = next(a.choices for a in _parser()._actions
                    if a.dest == "command")
    files = [p.relative_to(ROOT).as_posix() for p in ROOT.rglob("*.py")
             if not any(part.startswith(".")
                        for part in p.relative_to(ROOT).parts)]
    dead = []
    for doc in sorted(d for pattern in DOCS for d in ROOT.glob(pattern)):
        for span in CODE_SPAN.finditer(doc.read_text()):
            joined = span.group().replace("\\\n", " ")  # continued lines
            for call in CLI_CALL.finditer(joined):
                name, rest = call.groups()
                options = getattr(commands.get(name),
                                  "_option_string_actions", {})
                dead += [f"{doc.name}: repro {name} {flag}"
                         for flag in CLI_FLAG.findall(rest)
                         if flag not in options]
            for ref in PY_REF.finditer(span.group()):
                path, first, last = ref.groups()
                path = path.lstrip("./")
                hits = [f for f in files
                        if f == path or f.endswith("/" + path)]
                line = int(last or first or 0)
                if not any(line <= len((ROOT / f).read_text().splitlines())
                           for f in hits):
                    dead.append(f"{doc.name}: {ref.group()}")
            dead += [f"{doc.name}: {name.group()}"
                     for name in DOTTED.finditer(span.group())
                     if not _resolves(name.group())]
    assert not dead, "docs name code that does not exist:\n" + "\n".join(
        dead)
