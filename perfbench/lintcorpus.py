"""Seeded generator of a ``src/repro/...`` tree for the ``lint`` workload.

The tree is sized like the repository's own lint input (about 200
modules, 1,900 functions, 9,000 call sites and 700 import edges) so the
call graph and every rule layer do comparable work. Its size is fixed;
the seed only changes names, the import graph, which templates fill
each module, and where each planted violation lands.

One violation is planted per rule family (DET, NUM, IO/ATOM/RES,
MP/SIG/EXC/ASY, UNIT). Each whole-program plant sits two call hops
below its zone entry point, as in the replint acceptance fixture.
Everything else is clean code, so the expected findings are exactly the
planted *locations* (file and line). The check deliberately ignores
rule ids: a change that merges or renames rules and keeps the same
findings still passes.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from pathlib import Path

#: Zone packages the clean modules are spread over (``util`` has no zone).
PACKAGES = ("simnet", "tor", "analysis", "measure", "web", "pts", "core",
            "util")
CLEAN_MODULES = 176
FUNCTIONS_PER_MODULE = (7, 8, 9, 10, 11, 12)   # cycled, then shuffled
IMPORTS_PER_MODULE = (1, 2, 3, 3, 4, 5)

_WORDS = ("alpha", "bravo", "cedar", "delta", "ember", "fjord", "gamma",
          "harbor", "iris", "jade", "kilo", "lumen", "maple", "nova",
          "onyx", "pico", "quill", "raven", "sierra", "tango", "umber",
          "vivid", "willow", "xenon", "yarrow", "zephyr")

UNITS_SOURCE = '''\
def seconds_to_ms(t_s):
    return t_s * 1000.0


def ms_to_seconds(t_ms):
    return t_ms / 1000.0
'''

PYPROJECT = '[tool.replint]\npaths = ["src"]\n'

#: Planted violations. Each entry is a group of files; ``{name}``
#: placeholders take seeded identifiers, and a trailing ``#!`` marks
#: the line the finding must be reported on.
_PLANTS: tuple[tuple[tuple[str, str], ...], ...] = (
    (  # DET03: zone entry -> stamp -> read_clock -> time.time()
        ("util/{clock}.py", """\
import time


def {read_clock}():
    return time.time()
"""),
        ("util/{mid}.py", """\
from repro.util.{clock} import {read_clock}


def {stamp}():
    return {read_clock}()
"""),
        ("simnet/{engine}.py", """\
from repro.util.{mid} import {stamp}


def {step}():
    return {stamp}()  #!
"""),
    ),
    (  # DET04: zone entry -> pass_through -> gather -> set(...)
        ("util/{collect}.py", """\
def {gather}(items):
    return set(items)
"""),
        ("util/{fwd}.py", """\
from repro.util.{collect} import {gather}


def {pass_through}(items):
    return {gather}(items)
"""),
        ("measure/{report}.py", """\
from repro.util.{fwd} import {pass_through}


def {render}(items):
    return ",".join({pass_through}(items))  #!
"""),
    ),
    (  # NUM01: a bare float sum in a reduction path (a per-file rule)
        ("analysis/{reduce}.py", """\
def {mean_of}(values):
    return sum(values) / len(values)  #!
"""),
    ),
    (  # ATOM01: written via stage -> write_raw, renamed without fsync
        ("util/{raw}.py", """\
def {write_raw}(handle, payload):
    handle.write(payload)
"""),
        ("util/{stage}.py", """\
from repro.util.{raw} import {write_raw}


def {stage_fn}(handle, payload):
    {write_raw}(handle, payload)
"""),
        ("measure/{publish}.py", """\
import os

from repro.util.{stage} import {stage_fn}


def {publish_fn}(tmp, final, payload):
    handle = open(tmp, "wb")  # replint: allow[IO01] -- the plant drives the raw protocol
    try:
        {stage_fn}(handle, payload)
    finally:
        handle.close()
    os.replace(tmp, final)  #!
"""),
    ),
    (  # RES01: handle acquired via acquire -> raw_open, never closed
        ("util/{openers}.py", """\
def {raw_open}(path):
    return open(path, "ab")
"""),
        ("util/{midopen}.py", """\
from repro.util.{openers} import {raw_open}


def {acquire}(path):
    return {raw_open}(path)
"""),
        ("measure/{logger}.py", """\
from repro.util.{midopen} import {acquire}


def {start}(path, line):
    handle = {acquire}(path)  #!
    handle.write(line)
"""),
    ),
    (  # EXC01: a swallowing handler in a supervisor zone module
        ("measure/supervise/{drainer}.py", """\
def {drain}(queue):
    try:
        queue.flush()
    except BaseException:  #!
        pass
"""),
    ),
    (  # MP02: Process target is a lambda built via make_task -> make_lambda
        ("util/{factory}.py", """\
def {make_lambda}():
    return lambda: None


def {make_task}():
    return {make_lambda}()
"""),
        ("measure/{spawn}.py", """\
import multiprocessing as mp

from repro.util.{factory} import {make_task}


def {launch_fn}():
    task = {make_task}()
    proc = mp.Process(target=task)  #!
    proc.start()
    proc.join()
"""),
    ),
    (  # MP03: child entry reaches inherited state via record -> remember
        ("util/{state}.py", """\
CACHE = {{}}


def {remember}(key, value):
    CACHE[key] = value


def reset_cache():
    global CACHE
    CACHE = {{}}
"""),
        ("util/{record}.py", """\
from repro.util.{state} import {remember}


def {record_fn}(job):
    {remember}(job, 1)
"""),
        ("measure/{worker}.py", """\
import multiprocessing as mp

from repro.util.{record} import {record_fn}


def {worker_fn}(job):  #!
    {record_fn}(job)


def {launch_worker}(job):
    proc = mp.Process(target={worker_fn}, args=(job,))
    proc.start()
    proc.join()
"""),
    ),
    (  # RES02: started process handed back via launch -> begin, not joined
        ("util/{procs}.py", """\
import multiprocessing as mp


def {begin}(job):
    proc = mp.Process(target=job)
    proc.start()
    return proc


def {launch_proc}(job):
    return {begin}(job)
"""),
        ("measure/{camp}.py", """\
from repro.util.{procs} import {launch_proc}


def {campaign_fn}(job):
    proc = {launch_proc}(job)  #!
"""),
    ),
    (  # SIG01: the registered handler reaches a flush via drain_logs
        ("util/{drain_mod}.py", """\
def {drain_logs}(stream):
    stream.flush()
"""),
        ("measure/{daemon}.py", """\
import signal

from repro.util.{drain_mod} import {drain_logs}


def _on_term(signum, frame):
    {drain_logs}(None)


def {install}():
    signal.signal(signal.SIGTERM, _on_term)  #!
"""),
    ),
    (  # ASY01: a blocking sleep inside the serve zone's event loop
        ("serve/{serve_daemon}.py", """\
import time


async def {poll_loop}(interval):
    time.sleep(interval)  #!
"""),
    ),
    (  # UNIT02 (two hops), UNIT01 and UNIT03 in the zone itself
        ("util/{convert}.py", """\
def {elapsed}_ms(start_s, end_s):
    return (end_s - start_s) * 1000.0
"""),
        ("util/{fetchtime}.py", """\
from repro.util.{convert} import {elapsed}_ms


def {fetch_elapsed}(trace):
    return {elapsed}_ms(trace.start_s, trace.end_s)
"""),
        ("simnet/{sched}.py", """\
from repro.util.{fetchtime} import {fetch_elapsed}


def {wait_for}(kernel, timeout_s):
    kernel.advance(timeout_s)


def {step_unit}(kernel, trace):
    {wait_for}(kernel, {fetch_elapsed}(trace))  #!


def {overdraft}(budget_bytes, spent_bits):
    return budget_bytes - spent_bits  #!


def {to_ms}(duration_s):
    return duration_s * 1000.0  #!
"""),
    ),
)


@dataclass(frozen=True)
class Corpus:
    """A generated tree: where it is and what lint must report."""

    root: Path
    #: (path relative to ``root``, line) of every planted finding.
    expected: frozenset[tuple[str, int]]
    #: A module no other module imports; the warm run edits it.
    leaf: Path
    leaf_source: str


class _Names:
    """Unique seeded identifiers."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._used: set[str] = set()

    def new(self, stem: str) -> str:
        while True:
            name = f"{stem}_{self._rng.choice(_WORDS)}{self._rng.randrange(1000)}"
            if name not in self._used:
                self._used.add(name)
                return name


@dataclass
class _Module:
    package: str
    name: str
    plain: list[str]
    timed: list[str]

    @property
    def dotted(self) -> str:
        return f"repro.{self.package}.{self.name}"


def _clean_function(rng: random.Random, names: _Names, kind: int,
                    local_plain: list[str], local_timed: list[str],
                    imported_plain: list[str], imported_timed: list[str],
                    ) -> tuple[str, str, str]:
    """(source, name, "plain" | "timed") of one clean function.

    Plain functions take two unit-less arguments; timed ones take two
    ``_s`` arguments and return seconds, so every call binds matching
    dimensions and the units layer has real work but nothing to report.
    """
    plain_pool = local_plain + imported_plain
    timed_pool = local_timed + imported_timed
    callee = rng.choice(plain_pool) if plain_pool else "max"
    timed_callee = rng.choice(timed_pool) if timed_pool else "max"
    if kind == 0:
        name = names.new("combine")
        other = rng.choice(plain_pool) if plain_pool else "min"
        return (f"""\
def {name}(left, right):
    first = {callee}(left, right)
    second = {other}(right, first)
    ordered = sorted([first, second, abs(left)])
    return max(ordered[0], min(ordered[-1], round(second, 3)))
""", name, "plain")
    if kind == 1:
        name = names.new("delay")
        return (f"""\
def {name}_s(start_s, gap_s):
    total_s = start_s + gap_s
    other_s = {timed_callee}(total_s, gap_s)
    return max(total_s, other_s, {timed_callee}(gap_s, start_s))
""", f"{name}_s", "timed")
    if kind == 2:
        name = names.new("report")
        return (f"""\
def {name}_ms(elapsed_s, pad_s):
    return seconds_to_ms({timed_callee}(elapsed_s, pad_s) + abs(pad_s))
""", f"{name}_ms", "")
    if kind == 3:
        name = names.new("rate")
        return (f"""\
def {name}_bps(size_bytes, duration_s):
    span_s = max(duration_s, abs(duration_s))
    return size_bytes / span_s + float(len(str({callee}(1, 2))))
""", f"{name}_bps", "")
    name = names.new("mean")
    return (f"""\
def {name}(values):
    ordered = sorted(values)
    middle = ordered[len(ordered) // 2]
    return math.fsum(ordered) / max(len(ordered), 1) + {callee}(middle, 0)
""", name, "")


def _clean_class(names: _Names, timed_pool: list[str]) -> str:
    cls = names.new("Window").title().replace("_", "")
    target = timed_pool[0] if timed_pool else "max"
    return f"""\
class {cls}:
    def __init__(self, base_s):
        self.base_s = base_s

    def shifted_s(self, gap_s):
        return {target}(self.base_s, gap_s)

    def describe(self):
        return str(round(self.shifted_s(self.base_s), 2))
"""


def generate(root: Path, seed: int) -> Corpus:
    """Write the corpus under ``root`` (which must not exist yet)."""
    rng = random.Random(seed)
    names = _Names(rng)
    src = root / "src" / "repro"
    files: dict[str, str] = {"units.py": UNITS_SOURCE}

    sizes = [FUNCTIONS_PER_MODULE[i % len(FUNCTIONS_PER_MODULE)]
             for i in range(CLEAN_MODULES)]
    fanin = [IMPORTS_PER_MODULE[i % len(IMPORTS_PER_MODULE)]
             for i in range(CLEAN_MODULES)]
    rng.shuffle(sizes)
    rng.shuffle(fanin)
    modules: list[_Module] = []
    for index in range(CLEAN_MODULES):
        module = _Module(PACKAGES[index % len(PACKAGES)],
                         names.new("mod"), [], [])
        imported = rng.sample(modules, min(fanin[index], len(modules)))
        imported_plain = [f for m in imported for f in m.plain[:2]]
        imported_timed = [f for m in imported for f in m.timed[:2]]
        lines = ['"""Generated clean module."""', "", "import math", "",
                 "from repro.units import seconds_to_ms"]
        for dep in sorted(imported, key=lambda m: m.dotted):
            wanted = dep.plain[:2] + dep.timed[:2]
            lines.append(f"from {dep.dotted} import {', '.join(wanted)}")
        body: list[str] = []
        for position in range(sizes[index]):
            kind = rng.randrange(5) if position else 1
            source, name, role = _clean_function(
                rng, names, kind, module.plain, module.timed,
                imported_plain, imported_timed)
            body.append(source)
            if role == "plain":
                module.plain.append(name)
            elif role == "timed":
                module.timed.append(name)
        if index % 3 == 0:
            body.append(_clean_class(names, module.timed))
        if not module.plain:
            source, name, _ = _clean_function(
                rng, names, 0, [], [], imported_plain, [])
            body.append(source)
            module.plain.append(name)
        files[f"{module.package}/{module.name}.py"] = \
            "\n".join(lines) + "\n\n\n" + "\n\n".join(body)
        modules.append(module)
    # Modules import only earlier ones, so nothing imports the last.
    leaf = modules[-1]

    expected: set[tuple[str, int]] = set()
    for group in _PLANTS:
        placeholders = _placeholders(group)
        mapping = {key: names.new(key) for key in placeholders}
        for relative, template in group:
            padding = "".join(
                _clean_function(rng, names, 0, [], [], [], [])[0] + "\n\n"
                for _ in range(rng.randrange(4)))
            text = template.format(**mapping)
            head, sep, rest = text.partition("\n\n\n")
            if sep and not head.startswith(("def ", "async def ")):
                text = head + "\n\n\n" + padding + rest
            else:
                text = padding + text
            path = relative.format(**mapping)
            clean_lines = []
            for number, line in enumerate(text.splitlines(), start=1):
                if line.endswith("  #!"):
                    expected.add((f"src/repro/{path}", number))
                    line = line[:-len("  #!")]
                clean_lines.append(line)
            files[path] = "\n".join(clean_lines) + "\n"

    for relative, text in files.items():
        path = src / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    (root / "pyproject.toml").write_text(PYPROJECT, encoding="utf-8")
    leaf_path = src / leaf.package / f"{leaf.name}.py"
    return Corpus(root=root, expected=frozenset(expected), leaf=leaf_path,
                  leaf_source=leaf_path.read_text(encoding="utf-8"))


def _placeholders(group: tuple[tuple[str, str], ...]) -> list[str]:
    found: list[str] = []
    for relative, template in group:
        for text in (relative, template):
            for _, field, _, _ in string.Formatter().parse(text):
                if field and field not in found:
                    found.append(field)
    return found


def edit_leaf(corpus: Corpus) -> None:
    """A developer's edit: one more clean function in the leaf module."""
    corpus.leaf.write_text(corpus.leaf_source + """

def edited_helper(left, right):
    return max(left, right) - min(left, right)
""", encoding="utf-8")


def restore_leaf(corpus: Corpus) -> None:
    corpus.leaf.write_text(corpus.leaf_source, encoding="utf-8")
