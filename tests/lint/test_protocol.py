"""ATOM01/RES01/EXC01 — the file-handle protocol state machine.

The interesting cases are path-sensitivity (a fsync on *one* branch is
not a fsync on *all* branches), exception edges (an error between open
and close strands the handle), and interprocedural summaries (the
write or the open happens in a helper two hops down).
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import Policy, lint_source
from repro.lint.callgraph import CallGraph
from repro.lint.protocol import (
    AtomicRenameRule,
    HandleLeakRule,
    SwallowedInterruptRule,
)


def _graph(tmp_path: Path, files: dict[str, str]) -> CallGraph:
    modules = []
    for module, source in files.items():
        path = tmp_path / (module.replace(".", "/") + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        text = textwrap.dedent(source)
        path.write_text(text)
        modules.append((module, path, ast.parse(text)))
    return CallGraph.build(modules)


def _atom01(graph):
    rule = AtomicRenameRule()
    return list(rule.check_project(graph, rule.default_policy))


def _res01(graph):
    rule = HandleLeakRule()
    return list(rule.check_project(graph, rule.default_policy))


# -- ATOM01 --------------------------------------------------------------


def test_atom01_rename_without_fsync_direct(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.publish": """\
            import os

            def publish(tmp, final, payload):
                with open(tmp, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, final)
        """,
    })
    findings = _atom01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "rename of 'tmp'" in finding.message
    assert "without a dominating fsync" in finding.message
    assert finding.line == 6


def test_atom01_full_protocol_is_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.publish": """\
            import os

            def publish(tmp, final, payload):
                with open(tmp, "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, final)
        """,
    })
    assert _atom01(graph) == []


def test_atom01_write_via_two_hop_helper_chain(tmp_path):
    graph = _graph(tmp_path, {
        "repro.util.raw": """\
            def write_raw(handle, payload):
                handle.write(payload)
        """,
        "repro.util.stage": """\
            from repro.util.raw import write_raw

            def stage(handle, payload):
                write_raw(handle, payload)
        """,
        "repro.measure.publish": """\
            import os

            from repro.util.stage import stage

            def publish(tmp, final, payload):
                handle = open(tmp, "wb")
                try:
                    stage(handle, payload)
                finally:
                    handle.close()
                os.replace(tmp, final)
        """,
    })
    findings = _atom01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "(written via stage -> write_raw)" in finding.message


def test_atom01_fsync_on_one_branch_only_is_flagged(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.publish": """\
            import os

            def publish(tmp, final, payload, durable):
                handle = open(tmp, "wb")
                handle.write(payload)
                if durable:
                    os.fsync(handle.fileno())
                handle.close()
                os.replace(tmp, final)
        """,
    })
    findings = _atom01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 9  # flagged at the rename


def test_atom01_outside_zone_is_ignored(tmp_path):
    graph = _graph(tmp_path, {
        "repro.web.dump": """\
            import os

            def dump(tmp, final, payload):
                with open(tmp, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp, final)
        """,
    })
    assert _atom01(graph) == []


def test_atom01_fsync_in_helper_counts(tmp_path):
    graph = _graph(tmp_path, {
        "repro.util.durable": """\
            import os

            def sync_out(handle):
                handle.flush()
                os.fsync(handle.fileno())
        """,
        "repro.measure.publish": """\
            import os

            from repro.util.durable import sync_out

            def publish(tmp, final, payload):
                handle = open(tmp, "wb")
                handle.write(payload)
                sync_out(handle)
                handle.close()
                os.replace(tmp, final)
        """,
    })
    assert _atom01(graph) == []


# -- RES01 ---------------------------------------------------------------


def test_res01_unclosed_handle_on_all_paths(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path, line):
                handle = open(path, "ab")
                handle.write(line)
        """,
    })
    findings = _res01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "not closed on all paths" in finding.message


def test_res01_exception_edge_leak(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path, encode, record):
                handle = open(path, "ab")
                handle.write(encode(record))
                handle.close()
        """,
    })
    findings = _res01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "leaks on exception edges" in finding.message


def test_res01_try_finally_close_is_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path, encode, record):
                handle = open(path, "ab")
                try:
                    handle.write(encode(record))
                finally:
                    handle.close()
        """,
    })
    assert _res01(graph) == []


def test_res01_with_block_is_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path, encode, record):
                with open(path, "ab") as handle:
                    handle.write(encode(record))
        """,
    })
    assert _res01(graph) == []


def test_res01_handle_acquired_via_two_hop_helper(tmp_path):
    graph = _graph(tmp_path, {
        "repro.util.openers": """\
            def raw_open(path):
                return open(path, "ab")
        """,
        "repro.util.midopen": """\
            from repro.util.openers import raw_open

            def acquire(path):
                return raw_open(path)
        """,
        "repro.measure.logger": """\
            from repro.util.midopen import acquire

            def start(path, line):
                handle = acquire(path)
                handle.write(line)
        """,
    })
    findings = _res01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "(acquired via acquire -> raw_open)" in finding.message


def test_res01_returning_the_open_handle_is_ownership_transfer(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path):
                handle = open(path, "ab")
                return handle
        """,
    })
    assert _res01(graph) == []  # the caller owns it now


def test_res01_read_only_handles_are_not_tracked(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.reader": """\
            def head(path):
                handle = open(path)
                return handle.readline()
        """,
    })
    assert _res01(graph) == []  # nothing buffered to lose


def test_res01_process_join_is_not_handle_cleanup(tmp_path):
    # Only ``close()`` is cleanup for a handle: a ``join()`` between open
    # and close can raise and strand the fd.
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path, proc):
                handle = open(path, "ab")
                proc.join()
                handle.close()
        """,
    })
    findings = _res01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 2
    assert "leaks on exception edges" in finding.message


def test_res01_escape_is_not_credited_on_the_exception_edge(tmp_path):
    # The handle escapes into the registry only if ``wrap`` returns; if
    # it raises, this function still owns an open handle.
    graph = _graph(tmp_path, {
        "repro.measure.logger": """\
            def start(path, registry, wrap):
                handle = open(path, "ab")
                registry[path] = wrap(handle)
        """,
    })
    findings = _res01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "leaks on exception edges" in finding.message


# -- EXC01 ---------------------------------------------------------------


def _exc01(source: str, module: str = "repro.measure.supervise"):
    path = Path("/x/src") / Path(*module.split(".")).with_suffix(".py")
    diagnostics = lint_source(textwrap.dedent(source), path, Policy(),
                              rules=[SwallowedInterruptRule()])
    return [d for d in diagnostics if d.rule == "EXC01"]


def test_exc01_swallowed_base_exception_in_zone():
    findings = _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except BaseException:
                pass
    """)
    assert len(findings) == 1
    assert "BaseException swallows KeyboardInterrupt" in findings[0].message
    assert findings[0].line == 4


def test_exc01_bare_except_in_zone():
    findings = _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except:
                return None
    """)
    assert len(findings) == 1
    assert "bare except" in findings[0].message


def test_exc01_reraise_is_clean():
    assert _exc01("""\
        def drain(queue, workers):
            try:
                queue.flush()
            except KeyboardInterrupt:
                for worker in workers:
                    worker.kill()
                raise
    """) == []


def test_exc01_hard_exit_in_worker_is_clean():
    assert _exc01("""\
        import os

        def child(task):
            try:
                task()
            except BaseException:
                os._exit(1)
    """) == []


def test_exc01_specific_exceptions_are_fine():
    assert _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except (OSError, ValueError):
                return None
    """) == []


def test_exc01_outside_supervisor_zones_is_ignored():
    assert _exc01("""\
        def drain(queue):
            try:
                queue.flush()
            except BaseException:
                pass
    """, module="repro.analysis.plots") == []
