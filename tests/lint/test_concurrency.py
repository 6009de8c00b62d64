"""MP02/MP03/RES02/SIG01/ASY01 — the concurrency & serialization layer.

The interesting cases mirror the real supervisor: values resolved
through helper chains before they cross a process boundary, reset
domination decided by *line order* inside the child entry, lifecycle
automata that must stay clean through try/finally and BaseException
teardown (the KeyboardInterrupt edge), and signal paths restricted to
async-signal-tolerant work. Every true positive pins the exact
line:col, because a checker that fires on the wrong line trains
people to ignore it.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import Policy, lint_source
from repro.lint.callgraph import CallGraph
from repro.lint.concurrency import (
    BlockingAsyncRule,
    ForkHygieneRule,
    PickleSafetyRule,
    ProcessLifecycleRule,
    SignalPathRule,
    build_life_summaries,
)

SERVE = Path("src/repro/serve/daemon.py")
MEASURE = Path("src/repro/measure/mod.py")


def _graph(tmp_path: Path, files: dict[str, str]) -> CallGraph:
    modules = []
    for module, source in files.items():
        path = tmp_path / (module.replace(".", "/") + ".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        text = textwrap.dedent(source)
        path.write_text(text)
        modules.append((module, path, ast.parse(text)))
    return CallGraph.build(modules)


def _run(rule_cls, graph):
    rule = rule_cls()
    return list(rule.check_project(graph, rule.default_policy))


def _mp02(graph):
    return _run(PickleSafetyRule, graph)


def _mp03(graph):
    return _run(ForkHygieneRule, graph)


def _res02(graph):
    return _run(ProcessLifecycleRule, graph)


def _sig01(graph):
    return _run(SignalPathRule, graph)


# -- MP02: pickle-safety at process boundaries ---------------------------


def test_mp02_lambda_target_exact_position(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch():
                proc = mp.Process(target=lambda: None)
                proc.start()
                proc.join()
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.measure.spawn"
    assert (finding.line, finding.col) == (4, 11)
    assert "target of mp.Process(...)" in finding.message
    assert "is a lambda (repro.measure.spawn:4)" in finding.message
    assert "processes pickle everything they receive" in finding.message


def test_mp02_locally_defined_target_via_local_binding(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(payload):
                def worker():
                    return payload
                proc = mp.Process(target=worker)
                proc.start()
                proc.join()
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 6
    assert "the locally-defined function 'worker'" in finding.message


def test_mp02_helper_returns_lambda_two_hops_with_chain(tmp_path):
    graph = _graph(tmp_path, {
        "repro.util.factory": """\
            def make_lambda():
                return lambda: None

            def make_task():
                return make_lambda()
        """,
        "repro.measure.spawn": """\
            import multiprocessing as mp

            from repro.util.factory import make_task

            def launch():
                task = make_task()
                proc = mp.Process(target=task)
                proc.start()
                proc.join()
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 7
    assert "is a lambda (repro.util.factory:2)" in finding.message
    assert "(via make_task -> make_lambda)" in finding.message


def test_mp02_generator_function_in_args_tuple(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def stream():
                yield 1

            def run(fn):
                proc = mp.Process(target=fn, args=(stream(),))
                proc.start()
                proc.join()
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "args of mp.Process(...)" in finding.message
    assert "is a generator" in finding.message


def test_mp02_module_level_rng_in_pool_submission(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import random

            RNG = random.Random(7)

            def fan_out(pool, fn):
                pool.apply_async(fn, RNG)
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 6
    assert "arg 1 of pool.apply_async(...)" in finding.message
    assert ("the module-level random.Random 'RNG' "
            "(repro.measure.spawn:3)") in finding.message


def test_mp02_open_handle_through_pipe_send(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def ship(path):
                recv_end, send_end = mp.Pipe()
                send_end.send(open(path))
                send_end.close()
                recv_end.close()
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 5
    assert "message of send_end.send(...)" in finding.message
    assert "an open file handle" in finding.message


def test_mp02_class_instance_holding_lambda(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            class Callback:
                def __init__(self):
                    self.fn = lambda: None

            def run(fn):
                proc = mp.Process(target=fn, args=(Callback(),))
                proc.start()
                proc.join()
        """,
    })
    findings = _mp02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert ("a Callback instance holding a lambda in '.fn'"
            in finding.message)


def test_mp02_module_level_function_and_plain_data_are_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def worker(job):
                return job

            def launch(job):
                proc = mp.Process(target=worker, args=(job, 3, "x"))
                proc.start()
                proc.join()
        """,
    })
    assert _mp02(graph) == []


def test_mp02_rebinding_to_plain_value_clears_the_judgement(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def worker(job):
                return job

            def launch():
                task = lambda: None
                task = worker
                proc = mp.Process(target=task)
                proc.start()
                proc.join()
        """,
    })
    assert _mp02(graph) == []


def test_mp02_zone_gate_skips_non_measure_modules(tmp_path):
    graph = _graph(tmp_path, {
        "repro.analysis.spawn": """\
            import multiprocessing as mp

            def launch():
                proc = mp.Process(target=lambda: None)
                proc.start()
                proc.join()
        """,
    })
    assert _mp02(graph) == []


# -- MP03: fork hygiene — reset-dominated child state --------------------


_STATE_MODULE = """\
    CACHE = {}

    def remember(key, value):
        CACHE[key] = value

    def reset_cache():
        global CACHE
        CACHE = {}
"""


def test_mp03_entry_reaches_mutated_global_without_reset(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.state": _STATE_MODULE,
        "repro.measure.work": """\
            import multiprocessing as mp

            from repro.measure.state import remember

            def worker(job):
                remember(job, 1)

            def launch(job):
                proc = mp.Process(target=worker, args=(job,))
                proc.start()
                proc.join()
        """,
    })
    findings = _mp03(graph)
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.measure.work"
    assert (finding.line, finding.col) == (5, 0)
    assert ("child entry 'worker' reaches module-level mutable "
            "'CACHE' (repro.measure.state:1)") in finding.message
    assert "(via worker -> remember)" in finding.message
    assert "without a dominating reset" in finding.message


def test_mp03_reset_before_access_is_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.state": _STATE_MODULE,
        "repro.measure.work": """\
            import multiprocessing as mp

            from repro.measure.state import remember, reset_cache

            def worker(job):
                reset_cache()
                remember(job, 1)

            def launch(job):
                proc = mp.Process(target=worker, args=(job,))
                proc.start()
                proc.join()
        """,
    })
    assert _mp03(graph) == []


def test_mp03_reset_after_access_is_flagged(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.state": _STATE_MODULE,
        "repro.measure.work": """\
            import multiprocessing as mp

            from repro.measure.state import remember, reset_cache

            def worker(job):
                remember(job, 1)
                reset_cache()

            def launch(job):
                proc = mp.Process(target=worker, args=(job,))
                proc.start()
                proc.join()
        """,
    })
    findings = _mp03(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "without a dominating reset" in finding.message


def test_mp03_pre_fork_lock_used_in_child_is_flagged(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.locks": """\
            import threading

            LOCK = threading.Lock()

            def guarded(value):
                with LOCK:
                    return value
        """,
        "repro.measure.work": """\
            import multiprocessing as mp

            from repro.measure.locks import guarded

            def worker(job):
                return guarded(job)

            def launch(job):
                proc = mp.Process(target=worker, args=(job,))
                proc.start()
                proc.join()
        """,
    })
    findings = _mp03(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert ("uses the pre-fork handle/lock 'LOCK' "
            "(repro.measure.locks:3)") in finding.message
    assert "do not survive fork" in finding.message


def test_mp03_readonly_constant_table_is_not_fork_state(tmp_path):
    # A mutable-typed global that nothing mutates or rebinds is a
    # constant table — it cannot diverge across a fork.
    graph = _graph(tmp_path, {
        "repro.measure.tables": """\
            SITES = {"frankfurt": 9, "virginia": 17}

            def weight(city):
                return SITES[city]
        """,
        "repro.measure.work": """\
            import multiprocessing as mp

            from repro.measure.tables import weight

            def worker(job):
                return weight(job)

            def launch(job):
                proc = mp.Process(target=worker, args=(job,))
                proc.start()
                proc.join()
        """,
    })
    assert _mp03(graph) == []


def test_mp03_pool_submission_marks_the_entry(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.state": _STATE_MODULE,
        "repro.measure.work": """\
            from repro.measure.state import remember

            def worker(job):
                remember(job, 1)

            def fan_out(pool, jobs):
                pool.map(worker, jobs)
        """,
    })
    findings = _mp03(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "child entry 'worker'" in finding.message


def test_mp03_supervisor_ctor_positional_arg_is_an_entry(tmp_path):
    # ``Supervisor(worker, jobs)`` — the class spawns in a method, so
    # arg 0 of its constructor is a child entry two hops from any
    # Process() call.
    graph = _graph(tmp_path, {
        "repro.measure.state": _STATE_MODULE,
        "repro.measure.boss": """\
            import multiprocessing as mp

            class Supervisor:
                def __init__(self, fn, jobs):
                    self.fn = fn
                    self.jobs = jobs

                def run(self):
                    for job in self.jobs:
                        proc = mp.Process(target=self.fn, args=(job,))
                        proc.start()
                        proc.join()
        """,
        "repro.measure.work": """\
            from repro.measure.boss import Supervisor
            from repro.measure.state import remember

            def worker(job):
                remember(job, 1)

            def campaign(jobs):
                Supervisor(worker, jobs).run()
        """,
    })
    findings = _mp03(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "child entry 'worker'" in finding.message


# -- RES02: Process / Connection lifecycle automata ----------------------


def test_res02_started_process_never_joined_exact_position(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job):
                proc = mp.Process(target=job)
                proc.start()
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.measure.spawn"
    assert (finding.line, finding.col) == (4, 11)
    assert "process 'proc' is not joined on all paths" in finding.message


def test_res02_join_on_one_branch_is_not_join_on_all(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job, wait):
                proc = mp.Process(target=job)
                proc.start()
                if wait:
                    proc.join()
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "not joined on all paths" in finding.message


def test_res02_terminate_without_join_names_the_zombie(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job):
                proc = mp.Process(target=job)
                proc.start()
                proc.terminate()
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "terminated but never joined" in finding.message
    assert "zombie" in finding.message


def test_res02_error_between_start_and_join_leaks_exception_edge(
        tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job, work):
                proc = mp.Process(target=job)
                proc.start()
                work()
                proc.join()
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "leaks on exception edges" in finding.message
    assert "finally or supervisor teardown" in finding.message


def test_res02_try_finally_join_covers_every_edge(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job, work):
                proc = mp.Process(target=job)
                proc.start()
                try:
                    work()
                finally:
                    proc.join()
        """,
    })
    assert _res02(graph) == []


def test_res02_base_exception_teardown_then_reraise_is_proven(tmp_path):
    # The supervisor shape: KeyboardInterrupt (BaseException) teardown
    # terminates + joins, then re-raises — every escaping exception
    # state must carry joined=True.
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def serve(job, work):
                proc = mp.Process(target=job)
                proc.start()
                try:
                    work()
                except BaseException:
                    proc.terminate()
                    proc.join()
                    raise
                proc.join()
        """,
    })
    assert _res02(graph) == []


def test_res02_handler_early_return_skips_the_join(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def serve(job, work):
                proc = mp.Process(target=job)
                proc.start()
                try:
                    work()
                except BaseException:
                    return None
                proc.join()
                return True
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "not joined on all paths" in finding.message


def test_res02_helper_effect_summary_credits_the_teardown(tmp_path):
    # ``_kill(proc)`` terminates and joins its parameter — the caller's
    # finally is proven through the helper's effect summary.
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def _kill(proc):
                proc.terminate()
                proc.join()

            def launch(job, work):
                proc = mp.Process(target=job)
                proc.start()
                try:
                    work()
                finally:
                    _kill(proc)
        """,
    })
    assert _res02(graph) == []


def test_res02_helper_returning_started_proc_obligates_caller(tmp_path):
    # The helper lives outside the zone; the obligation lands on the
    # zone caller, with the acquisition chain in the message.
    graph = _graph(tmp_path, {
        "repro.util.procs": """\
            import multiprocessing as mp

            def launch(job):
                proc = mp.Process(target=job)
                proc.start()
                return proc
        """,
        "repro.measure.camp": """\
            from repro.util.procs import launch

            def campaign(job):
                proc = launch(job)
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.measure.camp"
    assert finding.line == 4
    assert "process 'proc' is not joined on all paths" in finding.message
    assert "(spawned via launch)" in finding.message


def test_res02_unclosed_pipe_end_exact_position(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def chat():
                recv_end, send_end = mp.Pipe(duplex=False)
                send_end.close()
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert (finding.line, finding.col) == (4, 25)
    assert ("pipe end 'recv_end' is not closed on all paths"
            in finding.message)


def test_res02_both_pipe_ends_closed_is_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def chat():
                recv_end, send_end = mp.Pipe(duplex=False)
                send_end.close()
                recv_end.close()
        """,
    })
    assert _res02(graph) == []


def test_res02_handing_a_pipe_end_to_the_child_keeps_parent_copy(
        tmp_path):
    # ``args=(send_end,)`` must not count as closing the parent's end:
    # the parent still owes a close after start().
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job):
                recv_end, send_end = mp.Pipe(duplex=False)
                recv_end.close()
                proc = mp.Process(target=job, args=(send_end,))
                proc.start()
                proc.join()
        """,
    })
    findings = _res02(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert ("pipe end 'send_end' is not closed on all paths"
            in finding.message)


def test_res02_ownership_transfer_into_container_stops_tracking(
        tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job, running):
                proc = mp.Process(target=job)
                proc.start()
                running[job] = proc
        """,
    })
    assert _res02(graph) == []


def test_res02_escape_is_honoured_on_the_exception_edge(tmp_path):
    # If ``wrap`` raises, the proc has already been handed to it: the
    # ownership transfer holds on the exception edge too.
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job, registry, wrap):
                proc = mp.Process(target=job)
                proc.start()
                registry[job] = wrap(proc)
        """,
    })
    assert _res02(graph) == []


def test_res02_teardown_statements_stay_off_the_exception_edge(tmp_path):
    # terminate()/join() failing is beyond the automaton: neither call
    # opens an exception edge with the proc still live.
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def launch(job):
                proc = mp.Process(target=job)
                proc.start()
                proc.terminate()
                proc.join()
        """,
    })
    assert _res02(graph) == []


def test_res02_summaries_reach_fixpoint_and_are_cached(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.spawn": """\
            import multiprocessing as mp

            def _kill(proc):
                proc.terminate()
                proc.join()
        """,
    })
    first = build_life_summaries(graph)
    effects = first["repro.measure.spawn._kill"].param_effects
    assert effects == {"proc": frozenset({"terminates", "joins"})}
    assert build_life_summaries(graph) is first


# -- SIG01: signal-path safety -------------------------------------------


def test_sig01_handler_reaching_print_flags_the_registration(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.daemon": """\
            import signal

            def _on_term(signum, frame):
                print("terminating")

            def install():
                signal.signal(signal.SIGTERM, _on_term)
        """,
    })
    findings = _sig01(graph)
    assert len(findings) == 1
    module, finding = findings[0]
    assert module == "repro.measure.daemon"
    assert (finding.line, finding.col) == (7, 4)
    assert ("signal handler '_on_term' writes through buffered "
            "print() (repro.measure.daemon:4)") in finding.message
    assert "async-signal-tolerant" in finding.message


def test_sig01_restricted_op_two_hops_below_the_handler(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.daemon": """\
            import signal

            def _drain(stream):
                stream.flush()

            def _on_term(signum, frame):
                _drain(None)

            def install():
                signal.signal(signal.SIGTERM, _on_term)
        """,
    })
    findings = _sig01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert "flushes a buffered stream" in finding.message
    assert "(via _on_term -> _drain)" in finding.message


def test_sig01_flag_setting_handler_is_clean(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.daemon": """\
            import signal

            STOP = []

            def _on_term(signum, frame):
                STOP.append(True)

            def install():
                signal.signal(signal.SIGTERM, _on_term)
        """,
    })
    assert _sig01(graph) == []


def test_sig01_buffered_io_after_self_kill_races_the_signal(tmp_path):
    graph = _graph(tmp_path, {
        "repro.measure.daemon": """\
            import os
            import signal

            def fall_on_sword():
                os.kill(os.getpid(), signal.SIGKILL)
                print("never flushed")
        """,
    })
    findings = _sig01(graph)
    assert len(findings) == 1
    _, finding = findings[0]
    assert finding.line == 6
    assert ("code after the self-kill at line 5 writes through "
            "buffered print()") in finding.message


def test_sig01_self_kill_as_last_statement_is_clean(tmp_path):
    # The parallel-campaign shape: journal, fsync, then SIGKILL as the
    # final statement — nothing races the signal.
    graph = _graph(tmp_path, {
        "repro.measure.daemon": """\
            import os
            import signal

            def fall_on_sword(journal):
                print("journaled")
                journal.sync()
                os.kill(os.getpid(), signal.SIGKILL)
        """,
    })
    assert _sig01(graph) == []


# -- ASY01: blocking calls inside async def ------------------------------


def _asy01(source, path=SERVE):
    diagnostics = lint_source(textwrap.dedent(source), Path(path),
                              Policy())
    return [(d.rule, d.line, d.message)
            for d in diagnostics if d.rule == "ASY01"]


def test_asy01_time_sleep_in_async_def(tmp_path):
    hits = _asy01("""\
        import time

        async def tick():
            time.sleep(1)
    """)
    assert [(rule, line) for rule, line, _ in hits] == [("ASY01", 4)]
    assert "blocking time.sleep() inside 'async def tick'" in hits[0][2]
    assert "await asyncio.sleep() instead" in hits[0][2]


def test_asy01_from_import_sleep_alias(tmp_path):
    hits = _asy01("""\
        from time import sleep as pause

        async def tick():
            pause(1)
    """)
    assert [(rule, line) for rule, line, _ in hits] == [("ASY01", 4)]


def test_asy01_subprocess_run_and_path_io(tmp_path):
    hits = _asy01("""\
        import subprocess

        async def deploy(path):
            subprocess.run(["ls"])
            return path.read_text()
    """)
    assert [(rule, line) for rule, line, _ in hits] == \
        [("ASY01", 4), ("ASY01", 5)]
    assert "asyncio.create_subprocess_exec()" in hits[0][2]
    assert "asyncio.to_thread()" in hits[1][2]


def test_asy01_blocking_recv_and_unbounded_poll(tmp_path):
    hits = _asy01("""\
        async def pump(conn):
            if conn.poll(None):
                return conn.recv()
    """)
    assert [(rule, line) for rule, line, _ in hits] == \
        [("ASY01", 2), ("ASY01", 3)]
    assert "poll with a bounded timeout" in hits[0][2]
    assert "add_reader()" in hits[1][2]


def test_asy01_sync_def_and_awaited_sleep_are_clean(tmp_path):
    assert _asy01("""\
        import asyncio
        import time

        def blocking_is_fine_here():
            time.sleep(1)

        async def tick():
            await asyncio.sleep(1)
    """) == []


def test_asy01_zone_gate_skips_measure_modules(tmp_path):
    assert _asy01("""\
        import time

        async def tick():
            time.sleep(1)
    """, path=MEASURE) == []


def test_asy01_inline_suppression(tmp_path):
    assert _asy01("""\
        import time

        async def tick():
            time.sleep(1)  # replint: allow[ASY01] -- startup shim
    """) == []


# -- the shipped multiprocessing stack is lifecycle-proven ---------------


def test_res02_proves_the_real_supervisor_teardown():
    """Machine-proof: the shipped supervisor/parallel stack — spawn
    window, reaper, BaseException/KeyboardInterrupt teardown — carries
    no process or pipe leak on any path the interpreter can see."""
    src = Path(__file__).resolve().parents[2] / "src"
    modules = []
    for path in sorted((src / "repro" / "measure").rglob("*.py")):
        name = ".".join(path.relative_to(src).with_suffix("").parts)
        modules.append((name, path, ast.parse(path.read_text())))
    graph = CallGraph.build(modules)
    rule = ProcessLifecycleRule()
    assert list(rule.check_project(graph, rule.default_policy)) == []
