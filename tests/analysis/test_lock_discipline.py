"""lock-discipline: write coverage, escalation, docstring contract, fork."""

import textwrap

from .conftest import checks_of, rules_of

VIOLATING_SERVICE = {
    "service/service.py": textwrap.dedent(
        '''
        class Service:
            def unlocked_write(self):
                self.store.insert("cargo", {})

            def escalating_read(self, query):
                with self._store_lock.read():
                    with self._store_lock.write():
                        return self.run(query)

            def refresh(self):
                """Re-derive the rules (write lock held)."""
                self.repository.replace_derived([], [])

            def forgetful_caller(self):
                self.refresh()
        '''
    ),
}

VIOLATING_FORK = {
    "engine/parallel.py": textwrap.dedent(
        """
        import threading
        from concurrent.futures import ProcessPoolExecutor

        _journal_lock = threading.Lock()


        def _init_worker(state):
            with _journal_lock:
                return state


        def _run_chunk(tasks):
            _journal_lock.acquire()
            try:
                return tasks
            finally:
                _journal_lock.release()


        class ParallelExecutor:
            def pool(self):
                pool = ProcessPoolExecutor(initializer=_init_worker)
                pool.submit(_run_chunk, [])
                return pool
        """
    ),
}

CLEAN = {
    "service/service.py": textwrap.dedent(
        '''
        class Service:
            def mutate(self, specs):
                with self._store_lock.write():
                    for spec in specs:
                        self.store.insert("cargo", spec)
                    self.refresh()

            def execute(self, query):
                with self._store_lock.read():
                    return self.run(query)

            def refresh(self):
                """Re-derive the rules (write lock held)."""
                self.repository.replace_derived([], [])
        '''
    ),
    "engine/parallel.py": textwrap.dedent(
        """
        import threading
        from concurrent.futures import ProcessPoolExecutor


        def _init_worker(state):
            return state


        class ParallelExecutor:
            def __init__(self):
                self._pool_lock = threading.Lock()

            def pool(self):
                # Parent-side locking around fork is fine; only the
                # worker-side functions must stay lock-free.
                with self._pool_lock:
                    return ProcessPoolExecutor(initializer=_init_worker)
        """
    ),
}


#: ``try_read()`` holds the read side when it yields True, so a write
#: opened inside it deadlocks exactly as one inside ``read()`` does.
TRY_READ_ESCALATION = {
    "service/service.py": textwrap.dedent(
        '''
        class Service:
            def serve_warm(self, query):
                with self._store_lock.try_read() as held:
                    if held:
                        with self._store_lock.write():
                            return self.run(query)
        '''
    ),
}

TRY_READ_CLEAN = {
    "service/service.py": textwrap.dedent(
        '''
        class Service:
            def serve_warm(self, query):
                with self._store_lock.try_read() as held:
                    if not held:
                        return None
                    return self.run(query)
        '''
    ),
}


def test_escalation_inside_try_read_is_caught(build_tree, run_all_passes):
    findings = run_all_passes(build_tree(TRY_READ_ESCALATION))
    assert checks_of(findings) == {("lock-discipline", "read-escalation")}
    assert {f.symbol for f in findings} == {"Service.serve_warm"}


def test_try_read_without_escalation_passes(build_tree, run_all_passes):
    assert run_all_passes(build_tree(TRY_READ_CLEAN)) == []


def test_service_violations_trip_only_lock_discipline(build_tree, run_all_passes):
    findings = run_all_passes(build_tree(VIOLATING_SERVICE))
    assert rules_of(findings) == {"lock-discipline"}
    assert checks_of(findings) == {
        ("lock-discipline", "mutate-outside-write-lock"),
        ("lock-discipline", "read-escalation"),
        ("lock-discipline", "lock-held-caller"),
    }
    by_check = {f.check: f for f in findings}
    assert "unlocked_write" in by_check["mutate-outside-write-lock"].symbol
    assert "forgetful_caller" in by_check["lock-held-caller"].symbol


def test_fork_boundary_violations_trip_only_lock_discipline(
    build_tree, run_all_passes
):
    findings = run_all_passes(build_tree(VIOLATING_FORK))
    assert rules_of(findings) == {"lock-discipline"}
    assert {f.check for f in findings} == {"fork-lock"}
    assert {f.symbol for f in findings} == {"_init_worker", "_run_chunk"}


def test_clean_fixture_passes(build_tree, run_all_passes):
    assert run_all_passes(build_tree(CLEAN)) == []
