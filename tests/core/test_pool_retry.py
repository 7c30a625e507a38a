"""Worker-pool crash recovery: ``imap_retry`` resubmits the unfinished
suffix once after a ``BrokenProcessPool``, so one dying worker costs a
pool respawn instead of the whole sweep.

The bomb functions kill the worker process with ``os._exit`` — the
exact failure mode of an OOM kill or a native-extension crash — and
arm themselves through a sentinel file so the retry succeeds (or, for
the repeated-crash test, keeps failing).
"""

import os
from pathlib import Path

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.core.pool import imap_retry, pool_health, shutdown_pool
from repro.dse.evaluate import evaluate_request

#: Env var carrying the per-test sentinel path into forked workers.
SENTINEL_ENV = "REPRO_TEST_POOL_BOMB"


def _bomb_once(task):
    """Kills the worker on task 2 the first time; benign afterwards."""
    sentinel = Path(os.environ[SENTINEL_ENV])
    if task == 2 and not sentinel.exists():
        sentinel.write_text("boom")
        os._exit(1)
    return task * 10


def _bomb_always(task):
    """Kills the worker on task 2, every time."""
    if task == 2:
        os._exit(1)
    return task * 10


def _kill_on_1300(request):
    """Sweep evaluator that kills its worker on the 1300 um point the
    first time; evaluates normally otherwise."""
    sentinel = Path(os.environ[SENTINEL_ENV])
    if request.length_um == 1300.0 and not sentinel.exists():
        sentinel.write_text("boom")
        os._exit(1)
    return evaluate_request(request)


@pytest.fixture()
def fresh_pool(tmp_path, monkeypatch):
    """A pool forked after the sentinel env var is set, torn down
    after the test so no broken pool leaks into the suite."""
    monkeypatch.setenv(SENTINEL_ENV, str(tmp_path / "sentinel"))
    shutdown_pool()
    yield
    shutdown_pool()


class TestImapRetry:
    def test_recovers_from_one_worker_death(self, fresh_pool):
        out = list(imap_retry(_bomb_once, [0, 1, 2, 3, 4], jobs=2))
        assert out == [0, 10, 20, 30, 40]

    def test_second_death_propagates(self, fresh_pool):
        with pytest.raises(BrokenProcessPool):
            list(imap_retry(_bomb_always, [0, 1, 2, 3], jobs=2))

    def test_serial_path_untouched(self, fresh_pool):
        # jobs=1 never builds a pool: the bomb runs in-process, so it
        # must not be armed — use benign inputs only.
        assert list(imap_retry(_bomb_once, [0, 1], jobs=1)) == [0, 10]
        assert list(imap_retry(_bomb_once, [], jobs=4)) == []

    def test_pool_health_reports_respawned_pool(self, fresh_pool):
        list(imap_retry(_bomb_once, [0, 1, 2, 3], jobs=2))
        health = pool_health()
        assert health["active"] is True
        assert health["broken"] is False


class TestSweepSurvivesWorkerDeath:
    def test_parallel_sweep_completes_after_kill(self, tmp_path,
                                                 monkeypatch):
        """Kill a worker mid-sweep; the runner's store still completes
        and matches a serial run of the same space."""
        import repro.dse.runner as runner_module
        from repro.dse.runner import SweepRunner
        from repro.dse.space import Axis, SweepSpec

        spec = SweepSpec(
            name="kill-smoke", design="glass_25d", evaluator="link",
            length_um=1000.0,
            axes=(Axis("length_um",
                       values=(500.0, 900.0, 1300.0, 1700.0)),))

        # Each runner gets a store of its own: the serial run stores
        # its points, which would make the parallel run all hits.
        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "s-store"))
        serial = SweepRunner(spec, out_dir=tmp_path / "serial")
        serial.run()

        monkeypatch.setenv("REPRO_FLOW_CACHE", str(tmp_path / "p-store"))
        sentinel = tmp_path / "sentinel"
        monkeypatch.setenv(SENTINEL_ENV, str(sentinel))
        # The runner resolves its evaluator through the module global
        # when it runs, and ships it to the workers by name, so the
        # bomb is a module-level function; the pool is forked after
        # the patch.
        monkeypatch.setattr(runner_module, "evaluate_request",
                            _kill_on_1300)
        shutdown_pool()
        try:
            parallel = SweepRunner(spec, out_dir=tmp_path / "par",
                                   jobs=2)
            records = parallel.run()
        finally:
            shutdown_pool()
        assert sentinel.exists()  # the kill actually happened
        assert len(records) == 4
        assert all(r["error"] is None for r in records)
        assert parallel.points_path.read_bytes() == \
            serial.points_path.read_bytes()
