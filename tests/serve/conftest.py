"""Shared fixture for the serve suites: a scheduler held by a test fake.

``held`` makes every evaluation of the test module's ``served`` server
wait on a gate before it runs, so submissions stay in flight (a popped
evaluation reads ``running``, the rest ``queued``) until the test calls
``held()`` to release them.  Teardown releases the gate and restores
the real evaluation step.
"""

import asyncio

import pytest


async def _new_gate() -> asyncio.Event:
    return asyncio.Event()


@pytest.fixture()
def held(served):
    server = served.server
    loop = served._loop
    gate = asyncio.run_coroutine_threadsafe(_new_gate(), loop).result()
    real = server._execute

    async def gated(request):
        await gate.wait()
        return await real(request)

    server._execute = gated

    def release():
        try:
            loop.call_soon_threadsafe(gate.set)
        except RuntimeError:  # the test drained the server: loop closed
            pass

    try:
        yield release
    finally:
        release()
        del server._execute
