"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.engine.des import Environment
from repro.engine.database import Database, DatabaseConfig
from repro.lockmgr.blocks import LockBlockChain
from repro.lockmgr.manager import LockManager


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def small_chain() -> LockBlockChain:
    """A chain with 2 blocks of 8 slots each (tiny, easy to fill)."""
    return LockBlockChain(initial_blocks=2, capacity_per_block=8)


@pytest.fixture
def manager(env) -> LockManager:
    """A lock manager over a realistic small chain (4 blocks)."""
    return LockManager(env, LockBlockChain(initial_blocks=4))


def make_database(
    seed: int = 0,
    policy=None,
    total_memory_pages: int = 16_384,  # 64 MB
    **config_overrides,
) -> Database:
    """A small, fast database instance for tests."""
    config = DatabaseConfig(
        total_memory_pages=total_memory_pages,
        initial_locklist_pages=config_overrides.pop("initial_locklist_pages", 128),
        **config_overrides,
    )
    return Database(seed=seed, config=config, policy=policy)


def lock_table_entry(manager: LockManager, key):
    """``manager``'s lock-table entry for a resource key -- its grant
    word or lock object -- or None, read through the manager's one
    lookup helper."""
    return manager._entry(key, key[3])


def run_process(env: Environment, generator, until=None):
    """Run one generator as a process to completion; return its value.

    Raises whatever the process raised.
    """
    process = env.process(generator)
    env.run(until=until)
    if process.is_alive:
        raise AssertionError("process did not finish before the deadline")
    if not process.ok:
        raise process.value
    return process.value
