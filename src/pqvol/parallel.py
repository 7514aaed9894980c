"""Process-pool fan-out shared by the recurrence search and the dilate counter."""

import os
from concurrent.futures import ProcessPoolExecutor


def pool_size(jobs: int, tasks: int) -> int:
    """Worker processes worth starting: no more than asked for, tasks, or cores."""
    return min(jobs, tasks, os.cpu_count() or 1)


def map_in_order(fn, tasks: list, jobs: int) -> list:
    """[fn(t) for t in tasks], spread over pool_size(jobs, len(tasks)) processes."""
    workers = pool_size(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
