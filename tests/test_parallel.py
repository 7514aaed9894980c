import os

from pqvol.parallel import map_in_order, pool_size


def test_pool_size_is_capped_by_tasks_and_cores():
    cores = os.cpu_count() or 1
    assert pool_size(1, 50) == 1
    assert pool_size(64, 3) == min(3, cores)
    assert pool_size(10**6, 10**6) == cores
    assert pool_size(8, 0) == 0


def test_map_in_order_serial_when_one_worker():
    assert map_in_order(abs, [-3, 1, -2], 1) == [3, 1, 2]
    assert map_in_order(abs, [], 4) == []
