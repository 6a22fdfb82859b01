"""Peak memory of one call, as tracemalloc sees it (numpy reports its buffers to it)."""

import tracemalloc


def peak_mb(fn, *args, **kwargs) -> float:
    """Megabytes (2**20 bytes) held at the peak of ``fn(*args, **kwargs)``, beyond what was held before."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
