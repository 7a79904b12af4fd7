"""RL105 fixture: ``repro.sim`` itself may use heapq (the kernel's home)."""

import heapq
from heapq import heappop


def drain(heap):
    heapq.heapify(heap)
    while heap:
        yield heappop(heap)
