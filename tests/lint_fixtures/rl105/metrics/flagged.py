"""RL105 fixture: private heaps outside the event kernel."""

import heapq
from heapq import heappush


def earliest(entries):
    heap = list(entries)
    heapq.heapify(heap)
    heappush(heap, (0.0, 0))
    return heap[0]
