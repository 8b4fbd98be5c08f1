"""Shared parts of the block-emission parity suites.

Each suite traces a workload with its block emitter and with the
per-reference loop it replaced (the ``*_oracle`` modules), over random
small graphs, chunk sizes and (for the kernels that decide a block
before laying it out) pending-reference bounds, and demands
byte-identical traces.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.graph import CSRGraph
from repro.trace import TraceBuffer

from .test_pagerank_blocks import assert_same_run, assert_same_trace

__all__ = [
    "BLOCK_REFS",
    "CHUNK_SIZES",
    "MAX_REFS",
    "SKIP_REFS",
    "assert_same_run",
    "assert_same_trace",
    "graphs",
    "parity",
    "traced_until_error",
    "weighted_graphs",
]

#: Vertices per block: small ones split levels and passes anywhere.
CHUNK_SIZES = st.sampled_from([1, 2, 3, 5, 7, 4096])
#: References a block may pend: small ones end blocks mid-sweep and mid-bin.
BLOCK_REFS = st.sampled_from([1, 2, 5, 16, 64, 16_384])
MAX_REFS = st.one_of(st.sampled_from([None, 0, 1]), st.integers(2, 400))
SKIP_REFS = st.integers(0, 400)


@st.composite
def graphs(draw):
    """A small graph in raw CSR form.

    Adjacency lists are drawn unsorted, with duplicates, self-loops and
    zero-degree vertices; a graph may have a single vertex.
    """
    n = draw(st.integers(1, 30))
    degrees = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    neighbors = draw(
        st.lists(
            st.integers(0, n - 1), min_size=int(offsets[-1]), max_size=int(offsets[-1])
        )
    )
    return CSRGraph(offsets, np.array(neighbors, dtype=np.int32), name="hyp")


@st.composite
def weighted_graphs(draw):
    """A small graph from :func:`graphs` with a positive weight per edge.

    Weights run up to 4 or up to 255, so under a ``delta`` of 1, 3 or 64
    a relaxation may push its neighbor into the current bin or a later
    one.
    """
    graph = draw(graphs())
    top = draw(st.sampled_from([4, 255]))
    weights = draw(
        st.lists(st.integers(1, top), min_size=graph.num_edges, max_size=graph.num_edges)
    )
    return CSRGraph(graph.offsets, graph.neighbors, np.array(weights), name="hyp")


def parity(module, chunk, block, oracle, graph, block_refs=None, **kwargs):
    """Run ``block`` with ``module.BLOCK_VERTICES = chunk`` (and
    ``module.BLOCK_REFS = block_refs`` when given) and ``oracle`` over
    ``graph``; demand the same run.  Returns the block run."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "BLOCK_VERTICES", chunk)
        if block_refs is not None:
            patch.setattr(module, "BLOCK_REFS", block_refs)
        got = block.run(graph, **kwargs)
    assert_same_run(got, oracle.run(graph, **kwargs))
    return got


def traced_until_error(trace, max_refs=None, skip=0):
    """Call ``trace(tb)`` to its ``IndexError``; return it and the trace."""
    tb = TraceBuffer(capacity=max_refs, skip=skip)
    with pytest.raises(IndexError) as error:
        trace(tb)
    return str(error.value), tb.finalize()
