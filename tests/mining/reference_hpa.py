"""The per-occurrence HPA/NPA counting phase, kept as the test oracle.

This is the implementation ``repro.mining.hpa`` / ``repro.mining.npa``
shipped as ``kernel="naive"``: one Python ``combinations`` walk per
transaction, one FNV hash per occurrence for routing, tuple-list message
payloads, one ``SwapManager.count_itemset`` call per occurrence (the
swap manager addresses candidates by code, so each tuple is looked up in
a dict over the pass's apriori-gen output).  It shares no code with
:mod:`repro.mining.kernels` (the ``kernel`` argument the production pass
hands to each process is ignored), which is what makes it an oracle: ``tests/integration/test_kernel_equivalence.py``
requires every simulated quantity, every swap-manager counter and the
wire log of the production drivers to equal these.
"""

from itertools import combinations

import numpy as np

from repro.mining.candidates import generate_candidates
from repro.mining.hpa import _EOF, HPARun
from repro.mining.itemsets import ITEMSET_BYTES
from repro.mining.npa import NPARun
from repro.runtime.driver import SendWindow


class _NaiveSubsets:
    """Remembers L_{k-1} per pass and enumerates a transaction's candidate
    occurrences by "all k-subsets, pruned by their (k-1)-subsets"."""

    def _run_pass(self, k, prev_rows, prev_counts):
        self._k = k
        self._l_prev_keys = set(map(tuple, prev_rows.tolist()))
        candidates = generate_candidates(prev_rows, k).tolist()
        self._code_of = {tuple(c): i for i, c in enumerate(candidates)}
        self._l1_mask = np.zeros(self.db.n_items, dtype=bool)
        if k == 2:
            self._l1_mask[prev_rows[:, 0]] = True
        return (yield from super()._run_pass(k, prev_rows, prev_counts))

    def _subsets(self, txn):
        k, l_prev_keys = self._k, self._l_prev_keys
        if k == 2:
            return combinations(txn[self._l1_mask[txn]].tolist(), 2)
        return (
            s
            for s in combinations(txn.tolist(), k)
            if all(sub in l_prev_keys for sub in combinations(s, k - 1))
        )


class ReferenceHPARun(_NaiveSubsets, HPARun):
    """HPA with the per-occurrence sender and receiver."""

    def _sender_node(self, a, kernel, dup, dup_counts):
        n_messages = 0
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        window = SendWindow(self.env)
        items_per_msg = max(1, cost.message_block_bytes // ITEMSET_BYTES)
        buffers = {b: [] for b in self.app_ids if b != a}
        dup_index = {code: i for i, code in enumerate(dup.tolist())}

        for i, j in self._block_ranges(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            generated = 0
            local_counted = 0
            for t in range(i, j):
                for itemset in self._subsets(part[t]):
                    generated += 1
                    code = self._code_of[itemset]
                    if code in dup_index:
                        dup_counts[dup_index[code]] += 1
                        local_counted += 1
                        continue
                    line = self.partitioner.line_of(itemset)
                    owner = self.partitioner.node_of_line(line)
                    if owner == a:
                        op = mgr.count_itemset(code, line)
                        if op is not None:
                            yield from op
                        local_counted += 1
                    else:
                        buf = buffers[owner]
                        buf.append(itemset)
                        if len(buf) >= items_per_msg:
                            payload = buf[:]
                            del buf[:]
                            n_messages += 1
                            yield from window.post(
                                self.cluster.transport.send(
                                    a, owner, "count", payload,
                                    cost.message_block_bytes,
                                )
                            )
            cpu = (
                cost.cpu_generate_per_itemset_s * generated
                + cost.cpu_count_per_itemset_s * local_counted
            )
            if cpu > 0:
                yield from node.compute(cpu)

        # Flush partial buffers, deliver them all, then close the streams.
        for b, buf in buffers.items():
            if buf:
                n_messages += 1
                yield from window.post(
                    self.cluster.transport.send(
                        a, b, "count", buf, ITEMSET_BYTES * len(buf)
                    )
                )
        yield from window.drain()
        for b in buffers:
            yield from window.post(
                self.cluster.transport.send(a, b, "count", _EOF, 16)
            )
        yield from window.drain()
        return n_messages

    def _receiver_node(self, a, kernel):
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        remaining_eofs = len(self.app_ids) - 1
        while remaining_eofs > 0:
            msg = yield self.cluster.transport.recv(a, "count")
            payload = msg.payload
            if isinstance(payload, str):  # _EOF
                remaining_eofs -= 1
                continue
            yield from node.compute(
                cost.cpu_per_message_s + cost.cpu_count_per_itemset_s * len(payload)
            )
            for itemset in payload:
                op = mgr.count_itemset(
                    self._code_of[itemset], self.partitioner.line_of(itemset)
                )
                if op is not None:
                    yield from op


class ReferenceNPARun(_NaiveSubsets, NPARun):
    """NPA with the per-occurrence local counting loop."""

    def _count_node(self, a, kernel):
        part = self.partitions[a]
        node = self.cluster[a]
        mgr = self.managers[a]
        cost = self.config.cost
        line_of = self.partitioner.line_of
        for i, j in self._block_ranges(a):
            yield from node.data_disk.read(cost.disk_io_block_bytes, sequential=True)
            counted = 0
            for t in range(i, j):
                for itemset in self._subsets(part[t]):
                    counted += 1
                    op = mgr.count_itemset(self._code_of[itemset], line_of(itemset))
                    if op is not None:
                        yield from op
            if counted:
                yield from node.compute(
                    (cost.cpu_generate_per_itemset_s + cost.cpu_count_per_itemset_s)
                    * counted
                )
