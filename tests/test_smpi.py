"""Integration tests for the simulated MPI runtime."""

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError, MpiError
from repro.ipm.monitor import GLOBAL_REGION
from repro.platforms import DCC, EC2, VAYU
from repro.smpi import ANY_SOURCE, MpiWorld, Placement, run_program
from repro.smpi.mapping import place_ranks
from repro.platforms.base import Platform
from repro.sim import Engine


def two_node_placement():
    return Placement(num_nodes=2, ranks_per_node=1)


class TestPlacement:
    def test_block_fills_nodes_in_order(self):
        eng = Engine()
        plat = Platform(VAYU, eng)
        place_ranks(plat, 12, Placement(strategy="block"))
        assert plat.nodes[0].nranks == 8
        assert plat.nodes[1].nranks == 4
        assert plat.nodes[2].nranks == 0

    def test_cyclic_deals_round_robin(self):
        eng = Engine()
        plat = Platform(EC2, eng)
        place_ranks(plat, 8, Placement(strategy="cyclic", num_nodes=4))
        assert [n.nranks for n in plat.nodes] == [2, 2, 2, 2]

    def test_ec2_block_uses_ht_slots(self):
        eng = Engine()
        plat = Platform(EC2, eng)
        place_ranks(plat, 16, Placement(strategy="block"))
        assert plat.nodes[0].nranks == 16  # one node: 16 HT slots

    def test_capacity_violation_rejected(self):
        eng = Engine()
        plat = Platform(DCC, eng)
        with pytest.raises(ConfigError):
            place_ranks(plat, 9, Placement(num_nodes=1))

    def test_too_many_nodes_rejected(self):
        eng = Engine()
        plat = Platform(EC2, eng)
        with pytest.raises(ConfigError):
            place_ranks(plat, 8, Placement(num_nodes=5))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            Placement(strategy="scatter")


class TestPointToPoint:
    def test_payload_delivery(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 64, payload={"k": 1})
                return None
            msg = yield from comm.recv(0)
            return msg.payload

        res = run_program(VAYU, 2, prog)
        assert res.rank_results[1] == {"k": 1}

    def test_tag_matching(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 8, tag=5, payload="five")
                yield from comm.send(1, 8, tag=9, payload="nine")
                return None
            m9 = yield from comm.recv(0, tag=9)
            m5 = yield from comm.recv(0, tag=5)
            return (m9.payload, m5.payload)

        res = run_program(VAYU, 2, prog)
        assert res.rank_results[1] == ("nine", "five")

    def test_any_source(self):
        def prog(comm):
            if comm.rank == 0:
                got = []
                for _ in range(2):
                    msg = yield from comm.recv(ANY_SOURCE)
                    got.append(msg.source)
                return sorted(got)
            yield from comm.compute(flops=comm.rank * 1e6)
            yield from comm.send(0, 8)
            return None

        res = run_program(VAYU, 3, prog)
        assert res.rank_results[0] == [1, 2]

    def test_internode_slower_than_intranode(self):
        def prog(comm):
            t0 = comm.wtime()
            if comm.rank == 0:
                yield from comm.send(1, 1024)
            else:
                yield from comm.recv(0)
            return comm.wtime() - t0

        near = run_program(VAYU, 2, prog, placement=Placement(num_nodes=1))
        far = run_program(VAYU, 2, prog, placement=two_node_placement())
        assert far.rank_results[1] > near.rank_results[1]

    def test_rendezvous_requires_receiver(self):
        """A large (rendezvous) send cannot complete before the recv posts."""
        big = VAYU.fabric.eager_threshold * 4

        def prog(comm):
            if comm.rank == 0:
                t0 = comm.wtime()
                yield from comm.send(1, big)
                return comm.wtime() - t0
            yield from comm.delay(1.0)  # receiver arrives late
            yield from comm.recv(0)
            return None

        res = run_program(VAYU, 2, prog, placement=two_node_placement())
        assert res.rank_results[0] >= 1.0

    def test_eager_send_completes_without_receiver(self):
        small = 128

        def prog(comm):
            if comm.rank == 0:
                t0 = comm.wtime()
                yield from comm.send(1, small)
                dt = comm.wtime() - t0
                return dt
            yield from comm.delay(1.0)
            yield from comm.recv(0)
            return None

        res = run_program(VAYU, 2, prog, placement=two_node_placement())
        assert res.rank_results[0] < 0.5

    def test_isend_waitall(self):
        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.isend(1, 256, tag=i) for i in range(4)]
                yield from comm.waitall(reqs)
                return None
            msgs = []
            for i in range(4):
                msg = yield from comm.recv(0, tag=i)
                msgs.append(msg.tag)
            return msgs

        res = run_program(VAYU, 2, prog)
        assert res.rank_results[1] == [0, 1, 2, 3]

    def test_invalid_rank_rejected(self):
        def prog(comm):
            yield from comm.send(5, 8)

        with pytest.raises(MpiError):
            run_program(VAYU, 2, prog)

    def test_sendrecv_ring(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            msg = yield from comm.sendrecv(right, 32, left, payload=comm.rank)
            return msg.payload

        res = run_program(VAYU, 4, prog)
        assert res.rank_results == [3, 0, 1, 2]

    def test_nic_serialisation_contends(self):
        """Two concurrent large sends from one node share its NIC."""
        n = 1 << 20

        def prog(comm):
            t0 = comm.wtime()
            if comm.rank in (0, 1):
                yield from comm.send(comm.rank + 2, n)
            else:
                yield from comm.recv(comm.rank - 2)
            return comm.wtime() - t0

        # ranks 0,1 on node0; 2,3 on node1
        both = run_program(
            DCC, 4, prog, placement=Placement(num_nodes=2, ranks_per_node=2)
        )
        t_contended = max(both.rank_results[2], both.rank_results[3])

        def solo(comm):
            t0 = comm.wtime()
            if comm.rank == 0:
                yield from comm.send(1, n)
            else:
                yield from comm.recv(0)
            return comm.wtime() - t0

        alone = run_program(DCC, 2, solo, placement=two_node_placement())
        assert t_contended > alone.rank_results[1] * 1.5


class TestTransferSteps:
    """Exact virtual times of the inter-node transfer steps on Vayu (no
    hypervisor latency noise) and the deadlock reports of transfers that
    never complete."""

    FABRIC = VAYU.fabric

    @staticmethod
    def serialize(nbytes):
        return MpiWorld(VAYU, 2, placement=two_node_placement()).platform.net_serialize(nbytes)

    def run_pair(self, sender, receiver):
        def prog(comm):
            if comm.rank == 0:
                return (yield from sender(comm))
            return (yield from receiver(comm))

        return run_program(VAYU, 2, prog, placement=two_node_placement()).rank_results

    @staticmethod
    def timed_send(nbytes):
        def sender(comm):
            yield from comm.send(1, nbytes)
            return comm.wtime()

        return sender

    @staticmethod
    def timed_recv(delay):
        def receiver(comm):
            if delay:
                yield from comm.delay(delay)
            msg = yield from comm.recv(0)
            return msg, comm.wtime()

        return receiver

    def test_recv_posted_before_arrival(self):
        f = self.FABRIC
        sent, (msg, received) = self.run_pair(self.timed_send(64), self.timed_recv(0.0))
        arrival = f.o_send + self.serialize(64) + f.latency
        assert sent == pytest.approx(f.o_send + self.serialize(64), rel=1e-12)
        assert msg.arrival_time == pytest.approx(arrival, rel=1e-12)
        assert received == pytest.approx(arrival + f.o_recv, rel=1e-12)

    def test_recv_posted_after_arrival(self):
        f = self.FABRIC
        sent, (msg, received) = self.run_pair(self.timed_send(64), self.timed_recv(1.0))
        assert sent == pytest.approx(f.o_send + self.serialize(64), rel=1e-12)
        assert msg.arrival_time < 1.0
        assert received == pytest.approx(1.0 + f.o_recv, rel=1e-12)

    def test_rendezvous_waits_for_a_late_receiver(self):
        f = self.FABRIC
        big = f.eager_threshold + 1
        sent, (msg, received) = self.run_pair(self.timed_send(big), self.timed_recv(1.0))
        # The RTS waits in the mailbox; the CTS leaves at 1.0 and takes
        # one latency back, then the data is serialised and flies.
        assert msg.is_rts and msg.nbytes == big
        assert sent == pytest.approx(1.0 + f.latency + self.serialize(big), rel=1e-12)
        assert msg.arrival_time == pytest.approx(sent + f.latency, rel=1e-12)
        assert received == pytest.approx(msg.arrival_time + f.o_recv, rel=1e-12)

    @pytest.mark.parametrize("internode", [False, True])
    def test_zero_byte_message(self, internode):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 0, payload="empty")
                return None
            msg = yield from comm.recv(0)
            return msg.nbytes, msg.payload, comm.wtime()

        placement = two_node_placement() if internode else Placement(num_nodes=1)
        res = run_program(VAYU, 2, prog, placement=placement)
        nbytes, payload, received = res.rank_results[1]
        assert (nbytes, payload) == (0, "empty")
        if internode:
            f = self.FABRIC
            assert received == pytest.approx(f.o_send + f.latency + f.o_recv, rel=1e-12)
        calls = res.monitor.profiles[1].regions[GLOBAL_REGION].mpi
        assert [(key.call, key.nbytes) for key in calls] == [("MPI_Recv", 0)]

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_unmatched_recv_deadlock(self, sanitize):
        """The rank and its receive both count as blocked, as they did
        when a receive was a simulated process."""
        from repro.errors import DeadlockError

        def prog(comm):
            if comm.rank == 0:
                yield from comm.recv(1)
            return None

        world = MpiWorld(VAYU, 2, placement=two_node_placement(), sanitize=sanitize)
        with pytest.raises(DeadlockError) as exc:
            world.launch(prog)
        assert exc.value.waiting == 2
        if sanitize:
            assert exc.value.pending_ops == (
                "rank 0: recv from rank 1 (tag=ANY_TAG) posted at t=0",
            )

    def test_unmatched_rendezvous_send_deadlock(self):
        """A rendezvous send whose RTS is never matched waits for the CTS."""
        from repro.errors import DeadlockError

        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, VAYU.fabric.eager_threshold + 1)
            return None

        world = MpiWorld(VAYU, 2, placement=two_node_placement(), sanitize=False)
        with pytest.raises(DeadlockError) as exc:
            world.launch(prog)
        assert exc.value.waiting == 2


class TestCollectives:
    def test_allreduce_value(self):
        def prog(comm):
            total = yield from comm.allreduce(8, value=comm.rank + 1)
            return total

        res = run_program(VAYU, 8, prog)
        assert all(v == 36 for v in res.rank_results)

    def test_allreduce_custom_op(self):
        def prog(comm):
            peak = yield from comm.allreduce(8, value=comm.rank, op=max)
            return peak

        res = run_program(VAYU, 5, prog)
        assert all(v == 4 for v in res.rank_results)

    def test_allreduce_some_values(self):
        """Ranks that pass no value still receive the combined value of
        those that did; here the first and the last to arrive pass none."""
        def prog(comm):
            yield comm.rank * 1e-6
            value = comm.rank if comm.rank in (2, 5) else None
            total = yield from comm.allreduce(8, value=value)
            return total

        res = run_program(VAYU, 8, prog)
        assert res.rank_results == [2 + 5] * 8

    def test_allreduce_no_values_gives_none(self):
        def prog(comm):
            total = yield from comm.allreduce(8)
            return total

        res = run_program(VAYU, 4, prog)
        assert res.rank_results == [None] * 4

    def test_rank_exception_escapes_run_program(self):
        """An exception in one rank ends the run with that very error,
        while the other ranks still wait in an all-reduce."""
        def prog(comm):
            if comm.rank == 3:
                yield 1.0
                raise MpiError(f"rank {comm.rank} gave up at t={comm.world.engine.now}")
            yield from comm.allreduce(8)

        with pytest.raises(MpiError, match=r"^rank 3 gave up at t=1\.0$"):
            run_program(DCC, 8, prog)

    def test_scatter(self):
        def prog(comm):
            vals = [10, 20, 30, 40] if comm.rank == 0 else None
            v = yield from comm.scatter(8, root=0, values=vals)
            return v

        res = run_program(VAYU, 4, prog)
        assert res.rank_results == [10, 20, 30, 40]

    def test_alltoall_transpose(self):
        def prog(comm):
            vals = [f"{comm.rank}->{d}" for d in range(comm.size)]
            got = yield from comm.alltoall(1024, values=vals)
            return got

        res = run_program(VAYU, 3, prog)
        assert res.rank_results[1] == ["0->1", "1->1", "2->1"]

    def test_barrier_synchronises(self):
        def prog(comm):
            yield from comm.compute(flops=comm.rank * 1e7)
            yield from comm.barrier()
            return comm.wtime()

        res = run_program(VAYU, 4, prog)
        times = res.rank_results
        assert max(times) - min(times) < 1e-9

    def test_collective_charges_wait_to_stragglers(self):
        """Ranks arriving early at a collective accumulate MPI wait time."""

        def prog(comm):
            if comm.rank == comm.size - 1:
                yield from comm.compute(flops=5e8)  # straggler
            yield from comm.barrier()
            return None

        res = run_program(VAYU, 4, prog)
        mon = res.monitor
        early = mon[0].total.mpi_time
        late = mon[3].total.mpi_time
        assert early > late
        assert early > 0.01  # waited for the straggler's ~170ms of compute

    def test_mismatched_collective_deadlocks(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.barrier()
            # other ranks never join
            return None

        from repro.errors import DeadlockError

        with pytest.raises(DeadlockError):
            run_program(VAYU, 2, prog)


class TestCommSplit:
    def test_split_into_halves(self):
        def prog(comm):
            color = comm.rank // 2
            sub = yield from comm.split(color)
            total = yield from sub.allreduce(8, value=comm.rank)
            return (sub.size, sub.rank, total)

        res = run_program(VAYU, 4, prog)
        assert res.rank_results[0] == (2, 0, 1)   # ranks 0+1
        assert res.rank_results[3] == (2, 1, 5)   # ranks 2+3

    def test_split_key_reorders(self):
        def prog(comm):
            sub = yield from comm.split(0, key=-comm.rank)
            return sub.rank

        res = run_program(VAYU, 3, prog)
        assert res.rank_results == [2, 1, 0]

    def test_split_groups_have_distinct_ids(self):
        def prog(comm):
            sub = yield from comm.split(comm.rank % 2)
            return sub.comm_id

        res = run_program(VAYU, 4, prog)
        ids = set(res.rank_results)
        assert len(ids) == 2

    def test_nested_collectives_on_subcomm(self):
        def prog(comm):
            sub = yield from comm.split(comm.rank % 2)
            # List contributions sum to their concatenation in rank order.
            v = yield from sub.allreduce(8, value=[comm.rank])
            return v

        res = run_program(VAYU, 6, prog)
        assert res.rank_results[0] == [0, 2, 4]
        assert res.rank_results[1] == [1, 3, 5]

    @pytest.mark.parametrize("nodes", [1, 2])
    def test_recv_matches_only_its_communicator(self, nodes):
        """A wildcard-source receive on a sub-communicator must not take
        a message sent on the world communicator, even one that landed
        first."""

        def prog(comm):
            sub = yield from comm.split(comm.rank // 2)
            if comm.rank == 0:
                yield from comm.delay(1e-3)  # the world message lands first
                yield from sub.send(1, 64, tag=5, payload="sub")
            elif comm.rank == 3:
                yield from comm.send(1, 64, tag=5, payload="world")
            elif comm.rank == 1:
                first = yield from sub.recv(tag=5)
                second = yield from comm.recv(3, tag=5)
                return first.payload, second.payload
            return None

        placement = Placement(num_nodes=nodes, ranks_per_node=4 // nodes)
        res = run_program(VAYU, 4, prog, placement=placement)
        assert res.rank_results[1] == ("sub", "world")


class TestIpmIntegration:
    def test_region_accounting(self):
        def prog(comm):
            with comm.region("solve"):
                yield from comm.compute(flops=1e8)
                yield from comm.allreduce(4, value=1.0)
            with comm.region("io"):
                yield from comm.io_read(1e6)
            return None

        res = run_program(VAYU, 4, prog)
        mon = res.monitor
        assert "solve" in mon.region_names() and "io" in mon.region_names()
        solve = mon[0].regions["solve"]
        assert solve.compute_time > 0
        assert solve.mpi_time >= 0
        io = mon[0].regions["io"]
        assert io.io_time > 0 and io.compute_time == 0

    def test_delay_accounts_to_compute_or_io(self):
        def prog(comm):
            yield from comm.delay(1.0)
            yield from comm.delay(2.0, account="io")
            return None

        total = run_program(VAYU, 2, prog).monitor[0].total
        assert (total.compute_time, total.io_time) == (1.0, 2.0)

    @pytest.mark.parametrize("account", ["IO", "comm", ""])
    def test_delay_rejects_unknown_account(self, account):
        def prog(comm):
            yield from comm.delay(1.0, account=account)
            return None

        with pytest.raises(MpiError, match="account"):
            run_program(VAYU, 2, prog)

    def test_ksp_style_call_histogram(self):
        """All-reduce message sizes are recorded, enabling the paper's
        'entirely 4-byte all-reduces' style of statement."""

        def prog(comm):
            with comm.region("KSp"):
                for _ in range(10):
                    yield from comm.allreduce(4, value=0.5)
            return None

        res = run_program(VAYU, 4, prog)
        ksp = res.monitor[0].regions["KSp"]
        sizes = ksp.call_sizes("MPI_Allreduce")
        assert set(sizes) == {4}
        assert sizes[4].count == 10

    def test_comm_percent_increases_with_latency(self):
        def prog(comm):
            for _ in range(20):
                yield from comm.compute(flops=1e6)
                yield from comm.allreduce(8, value=1)
            return None

        pl = Placement(ranks_per_node=4)
        fast = run_program(VAYU, 8, prog, placement=pl)
        slow = run_program(DCC, 8, prog, placement=pl)
        assert slow.report().comm_percent > fast.report().comm_percent

    def test_wall_time_positive_and_reported(self):
        def prog(comm):
            yield from comm.compute(flops=1e6)
            return None

        res = run_program(VAYU, 2, prog)
        assert res.wall_time > 0
        assert res.report().wall_time == pytest.approx(res.wall_time, rel=1e-6)


class TestRepeats:
    def test_same_seed_reproducible(self):
        def prog(comm):
            yield from comm.compute(flops=1e8, mem_bytes=1e7)
            yield from comm.allreduce(8, value=1)
            return None

        a = run_program(DCC, 8, prog, seed=3)
        b = run_program(DCC, 8, prog, seed=3)
        assert a.wall_time == b.wall_time


#: Knobs that were deleted with the unused tracers and the store's
#: export/import; each must be rejected, not silently accepted.
_RETIRED_KNOBS = {
    "world-timeline": (TypeError, lambda: MpiWorld(VAYU, 2, timeline=True)),
    "engine-trace": (TypeError, lambda: Engine(trace=True)),
    "store-export": (
        SystemExit, lambda: cli_main(["store", "export", "s", "--out", "d"])
    ),
    "store-import": (SystemExit, lambda: cli_main(["store", "import", "s", "d"])),
}


@pytest.mark.parametrize("knob", sorted(_RETIRED_KNOBS))
def test_retired_knob_is_rejected(knob, capsys):
    error, call = _RETIRED_KNOBS[knob]
    with pytest.raises(error) as info:
        call()
    if error is SystemExit:
        assert info.value.code == 2  # an argparse usage error
