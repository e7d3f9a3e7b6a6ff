"""Deeper protocol tests for the simulated MPI wire layer."""

import pytest

from repro.errors import ConfigError
from repro.platforms import DCC, VAYU
from repro.smpi import MpiWorld, Placement, run_program
from repro.smpi.mapping import ranks_per_node_used
from repro.smpi.message import Message, Request


def two_nodes():
    return Placement(num_nodes=2, ranks_per_node=1)


class TestRequests:
    def test_request_complete_transitions(self):
        captured = {}

        def prog(comm):
            if comm.rank == 0:
                req = comm.isend(1, 64)
                captured["before"] = req.event.triggered
                yield from comm.wait(req)
                captured["after"] = req.event.triggered
            else:
                yield from comm.recv(0)
            return None

        run_program(VAYU, 2, prog, placement=two_nodes())
        assert captured == {"before": False, "after": True}

    def test_message_metadata(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 256, tag=7, payload=b"x")
                return None
            msg = yield from comm.recv(0)
            return (msg.source, msg.dest, msg.tag, msg.nbytes, msg.arrival_time > 0)

        res = run_program(VAYU, 2, prog, placement=two_nodes())
        assert res.rank_results[1] == (0, 1, 7, 256, True)

    def test_wait_returns_message_for_recv(self):
        def prog(comm):
            if comm.rank == 0:
                yield from comm.send(1, 32, payload="p")
                return None
            req = comm.irecv(0)
            msg = yield from comm.wait(req)
            return isinstance(msg, Message) and msg.payload == "p"

        res = run_program(VAYU, 2, prog)
        assert res.rank_results[1] is True


class TestRendezvousProtocol:
    def test_out_of_order_rendezvous_and_eager(self):
        """An eager message posted after a rendezvous one can still be
        received first (tag matching, not arrival order)."""
        big = VAYU.fabric.eager_threshold * 2

        def prog(comm):
            if comm.rank == 0:
                big_req = comm.isend(1, big, tag=1, payload="big")
                small_req = comm.isend(1, 16, tag=2, payload="small")
                yield from comm.waitall([big_req, small_req])
                return None
            small = yield from comm.recv(0, tag=2)
            bigm = yield from comm.recv(0, tag=1)
            return (small.payload, bigm.payload)

        res = run_program(VAYU, 2, prog, placement=two_nodes())
        assert res.rank_results[1] == ("small", "big")

    def test_two_rendezvous_sends_same_peer(self):
        big = VAYU.fabric.eager_threshold * 4

        def prog(comm):
            if comm.rank == 0:
                reqs = [comm.isend(1, big, tag=i) for i in range(2)]
                yield from comm.waitall(reqs)
                return None
            first = yield from comm.recv(0, tag=0)
            second = yield from comm.recv(0, tag=1)
            return (first.nbytes, second.nbytes)

        res = run_program(VAYU, 2, prog, placement=two_nodes())
        assert res.rank_results[1] == (big, big)

    def test_intranode_large_message_pays_handshake(self):
        big = VAYU.shm.eager_threshold * 8
        small = 256

        def timed(nbytes):
            def prog(comm):
                t0 = comm.wtime()
                if comm.rank == 0:
                    yield from comm.send(1, nbytes)
                else:
                    yield from comm.recv(0)
                return comm.wtime() - t0

            return run_program(VAYU, 2, prog).rank_results[1]

        assert timed(big) > timed(small)


class TestAccountingSemantics:
    def test_comm_time_includes_collective_wait(self):
        """IPM semantics: a rank that arrives early charges the wait."""

        def prog(comm):
            if comm.rank == 0:
                yield from comm.compute(flops=1e9)  # straggler
            yield from comm.barrier()
            return None

        res = run_program(VAYU, 4, prog)
        waiter = res.monitor[1].total
        straggler = res.monitor[0].total
        assert waiter.mpi_time > 0.1
        assert straggler.mpi_time < waiter.mpi_time / 10

    def test_isend_overhead_not_charged_to_caller_region(self):
        def prog(comm):
            with comm.region("post"):
                req = comm.isend(1, 128) if comm.rank == 0 else comm.irecv(0)
            with comm.region("wait"):
                yield from comm.wait(req)
            return None

        res = run_program(VAYU, 2, prog, placement=two_nodes())
        post = res.monitor[1].regions["post"]
        wait = res.monitor[1].regions["wait"]
        assert post.mpi_time == 0.0
        assert wait.mpi_time > 0.0

    def test_io_charged_to_io_not_comm(self):
        def prog(comm):
            yield from comm.io_read(1e6)
            return None

        res = run_program(DCC, 2, prog)
        total = res.monitor[0].total
        assert total.io_time > 0 and total.mpi_time == 0


class TestMappingHelpers:
    def test_ranks_per_node_used(self):
        world = MpiWorld(VAYU, 12, placement=Placement(strategy="block"))
        assert ranks_per_node_used(world.platform) == 8

    def test_world_size_one_allowed(self):
        def prog(comm):
            yield from comm.barrier()
            v = yield from comm.allreduce(8, value=3)
            return v

        res = run_program(VAYU, 1, prog)
        assert res.rank_results == [3]

    def test_invalid_world_size(self):
        with pytest.raises(ConfigError):
            MpiWorld(VAYU, 0)
