"""Determinism-linter coverage: every rule fires on its defect class,
suppressions work, and the repo itself lints clean."""

import pathlib

import pytest

from repro.analysis.lint import (
    RULES,
    lint_paths,
    lint_source,
    render_findings,
)
from repro.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]


def rules_for(source: str) -> list[str]:
    return [f.rule for f in lint_source(source, "snippet.py")]


class TestDET001WallClock:
    def test_time_time(self):
        assert rules_for("import time\nt = time.time()\n") == ["DET001"]

    def test_perf_counter_from_import(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert rules_for(src) == ["DET001"]

    def test_datetime_now(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert rules_for(src) == ["DET001"]

    def test_datetime_module_utcnow(self):
        src = "import datetime\nd = datetime.datetime.utcnow()\n"
        assert rules_for(src) == ["DET001"]

    def test_simulated_clock_is_fine(self):
        src = "def prog(comm):\n    t = comm.wtime()\n    yield 0\n"
        assert rules_for(src) == []


class TestDET002UnseededRandom:
    def test_module_level_random(self):
        assert rules_for("import random\nx = random.random()\n") == ["DET002"]

    def test_unseeded_random_instance(self):
        assert rules_for("import random\nr = random.Random()\n") == ["DET002"]

    def test_seeded_random_instance_is_fine(self):
        assert rules_for("import random\nr = random.Random(42)\n") == []

    def test_numpy_legacy_global(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_for(src) == ["DET002"]

    def test_unseeded_default_rng(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_for(src) == ["DET002"]

    def test_seeded_default_rng_is_fine(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rules_for(src) == []

    def test_default_rng_from_import(self):
        src = "from numpy.random import default_rng\nrng = default_rng()\n"
        assert rules_for(src) == ["DET002"]


class TestDET003IdOrdering:
    def test_sorted_key_id(self):
        assert rules_for("ys = sorted(xs, key=id)\n") == ["DET003"]

    def test_list_sort_key_id(self):
        assert rules_for("xs.sort(key=id)\n") == ["DET003"]

    def test_named_key_is_fine(self):
        assert rules_for("ys = sorted(xs, key=len)\n") == []


class TestDET004SetIteration:
    def test_for_over_set_literal(self):
        assert rules_for("for x in {1, 2}:\n    pass\n") == ["DET004"]

    def test_comprehension_over_set_call(self):
        assert rules_for("ys = [y for y in set(xs)]\n") == ["DET004"]

    def test_sorted_set_is_fine(self):
        assert rules_for("for x in sorted(set(xs)):\n    pass\n") == []


class TestDET005UnpicklableWorker:
    def test_nested_registration(self):
        src = (
            "from repro.harness.parallel import cell_worker\n"
            "def outer():\n"
            "    @cell_worker('bad')\n"
            "    def inner(x):\n"
            "        return x\n"
        )
        assert rules_for(src) == ["DET005"]

    def test_lambda_registration(self):
        src = (
            "from repro.harness.parallel import cell_worker\n"
            "w = cell_worker('bad')(lambda x: x)\n"
        )
        assert rules_for(src) == ["DET005"]

    def test_module_level_registration_is_fine(self):
        src = (
            "from repro.harness.parallel import cell_worker\n"
            "@cell_worker('good')\n"
            "def worker(x):\n"
            "    return x\n"
        )
        assert rules_for(src) == []


class TestDET006RankDependentCollective:
    def test_collective_under_rank_branch(self):
        src = (
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.allreduce(8)\n"
        )
        assert rules_for(src) == ["DET006"]

    def test_chain_under_rank_branch(self):
        src = (
            "def prog(comm, phases):\n"
            "    if comm.rank % 2:\n"
            "        yield from comm.chain(*phases)\n"
        )
        assert rules_for(src) == ["DET006"]

    def test_unconditional_collective_is_fine(self):
        src = "def prog(comm):\n    yield from comm.allreduce(8)\n"
        assert rules_for(src) == []

    def test_point_to_point_under_rank_branch_is_fine(self):
        src = (
            "def prog(comm):\n"
            "    if comm.rank == 0:\n"
            "        yield from comm.send(1, 8)\n"
        )
        assert rules_for(src) == []

    def test_str_split_is_not_a_collective(self):
        src = (
            "def f(comm, text):\n"
            "    if comm.rank == 0:\n"
            "        return text.split()\n"
        )
        assert rules_for(src) == []


class TestSuppressions:
    def test_bare_lint_ok_suppresses_everything(self):
        assert rules_for("import time\nt = time.time()  # lint-ok\n") == []

    def test_rule_specific_suppression(self):
        src = "import time\nt = time.time()  # lint-ok: DET001 host timer\n"
        assert rules_for(src) == []

    def test_wrong_rule_does_not_suppress(self):
        # The listed rule never fired, so the suppression is also stale.
        src = "import time\nt = time.time()  # lint-ok: DET002\n"
        assert rules_for(src) == ["DET012", "DET001"]

    def test_multiple_rules_in_one_comment(self):
        src = (
            "import time, random\n"
            "t = time.time() + random.random()  # lint-ok: DET001, DET002\n"
        )
        assert rules_for(src) == []


class TestInfrastructure:
    def test_syntax_error_becomes_det000(self):
        (finding,) = lint_source("def broken(:\n", "bad.py")
        assert finding.rule == "DET000"

    def test_every_rule_has_a_description(self):
        assert set(RULES) >= {f"DET00{i}" for i in range(7)}
        assert all(RULES.values())

    def test_render_findings_clean(self):
        assert render_findings([]) == "lint: clean"

    def test_render_findings_lists_and_counts(self):
        findings = lint_source("import time\nt = time.time()\n", "mod.py")
        text = render_findings(findings)
        assert "mod.py:2:" in text and "DET001" in text and "1 finding" in text

    def test_missing_path_is_an_error_not_clean(self, tmp_path):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="lint path"):
            lint_paths([tmp_path / "no_such_dir"])

    def test_repo_lints_clean(self):
        """Acceptance criterion: ``repro lint src benchmarks`` exits 0."""
        findings = lint_paths([REPO / "src", REPO / "benchmarks"])
        assert findings == [], render_findings(findings)


class TestCli:
    def test_cli_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")

        assert main(["lint", str(clean)]) == 0
        assert "lint: clean" in capsys.readouterr().out

        assert main(["lint", str(dirty)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_cli_json_output(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main(["lint", "--json", str(dirty)]) == 1
        (row,) = json.loads(capsys.readouterr().out)
        assert row["rule"] == "DET002" and row["line"] == 2


def deep_rules_for(source: str) -> list[str]:
    return [f.rule for f in lint_source(source, "snippet.py", deep=True)]


class TestDET007GlobalMutation:
    def test_global_statement_rebind(self):
        src = "COUNT = 0\ndef bump():\n    global COUNT\n    COUNT += 1\n"
        assert deep_rules_for(src) == ["DET007"]

    def test_inplace_mutation_of_module_list(self):
        src = "CACHE = []\ndef stash(x):\n    CACHE.append(x)\n"
        assert deep_rules_for(src) == ["DET007"]

    def test_subscript_store_into_module_dict(self):
        src = "TABLE = {}\ndef put(k, v):\n    TABLE[k] = v\n"
        assert deep_rules_for(src) == ["DET007"]

    def test_local_rebind_is_fine(self):
        src = "COUNT = 0\ndef f():\n    COUNT = 5\n    return COUNT\n"
        assert deep_rules_for(src) == []

    def test_plain_mode_stays_silent(self):
        src = "CACHE = []\ndef stash(x):\n    CACHE.append(x)\n"
        assert rules_for(src) == []


class TestDET008EnvironmentReads:
    def test_os_environ_get(self):
        src = "import os\ndef f():\n    return os.environ.get('X')\n"
        assert deep_rules_for(src) == ["DET008"]

    def test_os_environ_subscript(self):
        src = "import os\ndef f():\n    return os.environ['X']\n"
        assert deep_rules_for(src) == ["DET008"]

    def test_getenv_from_import(self):
        src = "from os import getenv\ndef f():\n    return getenv('X')\n"
        assert deep_rules_for(src) == ["DET008"]

    def test_open_and_read_text(self):
        src = (
            "import pathlib\n"
            "def f(p):\n"
            "    a = open(p).read()\n"
            "    return a + pathlib.Path(p).read_text()\n"
        )
        assert deep_rules_for(src) == ["DET008", "DET008"]

    @pytest.mark.parametrize("call", [
        "open(p, 'w')", "open(p, 'wb')", "open(p, mode='a')", "open(p, 'x', newline='')",
    ])
    def test_write_only_open_is_not_a_read(self, call):
        assert deep_rules_for(f"def f(p):\n    return {call}\n") == []

    @pytest.mark.parametrize("call", [
        "open(p, 'r')", "open(p, 'a+')", "open(p, 'w+b')", "open(p, mode)",
        "open(p, mode=mode)", "open(p, encoding='utf-8')",
    ])
    def test_other_open_modes_are_reads(self, call):
        assert deep_rules_for(f"def f(p, mode):\n    return {call}\n") == ["DET008"]

    def test_plain_mode_stays_silent(self):
        src = "import os\ndef f():\n    return os.environ.get('X')\n"
        assert rules_for(src) == []


class TestDET009SetOrderEscape:
    def test_list_over_set(self):
        assert deep_rules_for("r = list({1, 2, 3})\n") == ["DET009"]

    def test_join_over_set_call(self):
        src = "def f(xs):\n    return ','.join(set(xs))\n"
        assert deep_rules_for(src) == ["DET009"]

    def test_sorted_set_is_fine(self):
        assert deep_rules_for("r = sorted({1, 2, 3})\n") == []


class TestDET010WorkerCaptures:
    def test_lambda_default_in_worker(self):
        src = (
            "from repro.harness.parallel import cell_worker\n"
            "@cell_worker('w')\n"
            "def w(x, f=lambda v: v + 1):\n"
            "    return f(x)\n"
        )
        assert deep_rules_for(src) == ["DET010"]

    def test_worker_returning_lambda(self):
        src = (
            "from repro.harness.parallel import cell_worker\n"
            "@cell_worker('w')\n"
            "def w(x):\n"
            "    return lambda: x\n"
        )
        assert deep_rules_for(src) == ["DET010"]

    def test_plain_function_lambda_is_fine(self):
        src = "def f(x, g=lambda v: v):\n    return g(x)\n"
        assert deep_rules_for(src) == []


class TestDET011CollectiveInHandler:
    def test_collective_in_except(self):
        src = (
            "def prog(comm):\n"
            "    try:\n"
            "        yield from comm.allreduce(1)\n"
            "    except ValueError:\n"
            "        yield from comm.barrier()\n"
        )
        assert deep_rules_for(src) == ["DET011"]

    def test_collective_in_finally(self):
        src = (
            "def prog(comm):\n"
            "    try:\n"
            "        yield 1\n"
            "    finally:\n"
            "        yield from comm.allreduce(0)\n"
        )
        assert deep_rules_for(src) == ["DET011"]

    def test_chain_in_except(self):
        src = (
            "def prog(comm, phases):\n"
            "    try:\n"
            "        yield 1\n"
            "    except ValueError:\n"
            "        yield from comm.chain(*phases)\n"
        )
        assert deep_rules_for(src) == ["DET011"]

    def test_collective_in_try_body_is_fine(self):
        src = (
            "def prog(comm):\n"
            "    try:\n"
            "        yield from comm.allreduce(1)\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert deep_rules_for(src) == []


class TestDET012StaleSuppression:
    def test_bare_suppression_with_nothing_fired_is_stale(self):
        assert rules_for("x = 1  # lint-ok\n") == ["DET012"]

    def test_bare_suppression_that_fires_is_fine(self):
        assert rules_for("import time\nt = time.time()  # lint-ok\n") == []

    def test_deep_only_rule_not_stale_in_plain_mode(self):
        src = "CACHE = []\ndef f(x):\n    CACHE.append(x)  # lint-ok: DET007 intentional\n"
        assert rules_for(src) == []
        assert deep_rules_for(src) == []

    def test_deep_listed_suppression_stale_in_deep_mode(self):
        src = "def f(x):\n    return x  # lint-ok: DET007\n"
        assert deep_rules_for(src) == ["DET012"]

    def test_one_stale_rule_among_live_ones(self):
        src = (
            "import time\n"
            "t = time.time()  # lint-ok: DET001, DET002 host timer\n"
        )
        assert rules_for(src) == ["DET012"]


class TestUnreadableFiles:
    def test_non_utf8_file_reports_det000(self, tmp_path):
        from repro.analysis.lint import lint_file

        bad = tmp_path / "latin.py"
        bad.write_bytes(b"x = '\xe9'\n")  # latin-1, invalid UTF-8
        (finding,) = lint_file(bad)
        assert finding.rule == "DET000"
        assert "cannot read file" in finding.message
        assert finding.line == 0

    def test_unreadable_file_keeps_lint_paths_going(self, tmp_path):
        from repro.analysis.lint import lint_file

        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xff\xfe\x00broken")
        good = tmp_path / "good.py"
        good.write_text("import time\nt = time.time()\n")
        findings = lint_paths([tmp_path])
        assert {f.rule for f in findings} == {"DET000", "DET001"}
        # And lint_file on its own never raises either.
        assert lint_file(bad)[0].rule == "DET000"


class TestCollectiveRegistrySync:
    """Satellite: DET006/DET011 share the canonical collective registry."""

    def test_linter_uses_the_canonical_registry_object(self):
        import repro.analysis.lint as lint_mod
        from repro.smpi.collectives import COLLECTIVE_METHODS

        assert lint_mod.COLLECTIVE_METHODS is COLLECTIVE_METHODS

    def test_registry_matches_comm_and_world_surface(self):
        """Every registered name is a real method on Comm or MpiWorld,
        and every Comm/MpiWorld collective generator is registered."""
        import ast

        from repro import smpi
        from repro.smpi.collectives import COLLECTIVE_METHODS

        def methods_of(path, classname):
            tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
            for stmt in tree.body:
                if isinstance(stmt, ast.ClassDef) and stmt.name == classname:
                    return {
                        s.name for s in stmt.body
                        if isinstance(s, ast.FunctionDef)
                        and not s.name.startswith("_")
                    }
            raise AssertionError(f"class {classname} not found in {path}")

        base = pathlib.Path(smpi.__file__).parent
        comm_methods = methods_of(base / "comm.py", "Comm")
        world_methods = methods_of(base / "world.py", "MpiWorld")
        # Registered names must exist on the public simulation surface.
        assert COLLECTIVE_METHODS <= comm_methods | world_methods, (
            COLLECTIVE_METHODS - (comm_methods | world_methods)
        )
        # Every Comm method that routes through the collective engine
        # must be registered — DET006/DET011 see exactly the same set.
        src = (base / "comm.py").read_text(encoding="utf-8")
        tree = ast.parse(src)
        routed = set()
        for stmt in tree.body:
            if not (isinstance(stmt, ast.ClassDef) and stmt.name == "Comm"):
                continue
            for meth in stmt.body:
                if not isinstance(meth, ast.FunctionDef):
                    continue
                for node in ast.walk(meth):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("collective", "split")
                            and isinstance(node.func.value, ast.Attribute)
                            or isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "collective"):
                        routed.add(meth.name)
        assert routed <= COLLECTIVE_METHODS, routed - COLLECTIVE_METHODS
