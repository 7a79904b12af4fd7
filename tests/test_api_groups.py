"""GroupsConfig threading: config → registry → coordinators → rows."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    RESULT_COLUMNS,
    GroupConfig,
    GroupsConfig,
    SimulationBuilder,
    SimulationConfig,
    SimulationConfigError,
    run_simulation,
)
from repro.api.workloads import resolve_workload
from repro.api.config import WorkloadConfig
from repro.traces.clf import generate_synthetic_log, serialize_log

_DELTA = 120.0


def _poisson_workload() -> dict:
    return {
        "source": "poisson",
        "objects": ["a", "b", "c"],
        "params": {"rate_per_hour": 12.0, "hours": 4.0},
    }


def _groups_section() -> dict:
    return {
        "groups": [
            {"group_id": "pair", "members": ["a", "b"], "mutual_delta": _DELTA}
        ],
        "edges": [["b", "c"]],
        "component_delta": _DELTA,
        "mode": "triggered",
        "rate_ratio_threshold": 0.8,
    }


class TestGroupsConfig:
    def test_round_trip_through_json(self):
        config = SimulationConfig.from_dict(
            {
                "workload": _poisson_workload(),
                "policy": {"name": "limd", "params": {"delta": _DELTA}},
                "groups": _groups_section(),
            }
        )
        encoded = json.dumps(config.to_dict())
        assert SimulationConfig.from_dict(json.loads(encoded)) == config

    def test_default_groups_omitted_from_dict(self):
        # Pre-groups configs keep their historical serialized shape.
        assert "groups" not in SimulationConfig().to_dict()
        assert not SimulationConfig().groups.enabled

    def test_duplicate_group_ids_rejected(self):
        with pytest.raises(SimulationConfigError, match="duplicate group id"):
            GroupsConfig(
                groups=(
                    GroupConfig("g", ("a", "b"), 1.0),
                    GroupConfig("g", ("c", "d"), 1.0),
                )
            )

    def test_single_member_group_rejected(self):
        with pytest.raises(SimulationConfigError, match="members"):
            GroupConfig("g", ("a",), 1.0)

    def test_self_loop_edge_rejected(self):
        with pytest.raises(SimulationConfigError, match="itself"):
            GroupsConfig(edges=(("a", "a"),))

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationConfigError, match="mode"):
            GroupsConfig(mode="psychic")

    def test_groups_require_exact_fidelity(self):
        # "exact" is the only fidelity; the removed fast-forward mode is
        # refused before groups are considered.
        with pytest.raises(SimulationConfigError, match="removed"):
            SimulationConfig.from_dict(
                {
                    "workload": _poisson_workload(),
                    "groups": _groups_section(),
                    "fidelity": "fastforward",
                }
            )


class TestGroupsExecution:
    def test_group_columns_declared(self):
        for column in (
            "group",
            "group_polls",
            "group_violations",
            "group_fidelity_by_violations",
            "group_fidelity_by_time",
        ):
            assert column in RESULT_COLUMNS

    def test_tree_run_emits_group_rows_per_node(self):
        outcome = run_simulation(
            SimulationConfig.from_dict(
                {
                    "workload": _poisson_workload(),
                    "policy": {"name": "limd", "params": {"delta": _DELTA}},
                    "topology": {
                        "kind": "tree",
                        "levels": [{"fan_out": 1}, {"fan_out": 2}],
                    },
                    "groups": _groups_section(),
                    "seed": 11,
                }
            )
        )
        group_rows = [
            row
            for row in outcome.results.to_records()
            if row.get("group") is not None
        ]
        # Explicit "pair" plus the b-c edge component, on all 3 nodes.
        assert len(group_rows) == 6
        assert {row["group"] for row in group_rows} == {"pair", "component-0"}
        assert {row["node"] for row in group_rows} == {
            "L0.N0",
            "L1.N0",
            "L1.N1",
        }
        for row in group_rows:
            assert row["group_polls"] >= 0
            assert 0.0 <= row["group_fidelity_by_time"] <= 1.0
            assert row.get("object") is None

    def test_builder_groups_fluent_path(self):
        outcome = (
            SimulationBuilder()
            .workload("poisson", "a", "b", rate_per_hour=12.0, hours=4.0)
            .policy("limd", delta=_DELTA)
            .groups([GroupConfig("pair", ("a", "b"), _DELTA)])
            .seed(3)
            .run()
        )
        groups = [
            row["group"]
            for row in outcome.results.to_records()
            if row.get("group") is not None
        ]
        assert groups == ["pair"]

    def test_unknown_member_rejected_at_run(self):
        config = SimulationConfig.from_dict(
            {
                "workload": _poisson_workload(),
                "groups": {
                    "groups": [
                        {
                            "group_id": "g",
                            "members": ["a", "ghost"],
                            "mutual_delta": _DELTA,
                        }
                    ]
                },
            }
        )
        with pytest.raises(SimulationConfigError, match="ghost"):
            run_simulation(config)


class TestTraceReplaySource:
    def _lines(self) -> list:
        return serialize_log(
            generate_synthetic_log(5, duration_s=1800.0)
        ).splitlines()

    def test_resolves_traces_in_object_order(self):
        config = WorkloadConfig(
            source="trace_replay",
            objects=("/news/front", "/index.html"),
            params={"lines": tuple(self._lines())},
        )
        traces = resolve_workload(config, seed=1)
        assert [str(t.object_id) for t in traces] == [
            "/news/front",
            "/index.html",
        ]
        assert all(t.start_time == 0.0 for t in traces)

    def test_needs_exactly_one_input(self):
        for params in ({}, {"path": "x.log", "lines": ()}):
            config = WorkloadConfig(
                source="trace_replay", objects=("/a",), params=params
            )
            with pytest.raises(SimulationConfigError, match="exactly one"):
                resolve_workload(config, seed=1)

    def test_unknown_param_rejected(self):
        config = WorkloadConfig(
            source="trace_replay",
            objects=("/a",),
            params={"lines": (), "speed": 2},
        )
        with pytest.raises(SimulationConfigError, match="speed"):
            resolve_workload(config, seed=1)

    def test_malformed_line_reported_with_line_number(self):
        config = WorkloadConfig(
            source="trace_replay",
            objects=("/a",),
            params={"lines": ("not a log line",)},
        )
        with pytest.raises(SimulationConfigError, match="line 1"):
            resolve_workload(config, seed=1)

    def test_missing_file_is_a_config_error(self):
        config = WorkloadConfig(
            source="trace_replay",
            objects=("/a",),
            params={"path": "/nonexistent/access.log"},
        )
        with pytest.raises(SimulationConfigError, match="cannot read"):
            resolve_workload(config, seed=1)

    def test_url_map_and_time_scale(self):
        config = WorkloadConfig(
            source="trace_replay",
            objects=("front",),
            params={
                "lines": tuple(self._lines()),
                "url_map": {"front": "/news/front"},
                "time_scale": 0.5,
            },
        )
        (trace,) = resolve_workload(config, seed=1)
        assert str(trace.object_id) == "front"
        full = resolve_workload(
            WorkloadConfig(
                source="trace_replay",
                objects=("/news/front",),
                params={"lines": tuple(self._lines())},
            ),
            seed=1,
        )[0]
        assert trace.end_time == pytest.approx(full.end_time * 0.5)
