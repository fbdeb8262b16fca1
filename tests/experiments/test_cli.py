"""Tests for the CLI."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7a_speedup" in out
        assert "table3_quantization" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "table2_workloads"]) == 0
        out = capsys.readouterr().out
        assert "Longformer" in out and "sparsity" in out

    def test_run_fast_flag(self, capsys):
        assert main(["run", "ablation_dataflow", "--fast"]) == 0
        assert "reuse_factor" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "bogus"]) == 2

    def test_serve_trace(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "8",
                    "--n", "64",
                    "--window", "8",
                    "--heads", "2",
                    "--head-dim", "4",
                    "--batch-size", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out and "speedup" in out

    def test_serve_uniform_no_baseline(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--requests", "4",
                    "--n", "64",
                    "--window", "8",
                    "--heads", "1",
                    "--head-dim", "8",
                    "--uniform",
                    "--no-baseline",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "requests completed   4" in out and "speedup" not in out

    def test_simulate_reports_classes_and_workers(self, capsys):
        """The acceptance shape: Poisson arrivals, 2 SLO classes, multiple
        workers, per-class percentiles + goodput + per-worker utilisation."""
        assert (
            main(
                [
                    "simulate",
                    "--workers", "2",
                    "--requests", "40",
                    "--n", "64",
                    "--window", "8",
                    "--heads", "2",
                    "--head-dim", "4",
                    "--policy", "edf",
                    "--seed", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "requests completed   40" in out
        assert "goodput" in out
        assert "class interactive" in out and "class bulk" in out
        assert "p50" in out and "p99" in out
        assert "worker 0: util" in out and "worker 1: util" in out

    def test_simulate_custom_slo_and_policy(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--workers", "2",
                    "--requests", "16",
                    "--n", "64",
                    "--window", "8",
                    "--head-dim", "4",
                    "--policy", "max-wait",
                    "--max-wait-ms", "0.1",
                    "--slo", "gold:1:0.3",
                    "--slo", "best-effort:none:0.7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "class gold" in out and "class best-effort" in out

    def test_simulate_bad_slo(self, capsys):
        assert main(["simulate", "--slo", "oops"]) == 2

    def test_simulate_overload_control_flags(self, capsys):
        """The overload path end to end: --rho, --drop-expired,
        --admission and --class-weights through the weighted-fair policy."""
        assert (
            main(
                [
                    "simulate",
                    "--workers", "2",
                    "--requests", "48",
                    "--n", "64",
                    "--window", "8",
                    "--heads", "2",
                    "--head-dim", "4",
                    "--policy", "weighted-fair",
                    "--class-weights", "interactive:3,bulk:1",
                    "--drop-expired",
                    "--admission", "est-wait",
                    "--rho", "1.5",
                    "--seed", "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "policy weighted-fair (drop-expired)" in out
        assert "admission est-wait" in out
        assert "requests submitted   48" in out
        assert "fairness (Jain)" in out

    def test_simulate_bad_class_weights(self, capsys):
        assert main(["simulate", "--policy", "weighted-fair", "--class-weights", "oops"]) == 2
        assert (
            main(["simulate", "--policy", "weighted-fair", "--class-weights", "a:0"]) == 2
        )
        # Weights without the weighted-fair policy would be silently
        # ignored — refuse instead.
        assert main(["simulate", "--policy", "edf", "--class-weights", "a:1"]) == 2
        assert main(["simulate", "--admission-depth", "0"]) == 2
        assert main(["simulate", "--admission-slack", "0"]) == 2
        assert main(["simulate", "--admission-wait-ms", "-1"]) == 2
        # NaN knobs must exit 2, not hang the DRR credit loop or crash.
        assert (
            main(["simulate", "--policy", "weighted-fair", "--class-weights", "a:nan"])
            == 2
        )
        assert main(["simulate", "--admission-slack", "nan"]) == 2
        assert main(["simulate", "--rho", "nan"]) == 2

    def test_simulate_unknown_class_weight_name_refused(self, capsys):
        """A typo'd class name must not silently fall back to the
        default weight while the user believes 3:1 is in force."""
        assert (
            main(
                [
                    "simulate",
                    "--requests", "8", "--n", "64", "--window", "8", "--head-dim", "4",
                    "--policy", "weighted-fair",
                    "--class-weights", "interctive:3,bulk:1",
                ]
            )
            == 2
        )
        assert "match no SLO class" in capsys.readouterr().err

    def test_simulate_rate_and_rho_conflict(self, capsys):
        assert main(["simulate", "--rate", "100", "--rho", "1.5"]) == 2
        assert main(["simulate", "--rho", "0"]) == 2
        assert main(["simulate", "--rate", "-5"]) == 2

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--heartbeat-interval-ms", "0"], "heartbeat_interval_s"),
            (["--heartbeat-timeout-ms", "-1"], "heartbeat_timeout_s"),
            (["--heartbeat-interval-ms", "nan"], "heartbeat_interval_s"),
            (["--max-retries", "-1"], "max_retries"),
            (["--breaker-threshold", "0"], "breaker_threshold"),
            (["--breaker-threshold", "1.5"], "breaker_threshold"),
            (["--breaker-threshold", "nan"], "breaker_threshold"),
            (["--breaker-min-samples", "0"], "breaker_min_samples"),
            (["--breaker-window", "2", "--breaker-min-samples", "4"], "breaker_window"),
            (["--breaker-cooldown-ms", "0"], "breaker_cooldown_s"),
            (["--breaker-cooldown-ms", "nan"], "breaker_cooldown_s"),
        ],
    )
    def test_simulate_bad_recovery_flags(self, capsys, flags, field):
        """The recovery flags are checked by ``RecoveryConfig`` itself —
        the message names the field, the exit code is 2."""
        assert main(["simulate", *flags]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["simulate", "--workers", "0"], "--workers"),
            (["simulate", "--requests", "0"], "num_requests"),
            (["simulate", "--n", "0"], "n must be"),
            (["simulate", "--window", "0"], "window"),
            (["simulate", "--heads", "0"], "heads"),
            (["simulate", "--arrival", "closed", "--clients", "0"], "clients"),
            (["simulate", "--arrival", "closed", "--think-ms", "-1"], "think_time_s"),
            (["simulate", "--policy", "size-latency", "--target-size", "0"], "target_size"),
            (["simulate", "--policy", "max-wait", "--max-wait-ms", "-1"], "max_wait_s"),
            (["simulate", "--policy", "max-wait", "--max-wait-ms", "nan"], "max_wait_s"),
            (["simulate", "--fault-seed", "-1", "--fault-transient", "0.1"], "seed"),
            (["simulate", "--seed", "-1"], "seed must be >= 0"),
            (["simulate", "--n", "12", "--window", "4"], "n >= 16"),
            (["simulate", "--n", "64", "--window", "65"], "window must be <= n"),
            (["simulate", "--slo", "a:nan:1"], "--slo"),
            # open-loop knobs a closed population would silently ignore
            (["simulate", "--arrival", "closed", "--rate", "100"], "--rate"),
            (["simulate", "--arrival", "closed", "--rho", "0.5"], "--rho"),
            (["serve", "--batch-size", "0"], "max_batch_size"),
            (["serve", "--requests", "0"], "num_requests"),
            (["serve", "--window", "0"], "window"),
            (["serve", "--seed", "-1"], "seed must be >= 0"),
            (["serve", "--n", "12", "--window", "4"], "n >= 16"),
            (["serve", "--n", "64", "--window", "65"], "window must be <= n"),
            (["serve", "--heads", "0"], "heads"),
            (["advise", "--workers", "0"], "workers"),
            (["advise", "--batch-size", "0"], "max_batch_size"),
            (["advise", "--top", "-1"], "--top"),
            (["decode", "--window", "-3"], "window"),
            (["decode", "--heads", "0"], "heads"),
            (["decode", "--head-dim", "0"], "head_dim"),
            # flags the chosen mode would silently ignore
            (["decode", "--fault-worker", "1"], "--fault-worker"),
            (["simulate", "--admission-rate", "5"], "--admission-rate"),
            (["decode", "--admission-rate", "5"], "--admission-rate"),
            (["simulate", "--admission-wait-ms", "5"], "--admission-wait-ms"),
            (["decode", "--no-shed-lagging", "--itl-shed-factor", "2"], "--itl-shed-factor"),
            (["simulate", "--admission-depth", "8"], "--admission-depth"),
            (["decode", "--admission-depth", "8"], "--admission-depth"),
            (["simulate", "--admission-slack", "0.9"], "--admission-slack"),
            (["decode", "--admission-slack", "0.5"], "--admission-slack"),
            (["simulate", "--fault-seed", "3"], "--fault-seed"),
            (["decode", "--fault-seed", "3"], "--fault-seed"),
            (["simulate", "--max-wait-ms", "1"], "--max-wait-ms"),
            (["simulate", "--policy", "max-wait", "--target-size", "2"], "--target-size"),
            (["simulate", "--clients", "4"], "--clients"),
            (["simulate", "--think-ms", "1"], "--think-ms"),
        ],
    )
    def test_bad_input_exits_2_naming_it(self, capsys, argv, needle):
        assert main(argv) == 2
        assert needle in capsys.readouterr().err

    def test_nan_max_wait_exits_instead_of_hanging(self):
        """A NaN re-check timer never fires past; the run never ended."""
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "simulate",
             "--policy", "max-wait", "--max-wait-ms", "nan"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 2
        assert "max_wait_s" in done.stderr and "Traceback" not in done.stderr

    def test_decode_reports_conservation_and_pacing(self, capsys):
        assert main(["decode", "--sequences", "8", "--global-token", "20"]) == 0
        out = capsys.readouterr().out
        assert "8 submitted = 8 completed" in out
        assert "TTFT" in out and "ITL" in out

    @pytest.mark.parametrize(
        "flags, needle",
        [
            # two active globals exceed the hardware bound of the step plan
            (["--global-token", "0", "--global-token", "20"], "global_tokens=(0, 20)"),
            (["--fault-transient", "0.1", "--fault-worker", "5"], "worker 5"),
        ],
    )
    def test_decode_refuses_bad_input_at_the_door(self, capsys, flags, needle):
        assert main(["decode", "--sequences", "8", *flags]) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert "decode cluster report" not in captured.out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSimulateBackendScaling:
    def test_simulate_threads_backend_into_deadline_scaling(self, capsys, monkeypatch):
        """Regression: `simulate --backend dense` must scale its SLO
        budgets from the dense cost model (the same one its workers
        charge service with), not from a default SALO estimator."""
        import repro.cluster as cluster

        seen = {}
        real = cluster.service_scales

        def spy(spec, clock, full_batch=8, backend="functional"):
            seen["backend"] = backend
            return real(spec, clock, full_batch=full_batch, backend=backend)

        monkeypatch.setattr(cluster, "service_scales", spy)
        assert (
            main(
                [
                    "simulate",
                    "--backend", "dense",
                    "--workers", "2",
                    "--requests", "20",
                    "--n", "64",
                    "--window", "8",
                    "--heads", "2",
                    "--head-dim", "4",
                    "--seed", "0",
                ]
            )
            == 0
        )
        assert seen["backend"] == "dense"
        assert "requests completed" in capsys.readouterr().out

    def test_measured_probe_times_the_simulated_backend(self, capsys, monkeypatch):
        """Regression: `simulate --measured --backend dense` must time its
        auto rate and SLO budgets on the dense engine its workers run,
        not on a default SALO."""
        from repro.api.backends import DenseOracleBackend
        from repro.core.salo import SALO

        engines = []
        for cls in (SALO, DenseOracleBackend):
            def spy(self, *args, _attend=cls.attend, **kwargs):
                engines.append(type(self).__name__)
                return _attend(self, *args, **kwargs)

            monkeypatch.setattr(cls, "attend", spy)
        argv = ["simulate", "--measured", "--backend", "dense", "--workers", "1",
                "--requests", "8", "--n", "64", "--window", "8", "--heads", "2",
                "--head-dim", "4", "--seed", "0"]
        assert main(argv) == 0
        assert "requests completed   8" in capsys.readouterr().out
        assert engines and set(engines) == {"DenseOracleBackend"}


# Every subcommand's actions as parsed (help text excluded): a refactor of
# how the flags are declared must leave this list exactly as it is.
_SURFACE = {
    'list': [
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
    ],
    'engines': [
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
        "action dest='action' choices=['list'] _StoreAction",
    ],
    'run': [
        "--backend dest='backend' _StoreAction",
        "--fast dest='fast' default=False nargs=0 _StoreTrueAction",
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
        "experiment dest='experiment' _StoreAction",
    ],
    'all': [
        "--fast dest='fast' default=False nargs=0 _StoreTrueAction",
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
    ],
    'serve': [
        "--backend dest='backend' default='functional' _StoreAction",
        "--batch-size dest='batch_size' default=8 type='int' _StoreAction",
        "--head-dim dest='head_dim' default=8 type='int' _StoreAction",
        "--heads dest='heads' default=2 type='int' _StoreAction",
        "--json dest='json' default=False nargs=0 _StoreTrueAction",
        "--n dest='n' default=256 type='int' _StoreAction",
        "--no-baseline dest='no_baseline' default=False nargs=0 _StoreTrueAction",
        "--requests dest='requests' default=64 type='int' _StoreAction",
        "--seed dest='seed' default=0 type='int' _StoreAction",
        "--uniform dest='uniform' default=False nargs=0 _StoreTrueAction",
        "--window dest='window' default=32 type='int' _StoreAction",
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
    ],
    'simulate': [
        "--admission dest='admission' default='admit-all'"
            " choices=['admit-all', 'queue-depth', 'est-wait', 'token-bucket'] _StoreAction",
        "--admission-depth dest='admission_depth' default=64 type='int' _StoreAction",
        "--admission-rate dest='admission_rate' type='float' _StoreAction",
        "--admission-slack dest='admission_slack' default=0.5 type='float' _StoreAction",
        "--admission-wait-ms dest='admission_wait_ms' type='float' _StoreAction",
        "--arrival dest='arrival' default='poisson'"
            " choices=['poisson', 'bursty', 'closed'] _StoreAction",
        "--backend dest='backend' default='functional' _StoreAction",
        "--batch-size dest='batch_size' default=8 type='int' _StoreAction",
        "--breaker-cooldown-ms dest='breaker_cooldown_ms' default=2.0 type='float' _StoreAction",
        "--breaker-min-samples dest='breaker_min_samples' default=4 type='int' _StoreAction",
        "--breaker-threshold dest='breaker_threshold' type='float' metavar='RATE' _StoreAction",
        "--breaker-window dest='breaker_window' default=8 type='int' _StoreAction",
        "--class-weights dest='class_weights' metavar='NAME:W[,NAME:W...]' _StoreAction",
        "--clients dest='clients' default=16 type='int' _StoreAction",
        "--drop-expired dest='drop_expired' default=False nargs=0 _StoreTrueAction",
        "--fault-crash dest='fault_crash' metavar='WID:AT_MS[:DOWN_MS]' _AppendAction",
        "--fault-seed dest='fault_seed' default=0 type='int' _StoreAction",
        "--fault-straggler dest='fault_straggler' metavar='WID:START_MS:DUR_MS:FACTOR' _AppendAction",
        "--fault-transient dest='fault_transient' type='float' metavar='PROB' _StoreAction",
        "--head-dim dest='head_dim' default=8 type='int' _StoreAction",
        "--heads dest='heads' default=2 type='int' _StoreAction",
        "--heartbeat-interval-ms dest='heartbeat_interval_ms' default=1.0 type='float' _StoreAction",
        "--heartbeat-timeout-ms dest='heartbeat_timeout_ms' default=2.0 type='float' _StoreAction",
        "--json dest='json' default=False nargs=0 _StoreTrueAction",
        "--length-weighted dest='length_weighted' default=False nargs=0 _StoreTrueAction",
        "--max-retries dest='max_retries' default=3 type='int' _StoreAction",
        "--max-wait-ms dest='max_wait_ms' default=0.2 type='float' _StoreAction",
        "--measured dest='measured' default=False nargs=0 _StoreTrueAction",
        "--n dest='n' default=256 type='int' _StoreAction",
        "--no-requeue dest='no_requeue' default=False nargs=0 _StoreTrueAction",
        "--no-steal dest='no_steal' default=False nargs=0 _StoreTrueAction",
        "--pad dest='pad' default=False nargs=0 _StoreTrueAction",
        "--policy dest='policy' default='greedy-fifo'"
            " choices=['greedy-fifo', 'max-wait', 'size-latency', 'edf', 'weighted-fair'] _StoreAction",
        "--rate dest='rate' type='float' _StoreAction",
        "--requests dest='requests' default=200 type='int' _StoreAction",
        "--rho dest='rho' type='float' _StoreAction",
        "--seed dest='seed' default=0 type='int' _StoreAction",
        "--slo dest='slo' metavar='NAME:DEADLINE_MS:SHARE' _AppendAction",
        "--target-size dest='target_size' default=4 type='int' _StoreAction",
        "--think-ms dest='think_ms' default=0.1 type='float' _StoreAction",
        "--uniform dest='uniform' default=False nargs=0 _StoreTrueAction",
        "--window dest='window' default=32 type='int' _StoreAction",
        "--workers dest='workers' default=2 type='int' _StoreAction",
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
    ],
    'advise': [
        "--ablate-top dest='ablate_top' default=3 type='int' _StoreAction",
        "--admission dest='admission' default=['admit-all', 'est-wait']"
            " choices=['admit-all', 'queue-depth', 'est-wait'] nargs='+' _StoreAction",
        "--backend dest='backend' default='functional' _StoreAction",
        "--batch-size dest='batch_size' default=[8] type='int' nargs='+' _StoreAction",
        "--cache dest='cache' metavar='DIR' _StoreAction",
        "--json dest='json' default=False nargs=0 _StoreTrueAction",
        "--out dest='out' metavar='DIR' _StoreAction",
        "--policy dest='policy' default=['greedy-fifo', 'edf', 'weighted-fair']"
            " choices=['greedy-fifo', 'max-wait', 'size-latency', 'edf', 'weighted-fair'] nargs='+' _StoreAction",
        "--top dest='top' type='int' _StoreAction",
        "--traffic dest='traffic' metavar='FILE' _StoreAction",
        "--workers dest='workers' default=[1, 2, 4] type='int' nargs='+' _StoreAction",
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
    ],
    'decode': [
        "--admission dest='admission' default='admit-all'"
            " choices=['admit-all', 'queue-depth', 'est-wait', 'token-bucket'] _StoreAction",
        "--admission-depth dest='admission_depth' default=64 type='int' _StoreAction",
        "--admission-rate dest='admission_rate' type='float' _StoreAction",
        "--admission-slack dest='admission_slack' default=1.0 type='float' _StoreAction",
        "--fault-seed dest='fault_seed' default=0 type='int' _StoreAction",
        "--fault-transient dest='fault_transient' type='float' metavar='PROB' _StoreAction",
        "--fault-worker dest='fault_worker' type='int' metavar='WID' _StoreAction",
        "--global-token dest='global_token' type='int' metavar='POS' _AppendAction",
        "--head-dim dest='head_dim' default=8 type='int' _StoreAction",
        "--heads dest='heads' default=2 type='int' _StoreAction",
        "--itl-shed-factor dest='itl_shed_factor' type='float' _StoreAction",
        "--max-lanes dest='max_lanes' default=8 type='int' _StoreAction",
        "--max-new-tokens dest='max_new_tokens' default=64 type='int' _StoreAction",
        "--max-retries dest='max_retries' default=3 type='int' _StoreAction",
        "--mean-new-tokens dest='mean_new_tokens' default=16.0 type='float' _StoreAction",
        "--no-shed-lagging dest='no_shed_lagging' default=False nargs=0 _StoreTrueAction",
        "--prompt-max dest='prompt_max' default=48 type='int' _StoreAction",
        "--prompt-min dest='prompt_min' default=4 type='int' _StoreAction",
        "--rate dest='rate' default=2000.0 type='float' _StoreAction",
        "--seed dest='seed' default=0 type='int' _StoreAction",
        "--sequences dest='sequences' default=64 type='int' _StoreAction",
        "--slo dest='slo' metavar='NAME:TTFT_MS:ITL_MS:SHARE' _AppendAction",
        "--window dest='window' default=8 type='int' _StoreAction",
        "--workers dest='workers' default=2 type='int' _StoreAction",
        "-h/--help dest='help' default='==SUPPRESS==' nargs=0 _HelpAction",
    ],
}


def _surface_row(action):
    fields = {
        "dest": action.dest,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "metavar": action.metavar,
    }
    return " ".join(
        ["/".join(action.option_strings) or action.dest]
        + [f"{key}={value!r}" for key, value in fields.items() if value is not None]
        + [type(action).__name__]
    )


def test_flag_surface_is_pinned(monkeypatch):
    """Option strings, dest, default, type, choices, nargs, metavar and
    action class of every subcommand's flags, against the literal above."""
    built = []

    class Parsed(Exception):
        pass

    def capture(parser, *args, **kwargs):
        built.append(parser)
        raise Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(Parsed):
        main(["list"])
    (parser,) = built
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: sorted(_surface_row(action) for action in sub._actions)
        for name, sub in commands.choices.items()
    }
    assert surface == _SURFACE
