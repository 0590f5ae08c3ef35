"""CSV round trips, JSON determinism, CLI subcommands and exit codes."""

import argparse
import csv
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import issparse
from scipy.sparse.linalg import ArpackError

from nwbackfit import cli, simulate
from nwbackfit.cli import build_parser, main
from nwbackfit.fitting import FitResult, backfit_direct
from nwbackfit.io import (
    CURVES_HEADER,
    DATASET_HEADER,
    DatasetFormatError,
    dumps_report,
    read_dataset_csv,
    read_fit_curves_csv,
    write_dataset_csv,
    write_fit_curves_csv,
    write_json_report,
    write_replicate_rows_csv,
)
from nwbackfit.kernels import ConstantBandwidth, Kernel, RateBandwidth, parse_bandwidth
from nwbackfit.simulate import ReplicateRow, SimSpec, generate, run_monte_carlo
from nwbackfit.smoothers import Dataset, build_pair, build_smoother, pair_storage

from conftest import two_cluster_dataset


@pytest.fixture
def sample_csv(tmp_path):
    data = generate(SimSpec(n=40, noise_sd=0.2, seed=110))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, data)
    return path, data


@pytest.fixture
def cluster_csv(tmp_path):
    rng = np.random.default_rng(7)
    data = two_cluster_dataset(rng, spread=0.5)
    path = tmp_path / "clusters.csv"
    write_dataset_csv(path, data)
    return path


# both CSV readers with their headers; the format checks are shared
READERS = [(read_dataset_csv, DATASET_HEADER), (read_fit_curves_csv, CURVES_HEADER)]


def csv_text(header, *rows):
    return "".join(",".join(fields) + "\n" for fields in (header, *rows))


class TestDatasetCsv:
    def test_round_trip_bit_exact(self, sample_csv):
        path, data = sample_csv
        back = read_dataset_csv(path)
        assert np.array_equal(back.y, data.y)
        assert np.array_equal(back.u, data.u)
        assert np.array_equal(back.v, data.v)

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        for read, header in READERS:
            ones = ["1.0"] * len(header)
            p.write_text(csv_text(header[::-1], ones, ones))
            with pytest.raises(DatasetFormatError, match="header .*, got"):
                read(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        for read, _ in READERS:
            with pytest.raises(DatasetFormatError, match="<empty file>"):
                read(p)

    def test_non_numeric_field_cites_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        for read, header in READERS:
            ones = ["1.0"] * len(header)
            p.write_text(csv_text(header, ones, ["1.0", "oops", *ones[2:]]))
            with pytest.raises(DatasetFormatError, match=":3: non-numeric"):
                read(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        for read, header in READERS:
            ones = ["1.0"] * len(header)
            p.write_text(csv_text(header, ones, ["nan", *ones[1:]]))
            with pytest.raises(DatasetFormatError, match=":3: non-finite"):
                read(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        for read, header in READERS:
            p.write_text(csv_text(header, ["1.0"] * (len(header) - 1)))
            with pytest.raises(DatasetFormatError, match=":2: expected"):
                read(p)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("y,u,v\n1.0,2.0,3.0\n")
        with pytest.raises(DatasetFormatError):
            read_dataset_csv(p)


class TestCurvesCsv:
    def test_round_trip_reproduces_fit_exactly(self, tmp_path):
        data = generate(SimSpec(n=35, seed=111))
        bw = RateBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        fit = backfit_direct(pair, data.y)
        p = tmp_path / "curves.csv"
        write_fit_curves_csv(p, data, fit)
        cols = read_fit_curves_csv(p)
        assert np.array_equal(cols["m1_hat"], fit.m1_hat)
        assert np.array_equal(cols["m2_hat"], fit.m2_hat)
        assert np.array_equal(cols["u"], data.u)
        assert np.array_equal(cols["v"], data.v)
        assert np.array_equal(cols["y"], data.y)
        assert np.array_equal(cols["residual"], fit.residuals(data.y))
        assert list(cols["index"]) == list(range(35))

    def test_length_mismatch_rejected(self, tmp_path):
        data = generate(SimSpec(n=10, seed=112))
        other = generate(SimSpec(n=12, seed=113))
        bw = RateBandwidth(0.2)
        pair = build_pair(other, Kernel.GAUSSIAN, bw, bw)
        fit = backfit_direct(pair, other.y)
        with pytest.raises(ValueError):
            write_fit_curves_csv(tmp_path / "c.csv", data, fit)


class TestReplicateRowsCsv:
    def test_blank_for_unset_fields(self, tmp_path):
        spec = SimSpec(n=20, seed=114)
        from nwbackfit.kernels import ConstantBandwidth

        bw = ConstantBandwidth(0.5)
        rep = run_monte_carlo(
            spec, Kernel.UNIFORM, bw, bw, replicates=3, certify_replicates=False
        )
        p = tmp_path / "rows.csv"
        write_replicate_rows_csv(p, rep.rows)
        lines = p.read_text().splitlines()
        assert lines[0] == "replicate,max_gap_u,max_gap_v,gap_ok,certified,rho_product"
        assert len(lines) == 4
        assert lines[1].endswith(",,")  # certified and rho blank


class TestCsvBytes:
    def test_writers_match_csv_module_reference(self, tmp_path):
        # every table is byte-identical to csv.writer fed repr(float(...))
        # per element, also on signed zero, the smallest subnormal and a
        # value near the largest double
        extremes = [-0.0, 5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0, 2.0**60]
        y = np.array(extremes[::-1])
        u = np.array(extremes)
        v = np.roll(u, 3)
        data = Dataset(y=y, u=u, v=v)
        fit = FitResult(
            alpha_hat=-0.0,
            m1_hat=0.25 * np.roll(u, 1),
            m2_hat=-0.25 * np.roll(u, 2),
            method="direct",
            sweep=None,
            iterations=0,
            final_delta=0.0,
            residual_normal_eq=0.0,
        )
        rows = [
            ReplicateRow(0, -0.0, 5e-324, True, None, None),
            ReplicateRow(1, 1e308, 0.25, False, False, 1.0 - 1e-16),
            ReplicateRow(2, 0.5, 0.5, True, True, 5e-324),
        ]

        def reference(path, header, table):
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(table)
            return path.read_bytes()

        write_dataset_csv(tmp_path / "data.csv", data)
        assert (tmp_path / "data.csv").read_bytes() == reference(
            tmp_path / "ref_data.csv",
            ["y", "u", "v"],
            ([repr(float(a)), repr(float(b)), repr(float(c))] for a, b, c in zip(y, u, v)),
        )
        write_fit_curves_csv(tmp_path / "curves.csv", data, fit)
        resid = fit.residuals(y)
        assert (tmp_path / "curves.csv").read_bytes() == reference(
            tmp_path / "ref_curves.csv",
            ["index", "u", "m1_hat", "v", "m2_hat", "y", "residual"],
            (
                [i, *(repr(float(c[i])) for c in (u, fit.m1_hat, v, fit.m2_hat, y, resid))]
                for i in range(len(y))
            ),
        )
        write_replicate_rows_csv(tmp_path / "rows.csv", rows)
        flag = {None: "", True: "true", False: "false"}
        assert (tmp_path / "rows.csv").read_bytes() == reference(
            tmp_path / "ref_rows.csv",
            ["replicate", "max_gap_u", "max_gap_v", "gap_ok", "certified", "rho_product"],
            (
                [
                    r.replicate,
                    repr(r.max_gap_u),
                    repr(r.max_gap_v),
                    flag[r.gap_ok],
                    flag[r.certified],
                    "" if r.rho_product is None else repr(r.rho_product),
                ]
                for r in rows
            ),
        )


class TestJsonReports:
    def test_sorted_and_stable(self, tmp_path):
        obj = {"b": 1, "a": {"z": [1, 2], "y": 0.5}}
        s = dumps_report(obj)
        assert s.index('"a"') < s.index('"b"')
        p = tmp_path / "r.json"
        write_json_report(p, obj)
        assert p.read_text() == s
        assert json.loads(s) == obj

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dumps_report({"x": float("inf")})
        # the report is serialized before its file is opened
        p = tmp_path / "r.json"
        p.write_text("kept\n")
        with pytest.raises(ValueError):
            write_json_report(p, {"x": float("nan")})
        assert p.read_text() == "kept\n"


class TestCliFit:
    def test_fit_emits_reports(self, sample_csv, tmp_path):
        path, data = sample_csv
        out = tmp_path / "out"
        rc = main(["fit", "--input", str(path), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["provenance"]["package"] == "nwbackfit"
        assert report["certificate"]["verdict"] == "certified_by_gap_conditions"
        # both smoothers are regular, so rho(S*) < 1 for each, as null
        assert report["certificate"]["spectral"]["rho_s1_star"] is None
        assert report["certificate"]["spectral"]["rho_s2_star"] is None
        assert "smoother_iterations" not in report["certificate"]["spectral"]
        cols = read_fit_curves_csv(out / "curves.csv")
        # JSON floats round-trip through repr, so agreement is exact
        assert np.array_equal(cols["m1_hat"], np.array(report["fit"]["m1_hat"]))

    def test_rate_bandwidth_of_a_huge_coordinate(self, sample_csv, tmp_path):
        # u's squared deviations overflow at u * 2^600, but its sd does not,
        # and the power of two scales the sd and h exactly: S1 is the same
        # matrix, so the fit and its certificate are the same bits
        path, data = sample_csv
        huge = tmp_path / "huge.csv"
        write_dataset_csv(huge, Dataset(y=data.y, u=np.ldexp(data.u, 600), v=data.v))
        reports = []
        for source, name in ((path, "unit"), (huge, "huge")):
            assert main(["fit", "--input", str(source), "--out", str(tmp_path / name)]) == 0
            reports.append(json.loads((tmp_path / name / "fit.json").read_text()))
        want, got = reports
        assert got["certificate"]["verdict"] == want["certificate"]["verdict"]
        rho = [r["certificate"]["spectral"]["rho_product"] for r in (want, got)]
        assert rho[1] == rho[0]
        for key in ("m1_hat", "m2_hat"):
            assert got["fit"][key] == want["fit"][key], key

    def test_fit_round_trip_matches_in_memory(self, sample_csv, tmp_path):
        path, data = sample_csv
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--out", str(out), "--solver", "direct"]) == 0
        bw = RateBandwidth(0.2)
        pair = build_pair(data, Kernel.GAUSSIAN, bw, bw)
        fit = backfit_direct(pair, data.y)
        cols = read_fit_curves_csv(out / "curves.csv")
        assert np.array_equal(cols["m1_hat"], fit.m1_hat)
        assert np.array_equal(cols["m2_hat"], fit.m2_hat)

    def test_constant_response(self, tmp_path):
        n = 20
        rng = np.random.default_rng(115)
        u = rng.uniform(0.0, 1.0, n)
        v = rng.uniform(0.0, 1.0, n)
        p = tmp_path / "const.csv"
        rows = "".join(f"7.5,{float(ui)!r},{float(vi)!r}\n" for ui, vi in zip(u, v))
        p.write_text("y,u,v\n" + rows)
        out = tmp_path / "out"
        assert main(["fit", "--input", str(p), "--out", str(out)]) == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["fit"]["alpha_hat"] == pytest.approx(7.5)
        assert np.abs(np.array(report["fit"]["m1_hat"])).max() <= 1e-10
        assert np.abs(np.array(report["fit"]["m2_hat"])).max() <= 1e-10

    def test_byte_identical_reruns(self, sample_csv, tmp_path):
        path, _ = sample_csv
        out = tmp_path / "out"
        args = ["fit", "--input", str(path), "--out", str(out)]
        assert main(args) == 0
        first = (out / "fit.json").read_bytes(), (out / "curves.csv").read_bytes()
        assert main(args) == 0
        second = (out / "fit.json").read_bytes(), (out / "curves.csv").read_bytes()
        assert first == second


class TestCliExitCodes:
    def test_parse_error_missing_file(self, tmp_path):
        assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_parse_error_malformed(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,u\n1,2\n")
        assert main(["certify", "--input", str(p)]) == 2

    def test_parse_error_bad_bandwidth(self, sample_csv):
        path, _ = sample_csv
        assert main(["certify", "--input", str(path), "--bandwidth", "rate:7"]) == 2

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--tol=inf", "tol must be positive"),
            ("--tol=nan", "tol must be positive"),
            ("--tol=0", "tol must be positive"),
            ("--tol=-1e-10", "tol must be positive"),
            ("--max-iter=0", "max_iter must be >= 1"),
        ],
        ids=["inf", "nan", "0", "-1e-10", "max-iter-0"],
    )
    def test_parse_error_bad_tol(self, sample_csv, tmp_path, capsys, monkeypatch, flag, message):
        # the stop rule is checked before the CSV is read, under either solver
        path, _ = sample_csv

        def refused(*args, **kwargs):
            raise AssertionError("the CSV was read before the stop rule was checked")

        monkeypatch.setattr(cli, "read_dataset_csv", refused)
        for solver in ("iterative", "direct"):
            out = tmp_path / solver
            argv = ["fit", "--input", str(path), flag, "--solver", solver, "--out", str(out)]
            assert main(argv) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["fit", "certify"])
    def test_seed_only_on_simulate(self, sample_csv, tmp_path, subcommand):
        # fit and certify draw nothing at random, so they take no --seed
        path, _ = sample_csv
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--input", str(path), "--out", str(tmp_path), "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--noise-sd", "--m1-fn", "--m2-fn", "--alpha"])
    def test_no_response_flags_on_simulate(self, tmp_path, flag):
        # the study reports only what the design decides, so y takes no options
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "30", "--out", str(tmp_path), flag, "1"])
        assert exc.value.code == 2

    def test_rho_needs_the_normal_design(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--n", "30", "--design", "uniform", "--rho", "0.5",
                   "--out", str(out)])
        assert rc == 2
        assert "--design normal" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["fit", "certify", "simulate"])
    def test_no_method_flag(self, sample_csv, tmp_path, subcommand):
        # rho(S2* S1*) always comes from ARPACK with its dense fallback
        path, _ = sample_csv
        source = ["--n", "30"] if subcommand == "simulate" else ["--input", str(path)]
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *source, "--out", str(tmp_path), "--method", "dense"])
        assert exc.value.code == 2

    def test_non_convergence(self, tmp_path):
        rng = np.random.default_rng(11)
        data = two_cluster_dataset(rng, spread=0.8)
        p = tmp_path / "c.csv"
        write_dataset_csv(p, data)
        rc = main(
            [
                "fit", "--input", str(p), "--kernel", "triangular",
                "--bandwidth", "1.0", "--max-iter", "300",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 3

    def test_not_certified_strict_certify(self, cluster_csv, tmp_path):
        rc = main(
            [
                "certify", "--input", str(cluster_csv), "--kernel", "uniform",
                "--bandwidth", "1.0", "--require-certificate",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 4
        # without the strict flag the verdict is reported with success
        rc2 = main(
            [
                "certify", "--input", str(cluster_csv), "--kernel", "uniform",
                "--bandwidth", "1.0", "--out", str(tmp_path / "out2"),
            ]
        )
        assert rc2 == 0
        report = json.loads((tmp_path / "out2" / "certificate.json").read_text())
        assert report["certificate"]["verdict"] == "not_certified"

    def test_not_certified_strict_fit(self, cluster_csv, tmp_path):
        rc = main(
            [
                "fit", "--input", str(cluster_csv), "--kernel", "uniform",
                "--bandwidth", "1.0", "--require-certificate",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 4

    @pytest.mark.parametrize("subcommand", ["fit", "certify"])
    def test_out_of_memory(self, sample_csv, tmp_path, monkeypatch, capsys, subcommand):
        path, data = sample_csv

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 12.8 KiB for an array with shape (40, 40)")

        monkeypatch.setattr("nwbackfit.cli.build_pair", exhausted)
        rc = main([subcommand, "--input", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: n=40 needs one 40 x 40 array for both smoothers")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_out_of_memory_names_csr_smoothers(self, sample_csv, tmp_path, monkeypatch, capsys):
        path, data = sample_csv

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 0.1 KiB for an array with shape (12,)")

        monkeypatch.setattr("nwbackfit.cli.build_pair", exhausted)
        monkeypatch.setattr("nwbackfit.smoothers.CSR_MAX_FILL", 1.0)
        rc = main(
            [
                "fit", "--input", str(path), "--kernel", "epanechnikov",
                "--bandwidth", "knn:3", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: n=40 needs ")
        assert "for its smoother matrices (S1 CSR, S2 CSR)" in err
        assert "40 x 40" not in err

    def test_out_of_memory_names_window_smoothers(self, sample_csv, tmp_path, monkeypatch, capsys):
        path, data = sample_csv

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 0.3 KiB for an array with shape (40,)")

        monkeypatch.setattr("nwbackfit.cli.build_pair", exhausted)
        rc = main(
            [
                "fit", "--input", str(path), "--kernel", "uniform",
                "--bandwidth", "0.3", "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        # six index arrays and two float count arrays of n = 40: 2560 bytes
        assert err.startswith(
            "error: out of memory: n=40 needs 2.56e-06 GB for the sort orders and windows of both smoothers"
        )
        assert "40 x 40" not in err

    def test_lapack_failure_names_the_solver(self, sample_csv, tmp_path, monkeypatch, capsys):
        # ARPACK fails, so the product's radius falls back to eigvals of
        # the formed S2* S1*, and LAPACK fails there too
        path, _ = sample_csv

        def arpack_fails(*args, **kwargs):
            raise ArpackError(-9999)

        def lapack_fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("nwbackfit.spectral.eigs", arpack_fails)
        monkeypatch.setattr(np.linalg, "eigvals", lapack_fails)
        rc = main(["certify", "--input", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: solver failure: LAPACK eigenvalue solver (numpy.linalg.eigvals) failed "
            "on the formed 40 x 40 S2* S1*: Eigenvalues did not converge\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kernel", ["uniform", "gaussian"])
    def test_overflowing_bandwidth(self, sample_csv, tmp_path, capsys, kernel):
        # K(0)/h overflows to inf at h = 1e-320, so every weight would be
        # inf/inf = NaN; the build names the first such row
        path, _ = sample_csv
        out = tmp_path / "out"
        rc = main(
            ["fit", "--input", str(path), "--kernel", kernel, "--bandwidth", "1e-320",
             "--out", str(out)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 0 has non-finite total kernel mass (inf)")
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth", ["rate:0.2", "0.5"])
    def test_coordinate_wider_than_a_float(self, sample_csv, tmp_path, capsys, bandwidth):
        # u_max - u_min = 2e308 is no float, so no smoother can read u's
        # differences: the build refuses u before any of them overflows
        path, data = sample_csv
        u = data.u.copy()
        u[data.sort_u[0]], u[data.sort_u[-1]] = -1e308, 1e308
        wide = tmp_path / "wide.csv"
        write_dataset_csv(wide, Dataset(y=data.y, u=u, v=data.v))
        out = tmp_path / "out"
        rc = main(["certify", "--input", str(wide), "--bandwidth", bandwidth, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: u spans [-1e+308, 1e+308]")
        assert not out.exists()

    def test_singular_system(self, tmp_path):
        rng = np.random.default_rng(11)
        data = two_cluster_dataset(rng, spread=0.8)
        p = tmp_path / "c.csv"
        write_dataset_csv(p, data)
        rc = main(
            [
                "fit", "--input", str(p), "--kernel", "triangular",
                "--bandwidth", "1.0", "--solver", "direct",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 5


class TestCliCertify:
    def test_report_contents(self, sample_csv, tmp_path):
        path, _ = sample_csv
        out = tmp_path / "out"
        assert main(["certify", "--input", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "certificate.json").read_text())
        cert = report["certificate"]
        assert cert["gap_u"]["condition_holds"] and cert["gap_v"]["condition_holds"]
        assert cert["regular_s1"] and cert["regular_s2"]
        assert cert["spectral"]["rho_product"] < 1.0
        assert cert["spectral"]["top_eigenvalue_simple"] is True
        # the CLI always takes the matrix-free ARPACK route, with no option
        assert "method" not in report["provenance"]["config"]["options"]
        assert cert["spectral"]["method"] == "power"
        assert cert["spectral"]["fallback"] is None
        assert cert["spectral"]["rho_s1_star"] is None and cert["spectral"]["rho_s2_star"] is None
        assert "smoother_fallback" not in cert["spectral"]
        # the spectral block's schema, in certificate.json and in fit.json's
        # certificate: a field added or dropped must be made here as well
        assert main(["fit", "--input", str(path), "--out", str(out)]) == 0
        fit_cert = json.loads((out / "fit.json").read_text())["certificate"]
        keys = {
            "rho_s1_star", "rho_s2_star", "rho_product", "top_eigenvalue_simple", "method",
            "iterations", "fallback",
        }
        for spectral in (cert["spectral"], fit_cert["spectral"]):
            assert set(spectral) == keys
        # the gap reports carry the check's result, not the n - 1 gaps
        # that restate the input
        gap_keys = {"coordinate", "max_gap", "condition_holds", "failing_indices"}
        for c in (cert, fit_cert):
            assert set(c["gap_u"]) == set(c["gap_v"]) == gap_keys
        # a per-point list would take this n = 40 report past 2 KB
        assert (out / "certificate.json").stat().st_size < 2048

    def _certificate(self, tmp_path, name, data, *flags):
        path = tmp_path / f"{name}.csv"
        write_dataset_csv(path, data)
        out = tmp_path / name
        assert main(["certify", "--input", str(path), *flags, "--out", str(out)]) == 0
        return json.loads((out / "certificate.json").read_text())["certificate"]

    def test_bandwidth_at_the_float_range(self, sample_csv, tmp_path):
        # with u in [0, 1e308] and h = 1e308, the window edges u_i + h
        # overflow to inf, which still bound every window; every pair is
        # in range, as on the unscaled sample at h = 1
        _, data = sample_csv
        u = data.u.copy()
        u[data.sort_u[0]], u[data.sort_u[-1]] = 0.0, 1.0
        unit = Dataset(y=data.y, u=u, v=data.v)
        wide = Dataset(y=data.y, u=u * 1e308, v=data.v)
        want = self._certificate(tmp_path, "unit", unit, "--kernel", "uniform", "--bandwidth", "1")
        got = self._certificate(tmp_path, "wide", wide, "--kernel", "uniform", "--bandwidth", "1e308")
        assert got["verdict"] == want["verdict"]
        assert got["spectral"] == want["spectral"]

    def test_sparse_windows_at_the_float_range(self, tmp_path):
        # sparse windows of points near the largest float, where u_i + h
        # overflows: scaling the sample and h by 2^1023 is exact, so the
        # certificate is the unscaled one
        rng = np.random.default_rng(5)
        u, v = rng.uniform(0.0, 1.99, (2, 200))
        u[0] = 1.99
        x = Dataset(y=rng.normal(size=200), u=u, v=v)
        big = Dataset(y=x.y, u=np.ldexp(u, 1023), v=np.ldexp(v, 1023))
        h = float(np.ldexp(0.04, 1023))
        assert float(big.u.max()) + h == np.inf
        bw = ConstantBandwidth(h)
        assert pair_storage(big, Kernel.UNIFORM, bw, bw)[:2] == ("window", "window")
        # the CSR build of the same coordinate weighs the points the
        # window smoother does
        csr = build_smoother(big.u, Kernel.UNIFORM, bw)
        assert issparse(csr)
        window = build_pair(big, Kernel.UNIFORM, bw, bw).s1 > 0.0
        assert (window != (csr > 0.0)).nnz == 0
        want = self._certificate(tmp_path, "unit", x, "--kernel", "uniform", "--bandwidth", "0.04")
        got = self._certificate(tmp_path, "big", big, "--kernel", "uniform", "--bandwidth", repr(h))
        assert got["verdict"] == want["verdict"]
        assert got["spectral"] == want["spectral"]


class TestBenchmarkContract:
    def test_every_certify_call_passes_method_by_keyword(self, sample_csv, tmp_path, monkeypatch):
        # bench/tracing.py:84 counts a certificate as a power attempt only
        # when its call passes method="power" by keyword; without it
        # spectral.power_attempts silently reads 0.  The keyword goes with
        # ROADMAP item 1, and this test with it
        calls = []

        def recording(certify):
            def wrapper(*args, **kwargs):
                calls.append((len(args), kwargs.get("method")))
                return certify(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(cli, "certify", recording(cli.certify))
        monkeypatch.setattr(simulate, "certify", recording(simulate.certify))
        path, _ = sample_csv
        for subcommand in ("fit", "certify"):
            assert main([subcommand, "--input", str(path), "--out", str(tmp_path)]) == 0
        bw = RateBandwidth(0.3)
        run_monte_carlo(SimSpec(n=30, seed=1), Kernel.GAUSSIAN, bw, bw, replicates=3)
        assert calls == [(5, "power")] * 5

    @pytest.mark.parametrize(
        "kernel, bandwidth, layout",
        [
            (Kernel.GAUSSIAN, "knn:5", "dense"),
            (Kernel.EPANECHNIKOV, "0.02", "CSR"),
            (Kernel.GAUSSIAN, "rate:0.2", "packed"),
            (Kernel.UNIFORM, "0.02", "window"),
        ],
        ids=["dense", "csr", "packed", "window"],
    )
    def test_pair_holds_what_the_benchmark_reads(self, kernel, bandwidth, layout):
        # bench/tracing.py:184 sums the bytes of the ndarrays (and sparse
        # matrices) among vars(pair) for smoothers.pair_mb, and
        # tracing.py:71-76 reads smoothers.nnz_frac from a sparse S1's
        # data or else from np.asarray(pair.s1).  A layout that kept its
        # arrays out of vars(pair), or whose S1 np.asarray cannot form,
        # would read 0 there
        rng = np.random.default_rng(12)
        data = Dataset(y=rng.normal(size=400), u=rng.uniform(size=400), v=rng.uniform(size=400))
        bw = parse_bandwidth(bandwidth)
        assert pair_storage(data, kernel, bw, bw)[0] == layout
        pair = build_pair(data, kernel, bw, bw)
        held = [a for a in vars(pair).values() if isinstance(a, np.ndarray) or issparse(a)]
        assert held
        for a in held:
            assert (a.nbytes if isinstance(a, np.ndarray) else a.data.nbytes + a.indices.nbytes) > 0
        if issparse(pair.s1):
            assert pair.s1.data.dtype == float and pair.s1.shape == (400, 400)
        else:
            s1 = np.asarray(pair.s1)
            assert s1.dtype == float and s1.shape == (400, 400)


def _simulate_options() -> list[str]:
    """Every long option of the simulate subcommand but --help and --out."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in sub.choices["simulate"]._actions for s in a.option_strings}
    return sorted(s for s in options - {"--help", "--out"} if s.startswith("--"))


# A second value for each simulate option: (the options it needs to act, the change)
SIMULATE_CHANGES = {
    "--n": ([], ["--n", "31"]),
    "--replicates": ([], ["--replicates", "5"]),
    "--kernel": ([], ["--kernel", "uniform"]),
    "--bandwidth": ([], ["--bandwidth", "0.5"]),
    "--design": ([], ["--design", "normal"]),
    "--rho": (["--design", "normal"], ["--rho", "0.5"]),
    "--seed": ([], ["--seed", "1"]),
    "--gap-only": ([], ["--gap-only"]),
}


class TestCliSimulate:
    @pytest.mark.parametrize("option", _simulate_options())
    def test_every_option_changes_the_study(self, tmp_path, option):
        assert option in SIMULATE_CHANGES, f"{option} has no second value to try"
        context, change = SIMULATE_CHANGES[option]
        base = ["simulate", "--n", "30", "--replicates", "4", *context]

        def study(args, out):
            assert main([*args, "--out", str(out)]) == 0
            report = json.loads((out / "simulation.json").read_text())["report"]
            return (out / "replicates.csv").read_bytes(), report

        assert study(base, tmp_path / "base") != study([*base, *change], tmp_path / "changed")

    def test_gap_only_at_an_overflowing_bandwidth(self, tmp_path, capsys):
        # every gap / h overflows at h = 1e-320 and is weighed K(inf) = 0, so
        # no point meets a neighbour; the overflow itself is not reported
        out = tmp_path / "sim"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["simulate", "--n", "30", "--replicates", "2", "--gap-only",
                 "--bandwidth", "1e-320", "--out", str(out)]
            )
        assert rc == 0
        assert capsys.readouterr().err == ""
        report = json.loads((out / "simulation.json").read_text())["report"]
        assert report["fraction_gap_ok"] == 0.0

    def test_simulate_outputs(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(
            [
                "simulate", "--n", "30", "--replicates", "6",
                "--kernel", "uniform", "--bandwidth", "0.5",
                "--out", str(out), "--seed", "9",
            ]
        )
        assert rc == 0
        report = json.loads((out / "simulation.json").read_text())
        assert report["report"]["replicates"] == 6
        assert report["sim_spec"]["n"] == 30
        lines = (out / "replicates.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_simulate_gap_only_byte_identical(self, tmp_path):
        out = tmp_path / "sim"
        args = [
            "simulate", "--n", "25", "--replicates", "5", "--gap-only",
            "--kernel", "uniform", "--bandwidth", "0.4", "--out", str(out),
        ]
        assert main(args) == 0
        first = (out / "simulation.json").read_bytes()
        assert main(args) == 0
        assert first == (out / "simulation.json").read_bytes()
        report = json.loads(first)
        assert report["report"]["fraction_certified"] is None


class TestCliBound:
    def test_prints_zero_at_unit_threshold(self, capsys):
        assert main(["bound", "--n", "100", "--h", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "exact:       0.0" in out

    def test_writes_json_when_asked(self, tmp_path, capsys):
        assert main(["bound", "--n", "100", "--h", "0.1", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bound.json").read_text())
        assert report["bound"]["exact"] == pytest.approx(2.95e-3, rel=0.01)

    def test_invalid_threshold(self):
        assert main(["bound", "--n", "100", "--h", "0.0"]) == 2

    def test_infinite_threshold_writes_nothing(self, tmp_path, capsys):
        # refused before any bound is printed or any file opened
        out = tmp_path / "d"
        assert main(["bound", "--n", "10", "--h", "inf", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "h must be positive and finite" in captured.err
        assert captured.out == ""
        assert not (out / "bound.json").exists()
