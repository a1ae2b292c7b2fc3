import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rbst import cli
from rbst.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_verify_quick(capsys):
    assert run_cli("verify", "--quick") == 0
    out = capsys.readouterr().out
    assert "ur-grid" in out and "PASS" in out


def test_usage_error_exit_code():
    # pytest's `pythonpath` setting does not reach a child process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "rbst.cli", "definitely-not-a-command"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_bench_size_deterministic_csv(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["bench-size", "--alpha", "2", "--eps", "0.5", "--n", "400",
            "--trials", "2", "--seed", "7"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("experiment,alpha,eps,rho,n,trials,metric")


def test_demo_missing_image(tmp_path, capsys):
    rc = run_cli("demo", "--image", str(tmp_path / "nope.rbst"), "insert", "42")
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def test_demo_flow(tmp_path, capsys):
    img = str(tmp_path / "t.rbst")
    assert run_cli("demo", "--image", img, "--alpha", "3", "--eps", "0.5", "init") == 0
    for k in (42, 17, 99, 5):
        assert run_cli("demo", "--image", img, "insert", str(k)) == 0
    assert run_cli("demo", "--image", img, "successor", "18") == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "42"
    assert run_cli("demo", "--image", img, "range", "5", "50") == 0
    assert [l for l in capsys.readouterr().out.splitlines() if l.isdigit()] == ["5", "17", "42"]
    assert run_cli("demo", "--image", img, "delete", "17") == 0
    assert run_cli("demo", "--image", img, "check") == 0
    capsys.readouterr()
    assert run_cli("demo", "--image", img, "insert", "42") == 1  # duplicate
    assert "already present" in capsys.readouterr().err


def test_demo_persists_across_invocations(tmp_path, capsys):
    img = str(tmp_path / "p.rbst")
    run_cli("demo", "--image", img, "--alpha", "2", "init")
    run_cli("demo", "--image", img, "insert", "1000")
    run_cli("demo", "--image", img, "insert", "2000")
    capsys.readouterr()
    run_cli("demo", "--image", img, "successor", "1500")
    assert capsys.readouterr().out.strip() == "2000"


def test_dump(tmp_path, capsys):
    img = str(tmp_path / "d.rbst")
    run_cli("demo", "--image", img, "--alpha", "2", "init")
    run_cli("demo", "--image", img, "insert", "7")
    capsys.readouterr()
    assert run_cli("dump", "--image", img) == 0
    out = capsys.readouterr().out
    assert "alpha=2" in out and "keys=[7]" in out


def test_bench_updates_receipts(tmp_path):
    out = tmp_path / "u.csv"
    rec = tmp_path / "r.csv"
    rc = run_cli("bench-updates", "--alpha", "4", "--eps", "0.5", "--n", "200",
                 "--trials", "1", "--ops", "10", "--seed", "3",
                 "--out", str(out), "--receipts-out", str(rec))
    assert rc == 0
    assert rec.read_text().startswith("m,m_prime,reads,writes,d_prime")


@pytest.mark.parametrize("argv", [("insert",), ("insert", "1", "2"), ("delete",),
                                  ("successor",), ("range", "5"), ("range", "1", "2", "3"),
                                  ("init", "3"), ("check", "1")], ids="-".join)
def test_demo_key_count_is_a_usage_error(tmp_path, capsys, argv):
    img = tmp_path / "t.rbst"
    assert run_cli("demo", "--image", str(img), "init") == 0
    assert run_cli("demo", "--image", str(img), "insert", "7") == 0
    before = img.read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("demo", "--image", str(img), *argv)
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err.lower()
    assert img.read_bytes() == before


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv", [("demo", "init"), ("demo", "insert", "42"), ("dump",)],
                         ids="-".join)
def test_image_path_is_a_directory(tmp_path, capsys, argv):
    cmd, *rest = argv
    assert run_cli(cmd, "--image", str(tmp_path), *rest) == 1
    assert "Is a directory" in _one_error_line(capsys)


def test_demo_init_missing_directory(tmp_path, capsys):
    assert run_cli("demo", "--image", str(tmp_path / "no" / "t.rbst"), "init") == 1
    _one_error_line(capsys)


def test_dump_missing_image(tmp_path, capsys):
    assert run_cli("dump", "--image", str(tmp_path / "nope.rbst")) == 1
    assert "not found" in _one_error_line(capsys)


def _no_bench(*_args, **_kwargs):
    raise AssertionError("the bench ran before its output path was checked")


@pytest.mark.parametrize("cmd", ["bench-size", "bench-depth", "bench-updates"])
def test_bench_out_missing_directory_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                          cmd):
    monkeypatch.setattr(cli.metrics, cmd.replace("-", "_"), _no_bench)
    rc = run_cli(cmd, "--alpha", "2", "--n", "500", "--trials", "3", "--seed", "9",
                 "--out", str(tmp_path / "missing" / "x.csv"))
    assert rc == 1
    assert "No such file or directory" in _one_error_line(capsys)


def test_bench_updates_receipts_out_is_a_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.metrics, "bench_updates", _no_bench)
    rc = run_cli("bench-updates", "--alpha", "2", "--n", "500", "--trials", "1",
                 "--receipts-out", str(tmp_path))
    assert rc == 1
    assert "Is a directory" in _one_error_line(capsys)


@pytest.mark.parametrize("cmd", ["bench-size", "bench-depth", "bench-updates"])
def test_bad_bench_grid_fails_before_the_run(tmp_path, capsys, monkeypatch, cmd):
    monkeypatch.setattr(cli.metrics, "fast_build", _no_bench)
    out = tmp_path / "x.csv"
    rc = run_cli(cmd, "--alpha", "2,4", "--n", "20000,3", "--trials", "3", "--out", str(out))
    assert rc == 1
    assert "n=3 below alpha=4" in _one_error_line(capsys)
    assert out.read_text() == ""


@pytest.mark.parametrize("argv", [
    pytest.param(("bench-depth", "--alpha", "2", "--n", "100", "--searches", "0"),
                 id="depth-searches-0"),
    pytest.param(("bench-depth", "--alpha", "2", "--n", "100", "--searches", "-3"),
                 id="depth-searches-neg3"),
    pytest.param(("bench-updates", "--alpha", "2", "--n", "100", "--ops", "0"),
                 id="updates-ops-0"),
    pytest.param(("bench-size", "--alpha", "", "--n", "100"), id="size-no-alpha"),
    pytest.param(("bench-size", "--alpha", "2", "--n", ""), id="size-no-n"),
    pytest.param(("bench-size", "--alpha", "2", "--n", "100", "--eps", ""), id="size-no-eps"),
    pytest.param(("bench-size", "--alpha", "2", "--n", "100", "--eps", "0.6"),
                 id="size-eps-0.6"),
    pytest.param(("bench-size", "--alpha", "2", "--n", "100", "--no-buffering", "--eps", "5"),
                 id="size-unbuffered-eps-5"),
])
def test_degenerate_bench_is_refused(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli.metrics, argv[0].replace("-", "_"), _no_bench)
    assert run_cli(*argv, "--trials", "1") == 1
    out, err = capsys.readouterr()
    assert out == ""                         # not even a CSV header
    assert err.startswith("error: ") and err.count("\n") == 1, err


# (exit code, sha256[:16] of the --out CSV, of the --receipts-out CSV (None
# for a bench without receipts), of stderr): a refactor keeps every byte
GOLDEN_BENCHES = {
    "bench-size --alpha 2,4 --eps 0.5,0.25 --n 300,1000 --trials 2 --seed 5":
        (0, "a84f2ed8bd397c12", None, "a89714d8ca4bef9d"),
    "bench-size --alpha 3 --n 40,500 --trials 3 --seed 9 --no-buffering":
        (1, "8f93f7776bb40da2", None, "24b816a0f8b21c36"),
    "bench-size --alpha 1,5 --eps 0.1 --c-rho 2 --n 50,400 --trials 3 --seed 1":
        (0, "96b0c7c0d09be66f", None, "03745ea7379a0a19"),
    "bench-depth --alpha 2,4 --n 2000 --trials 2 --searches 200 --seed 3":
        (0, "8afa74a3a7675ea3", None, "1fd3dee187bd751c"),
    "bench-depth --alpha 3 --eps 0.3 --c-rho 1 --n 800 --trials 2 --searches 100 --seed 4"
    " --no-buffering":
        (0, "087a496e744af389", None, "6d8b14482abf227e"),
    "bench-updates --alpha 4 --c-rho 2 --n 600 --trials 1 --ops 100 --seed 0":
        (0, "93b5efbdd1021699", "c765e85b98bce82e", "db355bb7e2c9b117"),
    "bench-updates --alpha 2,3 --eps 0.5,0.25 --c-rho 1 --n 200,400 --trials 2 --ops 60"
    " --seed 11":
        (0, "8df7c604956d4142", "7f8ac0941fe6dd06", "1eb0e5619e704aca"),
    "bench-updates --alpha 3 --n 300 --trials 2 --ops 50 --seed 2 --no-buffering":
        (0, "355d4fa65facd01c", "54551d56df46d7e6", "02d018a4cfa21b08"),
    "bench-updates --alpha 16 --n 1500 --trials 1 --ops 40 --seed 6":
        (0, "e5424bf9ed817b66", "61e66f0659a3cbfe", "2563e591d11a123c"),
}


@pytest.mark.parametrize("argv", GOLDEN_BENCHES)
def test_bench_outputs_match_the_golden_digests(tmp_path, capsys, argv):
    # bench CSVs, receipts and the stderr summary stay byte-identical across
    # refactors: buffered and unbuffered, c_rho 1, 2 and 108, a failing row
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    out, rec = tmp_path / "o.csv", tmp_path / "r.csv"
    args = argv.split() + ["--out", str(out)]
    if args[0] == "bench-updates":
        args += ["--receipts-out", str(rec)]
    rc = run_cli(*args)
    err = capsys.readouterr().err
    got = (rc, digest(out.read_bytes()), digest(rec.read_bytes()) if rec.exists() else None,
           digest(err.encode()))
    assert got == GOLDEN_BENCHES[argv]
