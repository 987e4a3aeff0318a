import os
import subprocess
import sys

import mahler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_scripts_run_at_small_arguments():
    src = os.path.dirname(os.path.dirname(mahler.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(script, *args):
        res = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout.splitlines()

    lines = run("volume_table.py", "--max-N", "4")
    assert lines[0].split() == ["N", "s", "F(N,s)", "Pf(U)", "rel", "diff"]
    # five weights per even degree N = 2, 4, the identity holding in each
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["2"] * 5 + ["4"] * 5
    assert all(float(r[-1]) < 1e-8 for r in rows)

    lines = run("root_count_growth.py", "--degrees", "50,100")
    assert [line.split()[0] for line in lines[1:3]] == ["50", "100"]
    assert lines[-1].startswith("fitted slope of E_in vs log N:")

    lines = run("convergence_study.py", "--N-list", "7,8")
    groups = [line[:-1] for line in lines if not line.startswith(" ")]
    assert groups == ["circle_complex", "circle_real", "inside_disk", "outside_disk",
                      "kasymp_sums", "ratio_sums", "compare"]
    assert all("sup error" in line for line in lines if line.startswith(" "))

    lines = run("scalar_budget.py", "--src", src, "--src", src, "--rounds", "2",
                "--repeats", "2", "--calls", "1")
    assert lines[:3] == [f"[0] {src}", f"[1] {src}",
                         "us per call, 10th percentile of 4 runs per tree"]
    assert lines[3].split() == ["case", "[0]", "[1]"]
    rows = [line.rsplit(None, 2) for line in lines[4:]]
    assert [r[0] for r in rows] == [f"matrix_kernel {k} N={N}" for N in (8, 64)
                                    for k in ("rr", "rc", "cc")] + [
        "gram_matrix(64, 65)", "pi_pair(1, 9)", "pi_pair(1024, 2049) held",
        "xi_handle mixed block", "k_zeta", "b_outside", "roots_classify N=2",
        "roots_classify N=4", "roots_classify N=20", "sample step N=4 s=8"]
    assert all(float(t) > 0 for r in rows for t in r[1:])

    lines = run("sampler_vs_kernel.py", "--samples", "200")
    assert lines[0].startswith("N=4 s=8  samples=200  mean real-root count")
    assert lines[1].split() == ["bin", "observed", "expected", "stderr"]
    assert len(lines) == 2 + 12
