"""Golden output of the ``oscpair`` subcommands.

Each command's stdout is pinned by SHA-256, and its exit code and stderr
exactly, so that any change to the CLI's bytes from one version to the
next shows here. The approximate-weight columns of ``purity-scan``
(``S_L_makarov`` and ``delta_S_L``) depend on how the Schmidt weights are
evaluated in the last digits, so they are pinned by value at 1e-12 and
the rest of that table by bytes.
"""

import csv
import hashlib

import pytest

from oscpair.cli import main


def _warn_eps(values, bound):
    return "".join(f"warning: skipping epsilon={v} (requires 0 <= epsilon < "
                   f"omega_x*omega_y = {bound})\n" for v in values)


GRID_11 = [f"--{axis}=-2:2:11" for axis in "xpyq"]

# (argv, exit code, SHA-256 of stdout, stderr)
GOLDEN = [
    (["spectrum", "--r-scan=-1:2:7"], 0,
     "75cb44ca585426a1b0e7101829c171f9ff24adef4c2d2c36415e0993fa01e22e",
     "".join(f"warning: skipping r={r} (resonance rate must be positive)\n"
             for r in ("-1", "-0.5", "0"))),
    (["spectrum", "--omega-y", "0.8", "--epsilon", "0:0.9:4", "--n-max", "2", "--m-max", "2"],
     0, "f953481081c2b5e863bf89096d48da2263e46ba7488d36e2e123591141f6778b",
     _warn_eps(["0.9"], "0.8")),
    (["spectrum", "--omega-y", "0.8", "--epsilon", "0:0.9:4", "--n-max", "2", "--m-max", "2",
      "--format", "json"],
     0, "51214a4198b09a7fdf9622b788da672aac10aefc956361264d8b8658e3864839",
     _warn_eps(["0.9"], "0.8")),
    (["moments", "--omega-y", "0.8", "--epsilon", "0.5", "--n", "2", "--m", "1"],
     0, "d18e1f7b44f7a4bfb74be328740401c5995d01fbaf1a78f844404b89e308fb0d", ""),
    (["wigner-eval", "--omega-y", "1", "--epsilon", "0.5", "--n", "1", "--m", "0",
      "--x=-2:2:41", "--p=-2:2:41"],
     0, "c16b799bf0393e53926837b35914d524da30e94a23bf14f8a62113ddefcab496", ""),
    (["wigner-eval", "--omega-y", "0.8", "--epsilon", "0.76", "--n", "6", "--m", "6"] + GRID_11,
     0, "98937702edf0593590811ed6680eac19fe86ac536c56d7850e2966ce1734ef7e", ""),
    (["wigner-eval", "--omega-y", "0.8", "--epsilon", "0.3", "--n", "3", "--m", "2",
      "--x=-1:1:3", "--p=-1:1:3", "--y=-0.5:0.5:2", "--q=0:1:2", "--format", "json"],
     0, "317acba5e706ed6c4885ad48fea7cc4236c6f2808724c5b061a2172fa40260b5", ""),
    # axes of unequal length, and a q axis holding 0 and -0: pins the key product order
    (["wigner-eval", "--omega-y", "0.8", "--epsilon", "0.3", "--n", "2", "--m", "1",
      "--x=-1:1:3", "--p=0:1:5", "--y=-0.5:0.5:4", "--q=-0:-0:2"],
     0, "aa0a8557794b89d20fd3509ccef7f6daa0098731dfbbc73a0c5eeeaa52464b74", ""),
    # a wide x axis: W holds 0 and -0 where exp(-arg) underflows, three-digit exponents,
    # and values on both sides of %g's switch at 1e-4 (-0.00068..., -3.39...e-05)
    (["wigner-eval", "--omega-y", "0.8", "--n", "0", "--m", "1", "--x=-38:38:39",
      "--p=0:2:3", "--y=0:6:2"],
     0, "275c89755f6d74b7f18b9c64837811c5a7de0ba647a5245680749e9b548d3a95", ""),
    # n-max != m-max: pins the order of the state axis
    (["spectrum", "--omega-y", "0.8", "--epsilon", "0:0.5:3", "--n-max", "1", "--m-max", "3"],
     0, "abff6a1d53169a9857b7fce8cacc4f9425c9e5e219f93e0813cdb33636ec314f", ""),
    (["steering-scan", "--omega-y", "0.8", "--epsilon", "0:0.9:7", "--n-max", "3",
      "--m-max", "3"],
     0, "e941323f9145b1eac59190b4de70d318e9fac93884a9b0b41f0b2666650a800f",
     _warn_eps(["0.9"], "0.8")),
    (["steering-scan", "--preset", "0.8"],
     0, "fe452c104fa141f23964255e46ef4ba448b29388bf90c30e056ab3af85d194cf", ""),
    (["steering-scan", "--preset", "0.6", "--steps", "5", "--format", "json"],
     0, "fa34d5a3e29fc8868ad1b5dd62d6c891092466c1359bbcf14a30374333293a2c", ""),
    # the JSON side of the r table
    (["spectrum", "--r-scan=0.5:2:4", "--format", "json"],
     0, "7ba4679d89958510c513ea297c55d323242bd3b7c94aeeab8348337b555251d2", ""),
    # a preset sweep with non-default state and epsilon counts
    (["steering-scan", "--preset", "0.99", "--n-max", "2", "--steps", "7"],
     0, "96ba7e770eefd75d7428e45972126f2bb535f2d3d3b1d1bed3b011cb883e4732", ""),
    # JSON tables of many blocks: the 11^4 (6,6) grid (14,641 records) and the
    # 0.8 preset sweep (1,920 records)
    (["wigner-eval", "--omega-y", "0.8", "--epsilon", "0.76", "--n", "6", "--m", "6"] + GRID_11
     + ["--format", "json"],
     0, "8d59f20da08033ec3e82cd8a4da3249ba3752e2021c1dfceafd0f21a95ae0650", ""),
    (["steering-scan", "--preset", "0.8", "--format", "json"],
     0, "f3932d8e24faa2b869baa777818390ae0a9ad00e7ff3d740195ad96066630e4b", ""),
    # every r skipped: the header alone
    (["spectrum", "--r-scan=-1:0:3"], 0,
     "620459d2f35fbcf247cdb00012167c52291abf157103a07fad24a490e1359443",
     "".join(f"warning: skipping r={r} (resonance rate must be positive)\n"
             for r in ("-1", "-0.5", "0"))),
    # every epsilon skipped: the header alone
    (["purity-scan", "--omega-y", "0.5", "--epsilon", "0.6:0.9:3"],
     0, "beaacdf558fd3da43b3f5cdd2a0a4308212ab14a8f09709fa4c96f677e09bbc2",
     _warn_eps(["0.6", "0.75", "0.9"], "0.5")),
]

PURITY_ARGV = ["purity-scan", "--omega-y", "0.8", "--epsilon", "0.2:1:5",
               "--n-max", "2", "--m-max", "2"]
# SHA-256 of the table without its last two columns
PURITY_SHA = "d8ca1e2afc1f4d44c957cf6a2372bce8b7e4a425293f56727c9ff27b6133e94f"
# rows in output order: epsilon 0.2, 0.4, 0.6, then (n, m) from (0, 0) to (2, 2)
PURITY_S_L_MAKAROV = [
    0.0, 0.27624309392265212, 0.43802081743536536, 0.27624309392265289,
    0.64711089405085342, 0.69102512234514146, 0.43802081743536581, 0.69102512234514135,
    0.69784904406411619,
    0.0, 0.41580041580041593, 0.57226585293113374, 0.41580041580041593,
    0.62586174852287124, 0.63805210999422668, 0.57226585293113374, 0.63805210999422624,
    0.7734928676408821,
    0.0, 0.45871559633027525, 0.60180119518559061, 0.45871559633027503,
    0.57234239542126086, 0.64832524985926931, 0.60180119518559017, 0.64832524985926931,
    0.75491490711613929,
]
PURITY_DELTA_S_L = [
    0.0079990452924256772, 0.010595284237161717, 0.0072106497018838978,
    0.010595284237160718, -0.0055394928486863781, -0.0058736353845383338,
    0.0072106497018831206, -0.0058736353845381117, 0.012179716259518303,
    0.036109395636547359, 0.01778281660971226, 0.0064875038005528518,
    0.017782816609712371, -0.0090718556000903838, 0.034083561746361846,
    0.0064875038005529628, 0.034083561746362401, -0.032890473964665379,
    0.10633567917115794, 0.028898924508956259, 0.014964222886854284,
    0.028898924508956703, 0.050596872682750926, 0.05550556600602885,
    0.014964222886855172, 0.055505566006028961, -0.012789451092476756,
]


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, code, stdout_sha, stderr", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_output_bytes(capsys, argv, code, stdout_sha, stderr):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == stderr
    assert _sha(captured.out) == stdout_sha


def test_purity_scan(capsys):
    assert main(PURITY_ARGV) == 0
    captured = capsys.readouterr()
    assert captured.err == _warn_eps(["0.8", "1"], "0.8")
    table = list(csv.reader(captured.out.splitlines()))
    assert _sha("".join(",".join(row[:7]) + "\n" for row in table)) == PURITY_SHA
    assert table[0][7:] == ["S_L_makarov", "delta_S_L"]
    makarov = [float(row[7]) for row in table[1:]]
    delta = [float(row[8]) for row in table[1:]]
    assert makarov == pytest.approx(PURITY_S_L_MAKAROV, rel=0, abs=1e-12)
    assert delta == pytest.approx(PURITY_DELTA_S_L, rel=0, abs=1e-12)
